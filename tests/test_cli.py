import contextlib
import io
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primecover import BitVec, CoverReport, generate_sdm, parse_pla
from primecover import cli, pla_io
from primecover.cli import main
from primecover.multi_output import edsa_minimize
from helpers import (
    TRI_OUTPUT_COVER,
    TRI_OUTPUT_PLA,
    count_cubes,
    five_var_pla,
    random_function,
    tri_output_function,
)


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_minimize_writes_a_verified_cover(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    out = tmp_path / "cover.pla"
    rc = main(["minimize", src, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "verification ok" in captured.out
    cover = parse_pla(out.read_text(encoding="utf-8"))
    assert len(cover.on) >= 1


def test_minimize_to_stdout(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    rc = main(["minimize", src])
    captured = capsys.readouterr()
    assert rc == 0
    assert ".type fr" in captured.out
    assert "cubes" in captured.err


# ``minimize`` stdout, byte for byte, above the table cap: a seeded
# 9-input fr function (each minterm on with probability 0.1, off with
# 0.1) behind 8 inputs that read 01101001 in every row.  No off-row
# opposes those, so each prime leaves them free.  Every one of the 17
# origins has several primes, and at 10 of them two primes tie on the
# uncovered count, so the tie-break decides.
FR17_COVER = (
    "---------0---100-",
    "----------00---01",
    "--------0---1--11",
    "------------1010-",
    "--------00-0---1-",
    "--------0-0-0-0-1",
    "--------0011---0-",
    "--------0--0-11-0",
    "---------1--10-1-",
    "--------0--1--000",
    "----------1-01-11",
    "---------1-10---1",
    "-----------1-111-",
    "--------1--000--1",
    "---------0-000-1-",
    "--------1--0111--",
    "--------11-010--0",
)


def test_minimize_golden_cover_above_the_table_cap(tmp_path, capsys):
    rng = random.Random(1)
    rows = []
    for v in range(1 << 9):
        r = rng.random()
        if r < 0.2:
            rows.append(f"01101001{v:09b} {int(r < 0.1)}\n")
    src = write(tmp_path, "fr17.pla", ".i 17\n.o 1\n.type fr\n" + "".join(rows) + ".e\n")
    assert main(["minimize", src]) == 0
    captured = capsys.readouterr()
    body = "".join(f"{cube} 1\n" for cube in FR17_COVER)
    assert captured.out == ".i 17\n.o 1\n.p 17\n.type fr\n" + body + ".e\n"
    assert captured.err.startswith("fr17: 17 cubes, 52 on-minterms, ")
    assert captured.err.endswith(" ms, verification ok\n")


def test_minimize_exits_1_when_verification_fails(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    violating = CoverReport((BitVec.from_text("00000"),), (), ())
    monkeypatch.setattr(cli, "verify_cover", lambda cover, f: violating)
    rc = main(["minimize", src, "--out", str(tmp_path / "cover.pla")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification FAILED" in captured.out


def test_minimize_multi_output_file_is_minimized_jointly(tmp_path, capsys):
    # the file's .o line, not a flag, selects the joint cover
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    rc = main(["minimize", src])
    captured = capsys.readouterr()
    assert rc == 0
    assert "5 cubes" in captured.err
    assert "verification ok" in captured.err
    rows = {tuple(line.split()) for line in captured.out.splitlines() if line[0] in "01-"}
    assert rows == {
        (text.replace("x", "-"), "".join("1" if j in tag else "0" for j in range(3)))
        for text, tag in TRI_OUTPUT_COVER
    }
    with pytest.raises(SystemExit) as exc:
        main(["minimize", src, "--multi"])
    assert exc.value.code == 2


def test_minimize_multi_exits_1_when_verification_fails(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    # the golden cover without x00 on y0 leaves (000, y0) and (100, y0) uncovered
    dropped = [tc for tc in edsa_minimize(tri_output_function()) if str(tc) != "x00_{0}"]
    monkeypatch.setattr(cli, "edsa_minimize", lambda f: dropped)
    rc = main(["minimize", src, "--out", str(tmp_path / "cover.pla")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "4 cubes" in captured.out
    assert "verification FAILED" in captured.out


def test_minimize_multi_with_no_true_output_is_an_input_error(tmp_path, capsys):
    src = write(tmp_path, "none.pla", ".i 2\n.o 2\n.type fr\n00 00\n01 0-\n1- -0\n.e\n")
    assert main(["minimize", src]) == 2
    assert "no output is ever true" in capsys.readouterr().err


def test_minimize_missing_file(capsys):
    assert main(["minimize", "/nonexistent/nope.pla"]) == 2


def test_minimize_redefined_inputs_is_an_input_error(tmp_path, capsys):
    src = write(tmp_path, "redef.pla", ".i 3\n.o 1\n1-1 1\n.i 2\n.e\n")
    assert main(["minimize", src]) == 2
    assert "line 4: .i after the first cube line" in capsys.readouterr().err


def test_minimize_inconsistent_function(tmp_path, capsys):
    src = write(tmp_path, "bad.pla", ".i 2\n.o 1\n.type fr\n1- 1\n11 0\n.e\n")
    assert main(["minimize", src]) == 3


def test_primes_golden(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    # without --trace the primes are folded and printed from pairs
    built = count_cubes(monkeypatch)
    rc = main(["primes", src, "--minterm", "11010"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "11x10\n1x0x0\n"
    assert len(built) == 0


def test_primes_trace_carries_the_fold_counters(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    rc = main(["primes", src, "--minterm", "11010", "--trace"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "comparisons=29" in captured.out
    assert "avg=1.81" in captured.out
    assert "{00001, 00110, 01100, 10000}" in captured.out
    assert captured.out.strip().splitlines()[-2:] == ["11x10", "1x0x0"]


def test_primes_off_minterm_exits_3(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    # the fold raises before the trace or any prime is printed
    for trace in ([], ["--trace"]):
        assert main(["primes", src, "--minterm", "11011", *trace]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "inconsistent function: minterm 11011 is contained in off-cube 11011\n"
        )


def test_primes_width_mismatch_exits_2(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    assert main(["primes", src, "--minterm", "110"]) == 2


def test_primes_input_errors_exit_2(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    assert main(["primes", src, "--minterm", "11a10"]) == 2
    assert "bad --minterm: not a bit string: '11a10'" in capsys.readouterr().err
    tri = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    assert main(["primes", tri, "--minterm", "000"]) == 2
    assert "primes needs a single-output file" in capsys.readouterr().err


def test_verify_ok_and_failures(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    out = tmp_path / "cover.pla"
    main(["minimize", src, "--out", str(out)])
    capsys.readouterr()

    assert main(["verify", src, str(out)]) == 0
    # one output prints the same three check lines as several
    assert capsys.readouterr().out.splitlines() == [
        "coverage: ok",
        "off-set: ok (no cube touches it)",
        "primality: ok (every literal is needed)",
    ]

    # a cover that reaches into the off-set
    bad = write(tmp_path, "bad.pla", ".i 5\n.o 1\n.type fr\n----- 1\n.e\n")
    assert main(["verify", src, bad]) == 1
    captured = capsys.readouterr()
    assert "off-set: FAIL" in captured.out

    # an empty cover misses everything
    empty = write(tmp_path, "empty.pla", ".i 5\n.o 1\n.type fr\n.p 0\n.e\n")
    assert main(["verify", src, empty]) == 1
    captured = capsys.readouterr()
    assert "coverage: FAIL" in captured.out

    # the on-minterm 00000 as a cube of its own is not prime
    extra = write(
        tmp_path, "extra.pla", out.read_text(encoding="utf-8").replace(".e", "00000 1\n.e")
    )
    assert main(["verify", src, extra]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "primality: FAIL, cube 00000 literal 3 is removable",
        "primality: FAIL, cube 00000 literal 1 is removable",
        "primality: FAIL, cube 00000 literal 0 is removable",
    ]


def test_verify_multi_output_cover(tmp_path, capsys):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    out = tmp_path / "cover.pla"
    assert main(["minimize", src, "--out", str(out)]) == 0
    capsys.readouterr()

    assert main(["verify", src, str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "coverage: ok",
        "off-set: ok (no cube touches it)",
        "primality: ok (every literal is needed)",
    ]

    # without x00 on y0, (000, y0) and (100, y0) are uncovered
    lines = out.read_text(encoding="utf-8").splitlines()
    dropped = write(
        tmp_path, "dropped.pla", "\n".join(l for l in lines if l != "-00 100") + "\n"
    )
    assert len(lines) - 1 == len(Path(dropped).read_text(encoding="utf-8").splitlines())
    assert main(["verify", src, dropped]) == 1
    captured = capsys.readouterr()
    assert "coverage: FAIL, uncovered on-minterms 000 (output 0), 100 (output 0)" in captured.out


VERIFY_FAILURES = {
    "two outputs": (
        ".i 3\n.o 2\n.type fr\n000 10\n011 01\n101 11\n110 10\n111 01\n.e\n",
        ".i 3\n.o 2\n00- 10\n--0 10\n--- 01\n.e\n",
        [
            "coverage: FAIL, uncovered on-minterms 101 (output 0)",
            "off-set: FAIL, cube xxx_{1} covers off-minterm 000",
            "off-set: FAIL, cube xxx_{1} covers off-minterm 110",
            "primality: FAIL, cube 00x_{0} literal 0 is removable",
        ],
    ),
    "listed off-set": (
        ".i 5\n.o 1\n.type fr\n11010 1\n00001 0\n11011 0\n.e\n",
        ".i 5\n.o 1\n1101- 1\n110-0 1\n.e\n",
        [
            "coverage: ok",
            "off-set: FAIL, cube 1101x intersects 11011",
            "primality: FAIL, cube 110x0 literal 2 is removable",
            "primality: FAIL, cube 110x0 literal 1 is removable",
            "primality: FAIL, cube 110x0 literal 0 is removable",
        ],
    ),
    "derived off-set": (
        ".i 3\n.o 1\n.type fd\n1-1 1\n.e\n",
        ".i 3\n.o 1\n1-- 1\n.e\n",
        [
            "coverage: ok",
            "off-set: FAIL, cube 1xx intersects xx0",
            "primality: ok (every literal is needed)",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_FAILURES))
def test_verify_failure_text(tmp_path, capsys, name):
    """The whole stdout of a failed check names each violating cube, in
    cube text with its tag for several outputs, and the exit code is 1."""
    function, cover, expected = VERIFY_FAILURES[name]
    src = write(tmp_path, "f.pla", function)
    bad = write(tmp_path, "bad.pla", cover)
    assert main(["verify", src, bad]) == 1
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)


def test_verify_rejects_a_cover_with_other_outputs(tmp_path, capsys):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    single = write(tmp_path, "single.pla", ".i 3\n.o 1\n.type fr\n000 1\n.e\n")
    assert main(["verify", src, single]) == 2
    assert main(["verify", single, src]) == 2


def test_verify_reads_a_17_input_cover_as_its_cube_lines(tmp_path, capsys):
    # the cover has no .type, so fd; deriving its off-set would need a
    # 2^17-bit table, and verify reads only its cube lines
    src = write(
        tmp_path,
        "wide.pla",
        ".i 17\n.o 1\n.type fr\n" + "1" * 17 + " 1\n1" + "0" * 16 + " 1\n0" + "-" * 16 + " 0\n.e\n",
    )
    cover = write(tmp_path, "wide.cover.pla", ".i 17\n.o 1\n1" + "-" * 16 + " 1\n.e\n")
    assert main(["verify", src, cover]) == 0
    assert "coverage: ok" in capsys.readouterr().out.splitlines()


def test_verify_derives_no_off_set_for_the_cover(tmp_path, capsys, monkeypatch):
    def refuse(cubes, n):
        raise AssertionError("complement_cubes called")

    monkeypatch.setattr(pla_io, "complement_cubes", refuse)
    src = write(tmp_path, "f.pla", ".i 4\n.o 1\n.type fr\n1--- 1\n0--- 0\n.e\n")
    # the 0 and - lines of a cover are ignored, whatever its type, also
    # an fr 0 line inside one of its 1 lines
    for type_line in ("", ".type fr\n"):
        cover = write(
            tmp_path, "f.cover.pla", f".i 4\n.o 1\n{type_line}1--- 1\n1111 0\n0001 -\n.e\n"
        )
        assert main(["verify", src, cover]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "coverage: ok"


def test_multi_output_parse_stops_at_the_table_cap(tmp_path, capsys):
    src = write(
        tmp_path, "wide.pla", ".i 17\n.o 2\n.type fr\n" + "0" * 17 + " 10\n" + "1" * 17 + " 01\n.e\n"
    )
    assert main(["minimize", src]) == 2
    captured = capsys.readouterr()
    assert "2^n-bit output tables, capped at 16 inputs; this file has 17" in captured.err


@pytest.mark.parametrize("command", ["minimize", "primes", "verify", "bench"])
def test_max_expand_flag_is_rejected(tmp_path, capsys, command):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    args = {
        "minimize": [src],
        "primes": [src, "--minterm", "11010"],
        "verify": [src, src],
        "bench": ["--dir", str(tmp_path)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--max-expand", "20"])
    assert exc.value.code == 2


def test_ob_label_count_must_match_outputs(tmp_path, capsys):
    src = write(tmp_path, "ob.pla", ".i 2\n.o 2\n.ob a\n.type fr\n01 11\n11 10\n.e\n")
    assert main(["minimize", src]) == 2
    assert ".ob names 1 outputs but .o declares 2" in capsys.readouterr().err


def test_minimize_keeps_a_single_output_label(tmp_path, capsys):
    src = write(tmp_path, "y.pla", ".i 2\n.o 1\n.ob y\n.type fr\n11 1\n00 0\n.e\n")
    out = tmp_path / "y.cover.pla"
    assert main(["minimize", src, "--out", str(out)]) == 0
    text = out.read_text()
    assert ".ob y\n" in text and "\n1- 1\n" in text
    assert main(["verify", src, str(out)]) == 0


def test_verify_width_mismatch(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    other = write(tmp_path, "small.pla", ".i 2\n.o 1\n.type fr\n11 1\n.e\n")
    assert main(["verify", src, other]) == 2


def test_bench_directory(tmp_path, capsys):
    write(tmp_path, "fivevar.pla", five_var_pla())
    write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    write(tmp_path, "broken.pla", ".i x\n")
    rc = main(["bench", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "name,n,on,off,cubes,ms"
    assert len(lines) == 4
    assert lines[1].startswith("broken,,,,,error:")
    assert lines[2].startswith("fivevar,5,13,16,")
    assert lines[3].startswith("tri,3,8,10,5,")


def test_bench_not_a_directory(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    assert main(["bench", "--dir", src]) == 2
    assert f"not a directory: {src}" in capsys.readouterr().err


def test_bench_empty_directory(tmp_path, capsys):
    rc = main(["bench", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "name,n,on,off,cubes,ms"


def test_bench_csv_output(tmp_path, capsys):
    write(tmp_path, "fivevar.pla", five_var_pla())
    out = tmp_path / "table.csv"
    rc = main(["bench", "--dir", str(tmp_path), "--csv", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8").startswith("name,n,on,off,cubes,ms")


def test_bench_jobs_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--dir", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2


def test_bench_on_counts_minterms(tmp_path, capsys):
    write(tmp_path, "pair.pla", ".i 3\n.o 1\n.type fd\n1-1 1\n.e\n")
    # the on-cubes share 1110 and 1111: 6 on-minterms, not 8; the off-set
    # is the 4 cubes of the table complement of the on and dc points
    ovl = write(tmp_path, "ovl.pla", ".i 4\n.o 1\n.type fd\n1-1- 1\n11-- 1\n0000 -\n.e\n")
    assert main(["bench", "--dir", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("ovl,4,6,4,2,")
    assert rows[2].startswith("pair,3,2,")
    assert main(["minimize", ovl, "--out", str(tmp_path / "ovl.cover")]) == 0
    assert ", 6 on-minterms, " in capsys.readouterr().out


def test_bench_off_counts_multi_output_off_points(tmp_path, capsys):
    # 2 rows of 4: under fd 00 and 10 have no row, so they are off for
    # both outputs, and 11 is off for output 1, which no row marks 1 there
    write(tmp_path, "pair.pla", ".i 2\n.o 2\n.type fd\n01 11\n11 10\n.e\n")
    assert main(["bench", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("pair,2,2,5,")
    # under fr only the listed 0 is off: 11 for output 1; 00 and 10 are
    # don't cares
    write(tmp_path, "pair.pla", ".i 2\n.o 2\n.type fr\n01 11\n11 10\n.e\n")
    assert main(["bench", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("pair,2,2,1,")


def test_seed_flag_is_rejected(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "primes", src, "--minterm", "11010"])
    assert exc.value.code == 2



# ``primes --trace`` output, byte for byte, of the worked example, of a
# derived (fd) off-set with absorptions and of an empty off-set
GOLDEN_TRACES = {
    "fivevar": (
        five_var_pla(),
        "11010",
        (
            "di trace for minterm 11010 (16 off-cubes)\n"
            "  j=1   off=00001  di=11011  kept={11011}  comparisons=1 absorbed=1\n"
            "  j=2   off=00100  di=11110  kept={11011, 11110}  comparisons=1 absorbed=0\n"
            "  j=3   off=00110  di=11100  kept={11011, 11100}  comparisons=2 absorbed=1\n"
            "  j=4   off=01010  di=10000  kept={10000}  comparisons=2 absorbed=2\n"
            "  j=5   off=01111  di=10101  kept={10000}  comparisons=1 absorbed=1\n"
            "  j=6   off=10001  di=01011  kept={01011, 10000}  comparisons=1 absorbed=0\n"
            "  j=7   off=10011  di=01001  kept={01001, 10000}  comparisons=2 absorbed=1\n"
            "  j=8   off=10100  di=01110  kept={01001, 01110, 10000}  comparisons=2 absorbed=0\n"
            "  j=9   off=10101  di=01111  kept={01001, 01110, 10000}  comparisons=1 absorbed=1\n"
            "  j=10  off=10110  di=01100  kept={01001, 01100, 10000}  comparisons=3 absorbed=1\n"
            "  j=11  off=10111  di=01101  kept={01001, 01100, 10000}  comparisons=1 absorbed=1\n"
            "  j=12  off=11001  di=00011  kept={00011, 01001, 01100, 10000}  comparisons=3 absorbed=0\n"
            "  j=13  off=11011  di=00001  kept={00001, 01100, 10000}  comparisons=4 absorbed=2\n"
            "  j=14  off=11100  di=00110  kept={00001, 00110, 01100, 10000}  comparisons=3 absorbed=0\n"
            "  j=15  off=11101  di=00111  kept={00001, 00110, 01100, 10000}  comparisons=1 absorbed=1\n"
            "  j=16  off=11111  di=00101  kept={00001, 00110, 01100, 10000}  comparisons=1 absorbed=1\n"
            "minimal di set {00001, 00110, 01100, 10000}  w=4  comparisons=29  avg=1.81\n"
            "vector trace\n"
            "  di=00001  clauses={00001}  n={00001}\n"
            "  di=00110  clauses={00010, 00100}  n={00011, 00101}\n"
            "  di=01100  clauses={00100, 01000}  n={00101, 01011}\n"
            "  di=10000  clauses={10000}  n={10101, 11011}\n"
            "primes covering 11010:\n"
            "11x10\n"
            "1x0x0\n"
        ),
    ),
    "derived": (
        ".i 4\n.o 1\n.type fd\n1--1 1\n0110 1\n0000 -\n.e\n",
        "0110",
        (
            "di trace for minterm 0110 (4 off-cubes)\n"
            "  j=1   off=0xx1  di=0001  kept={0001}  comparisons=1 absorbed=1\n"
            "  j=2   off=001x  di=0100  kept={0001, 0100}  comparisons=1 absorbed=0\n"
            "  j=3   off=010x  di=0010  kept={0001, 0010, 0100}  comparisons=2 absorbed=0\n"
            "  j=4   off=1xx0  di=1000  kept={0001, 0010, 0100, 1000}  comparisons=3 absorbed=0\n"
            "minimal di set {0001, 0010, 0100, 1000}  w=4  comparisons=7  avg=1.75\n"
            "vector trace\n"
            "  di=0001  clauses={0001}  n={0001}\n"
            "  di=0010  clauses={0010}  n={0011}\n"
            "  di=0100  clauses={0100}  n={0111}\n"
            "  di=1000  clauses={1000}  n={1111}\n"
            "primes covering 0110:\n"
            "0110\n"
        ),
    ),
    "empty-off": (
        ".i 2\n.o 1\n.type fd\n-- 1\n.e\n",
        "01",
        (
            "off-set empty: the universal cube is the only prime\n"
            "xx\n"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_primes_trace_golden_text(tmp_path, capsys, name):
    text, minterm, expected = GOLDEN_TRACES[name]
    src = write(tmp_path, f"{name}.pla", text)
    assert main(["primes", src, "--minterm", minterm, "--trace"]) == 0
    assert capsys.readouterr().out == expected


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_primes_trace_minimal_set_matches_generate_sdm(seed, n):
    rng = random.Random(seed)
    f = random_function(rng, n)
    P = rng.choice(f.on).right  # the on-cubes are minterms
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_trace(P, f.off_pairs)
    sdm = generate_sdm(P, f.off)
    kept = ", ".join(sorted(d.to_text() for d in sdm))
    avg = sdm.comparisons / len(f.off)
    assert (
        f"minimal di set {{{kept}}}  w={len(sdm)}  comparisons={sdm.comparisons}  avg={avg:.2f}"
        in out.getvalue().splitlines()
    )
