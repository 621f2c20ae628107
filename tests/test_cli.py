from pathlib import Path

import pytest

from primecover import BitVec, CoverReport, parse_pla
from primecover import cli
from primecover.cli import main
from primecover.multi_output import edsa_minimize
from helpers import TRI_OUTPUT_PLA, five_var_pla, tri_output_function


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


def test_minimize_exits_1_when_verification_fails(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    violating = CoverReport((BitVec.from_text("00000"),), (), ())
    monkeypatch.setattr(cli, "verify_cover", lambda cover, f: violating)
    rc = main(["minimize", src, "--out", str(tmp_path / "cover.pla")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification FAILED" in captured.out


def test_minimize_multi_requires_flag(tmp_path, capsys):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    assert main(["minimize", src]) == 2
    capsys.readouterr()
    rc = main(["minimize", src, "--multi"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "5 cubes" in captured.err
    assert "verification ok" in captured.err


def test_minimize_multi_exits_1_when_verification_fails(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    # the golden cover without x00 on y0 leaves (000, y0) and (100, y0) uncovered
    dropped = [tc for tc in edsa_minimize(tri_output_function()) if str(tc.cube) != "x00"]
    monkeypatch.setattr(cli, "edsa_minimize", lambda f: dropped)
    rc = main(["minimize", src, "--multi", "--out", str(tmp_path / "cover.pla")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "4 cubes" in captured.out
    assert "verification FAILED" in captured.out


def test_minimize_missing_file(capsys):
    assert main(["minimize", "/nonexistent/nope.pla"]) == 2


def test_minimize_inconsistent_function(tmp_path, capsys):
    src = write(tmp_path, "bad.pla", ".i 2\n.o 1\n.type fr\n1- 1\n11 0\n.e\n")
    assert main(["minimize", src]) == 3


def test_primes_golden(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    rc = main(["primes", src, "--minterm", "11010"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines() == ["11x10", "1x0x0"]


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
    assert main(["primes", src, "--minterm", "11011"]) == 3


def test_primes_width_mismatch_exits_2(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    assert main(["primes", src, "--minterm", "110"]) == 2


def test_verify_ok_and_failures(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    out = tmp_path / "cover.pla"
    main(["minimize", src, "--out", str(out)])
    capsys.readouterr()

    assert main(["verify", src, str(out)]) == 0
    capsys.readouterr()

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


def test_verify_multi_output_cover(tmp_path, capsys):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    out = tmp_path / "cover.pla"
    assert main(["minimize", src, "--multi", "--out", str(out)]) == 0
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


def test_verify_rejects_a_cover_with_other_outputs(tmp_path, capsys):
    src = write(tmp_path, "tri.pla", TRI_OUTPUT_PLA)
    single = write(tmp_path, "single.pla", ".i 3\n.o 1\n.type fr\n000 1\n.e\n")
    assert main(["verify", src, single]) == 2
    assert main(["verify", single, src]) == 2


def test_multi_output_parse_stops_at_the_table_cap(tmp_path, capsys):
    src = write(
        tmp_path, "wide.pla", ".i 17\n.o 2\n.type fr\n" + "0" * 17 + " 10\n" + "1" * 17 + " 01\n.e\n"
    )
    assert main(["minimize", src, "--multi", "--max-expand", "20"]) == 2
    captured = capsys.readouterr()
    assert "2^n-bit output tables, capped at 16 inputs; this file has 17" in captured.err


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
    assert lines[3].startswith("tri,3,8,0,5,")


def test_bench_empty_directory(tmp_path, capsys):
    rc = main(["bench", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "name,n,on,off,cubes,ms"


def test_bench_csv_output_and_jobs(tmp_path, capsys):
    write(tmp_path, "fivevar.pla", five_var_pla())
    out = tmp_path / "table.csv"
    rc = main(["bench", "--dir", str(tmp_path), "--csv", str(out), "--jobs", "2"])
    assert rc == 0
    assert out.read_text(encoding="utf-8").startswith("name,n,on,off,cubes,ms")


def test_seed_flag_is_rejected(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "primes", src, "--minterm", "11010"])
    assert exc.value.code == 2
