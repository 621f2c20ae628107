from pathlib import Path

from primecover import BitVec, CoverReport, parse_pla
from primecover import cli
from primecover.cli import main
from helpers import TRI_OUTPUT_PLA, five_var_pla


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


def test_seed_flag_is_accepted(tmp_path, capsys):
    src = write(tmp_path, "fivevar.pla", five_var_pla())
    assert main(["--seed", "7", "primes", src, "--minterm", "11010"]) == 0
