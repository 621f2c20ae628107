"""Command-line front end.

Subcommands: minimize, primes, verify, bench.  Exit codes: 0 ok,
1 verification failure, 2 input error, 3 inconsistent function.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .bitcube import BitVec, Cube, cube_text
from .cover import direct_cover, verify_cover
from .errors import EmptyOnset, InconsistentFunction, PlaParseError
from .multi_output import edsa_minimize, verify_multi
from .oracle import TruthTable, equivalent
from .pi_gen import generate_n, vectors_to_pis
from .pla_io import MultiFunction, parse_pla, write_pla
from .reduced_offset import generate_sdm

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _read_function(path: str, complement_cap: int):
    text = Path(path).read_text(encoding="utf-8")
    return parse_pla(text, name=Path(path).stem, complement_cap=complement_cap)


def _vec_set(vectors) -> str:
    return "{" + ", ".join(sorted(v.to_text() for v in vectors)) + "}"


def cmd_minimize(args: argparse.Namespace) -> int:
    f = _read_function(args.input, args.max_expand)
    started = time.perf_counter()
    if isinstance(f, MultiFunction):
        if not args.multi:
            print(
                f"{args.input}: {f.m} outputs; pass --multi to minimize jointly",
                file=sys.stderr,
            )
            return EXIT_INPUT
        cover = edsa_minimize(f)
        elapsed = (time.perf_counter() - started) * 1000.0
        verified = verify_multi(cover, f).ok
        text = write_pla(cover, f.n, outputs=f.m, ob=f.labels)
        summary = f"{f.name or args.input}: {len(cover)} cubes, {elapsed:.2f} ms"
    else:
        result = direct_cover(f)
        elapsed = (time.perf_counter() - started) * 1000.0
        verified = verify_cover(result, f).ok
        text = write_pla(result.cubes, f.n)
        summary = (
            f"{f.name or args.input}: {len(result.cubes)} cubes, "
            f"{len(result.on_minterms)} on-minterms, {elapsed:.2f} ms"
        )
    summary += f", verification {'ok' if verified else 'FAILED'}"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


def cmd_primes(args: argparse.Namespace) -> int:
    f = _read_function(args.input, args.max_expand)
    if isinstance(f, MultiFunction):
        print(f"{args.input}: primes needs a single-output file", file=sys.stderr)
        return EXIT_INPUT
    if args.minterm is None:
        print("--minterm is required", file=sys.stderr)
        return EXIT_INPUT
    try:
        P = BitVec.from_text(args.minterm)
    except ValueError as exc:
        print(f"bad --minterm: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if P.width != f.n:
        print(
            f"--minterm has {P.width} bits but the function has {f.n} inputs",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if any(z.covers_value(P.value) for z in f.off):
        print(f"minterm {P} lies in the off-set", file=sys.stderr)
        return EXIT_INCONSISTENT
    if not f.off:
        if args.trace:
            print("off-set empty: the universal cube is the only prime")
        print(cube_text(Cube.universal(f.n)))
        return EXIT_OK
    sdm_steps = [] if args.trace else None
    sdm = generate_sdm(P, list(f.off), trace=sdm_steps)
    if args.trace:
        print(f"di trace for minterm {P} ({len(f.off)} off-cubes)")
        for step in sdm_steps:
            print(
                f"  j={step.index:<3d} off={cube_text(step.off_cube)}  "
                f"di={step.di}  kept={_vec_set(step.elements)}  "
                f"comparisons={step.comparisons} absorbed={step.absorbed}"
            )
        avg = sdm.comparisons / len(f.off)
        print(
            f"minimal di set {_vec_set(sdm.elements)}  w={len(sdm)}  "
            f"comparisons={sdm.comparisons}  avg={avg:.2f}"
        )
    n_steps = [] if args.trace else None
    vectors = generate_n(sdm.elements, trace=n_steps)
    if args.trace:
        print("vector trace")
        for step in n_steps:
            print(
                f"  di={step.di}  clauses={_vec_set(step.clauses)}  "
                f"n={_vec_set(step.vectors)}"
            )
        print(f"primes covering {P}:")
    for text in sorted(cube_text(c) for c in vectors_to_pis(P, vectors)):
        print(text)
    return EXIT_OK


def _bench_one(path: Path, max_expand: int) -> list[str]:
    try:
        f = _read_function(str(path), max_expand)
        started = time.perf_counter()
        if isinstance(f, MultiFunction):
            cubes = len(edsa_minimize(f))
            on = len(f.rows)
            off = 0
        else:
            cubes = len(direct_cover(f).cubes)
            on = len(f.on)
            off = len(f.off)
        ms = (time.perf_counter() - started) * 1000.0
        return [path.stem, str(f.n), str(on), str(off), str(cubes), f"{ms:.2f}"]
    except Exception as exc:  # noqa: BLE001  (a bad file must not stop the sweep)
        print(f"{path.name}: {exc}", file=sys.stderr)
        return [path.stem, "", "", "", "", f"error:{type(exc).__name__}"]


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"not a directory: {args.dir}", file=sys.stderr)
        return EXIT_INPUT
    files = sorted(directory.glob("*.pla"), key=lambda p: p.name)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(lambda p: _bench_one(p, args.max_expand), files))
    else:
        rows = [_bench_one(p, args.max_expand) for p in files]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "n", "on", "off", "cubes", "ms"])
    writer.writerows(rows)
    if args.csv:
        Path(args.csv).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    f = _read_function(args.input, args.max_expand)
    if isinstance(f, MultiFunction):
        print(f"{args.input}: verify needs a single-output file", file=sys.stderr)
        return EXIT_INPUT
    cover_fn = _read_function(args.cover, args.max_expand)
    if isinstance(cover_fn, MultiFunction):
        print(f"{args.cover}: verify needs a single-output cover", file=sys.stderr)
        return EXIT_INPUT
    if cover_fn.n != f.n:
        print(
            f"width mismatch: function has {f.n} inputs, cover has {cover_fn.n}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    cubes = list(cover_fn.on)
    report = verify_cover(cubes, f)
    if report.missing:
        shown = ", ".join(str(m) for m in report.missing[:8])
        more = "" if len(report.missing) <= 8 else f" (+{len(report.missing) - 8} more)"
        print(f"coverage: FAIL, uncovered on-minterms {shown}{more}")
    else:
        print("coverage: ok")
    if report.off_conflicts:
        for cube, z in report.off_conflicts[:8]:
            print(f"off-set: FAIL, cube {cube_text(cube)} intersects {cube_text(z)}")
    else:
        print("off-set: ok (no cube touches it)")
    if report.removable_literals:
        for cube, pos in report.removable_literals[:8]:
            print(f"primality: FAIL, cube {cube_text(cube)} literal {pos} is removable")
    else:
        print("primality: ok (every literal is needed)")
    equal = True
    if f.n <= 20:
        care = TruthTable.from_function(f)
        equal = equivalent(cubes, list(f.on), care)
        print(f"equivalence on care set: {'ok' if equal else 'FAIL'}")
    return EXIT_OK if report.ok and equal else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primecover",
        description="Two-level logic minimization over PLA files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minimize", help="compute a prime cover of the on-set")
    p_min.add_argument("input")
    p_min.add_argument("--out", default=None, help="write the cover here instead of stdout")
    p_min.add_argument("--multi", action="store_true", help="minimize all outputs jointly")
    p_min.add_argument("--max-expand", type=int, default=16, help="off-set complement cap (variables)")
    p_min.set_defaults(func=cmd_minimize)

    p_primes = sub.add_parser("primes", help="list every prime implicant covering a minterm")
    p_primes.add_argument("input")
    p_primes.add_argument("--minterm", required=True, help="minterm bits, MSB first")
    p_primes.add_argument("--trace", action="store_true", help="print the construction steps")
    p_primes.add_argument("--max-expand", type=int, default=16)
    p_primes.set_defaults(func=cmd_primes)

    p_verify = sub.add_parser("verify", help="check a cover against its function")
    p_verify.add_argument("input")
    p_verify.add_argument("cover")
    p_verify.add_argument("--max-expand", type=int, default=16)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="minimize every PLA file in a directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--csv", default=None, help="write the table here instead of stdout")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--max-expand", type=int, default=16)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconsistentFunction as exc:
        print(f"inconsistent function: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (PlaParseError, EmptyOnset, FileNotFoundError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
