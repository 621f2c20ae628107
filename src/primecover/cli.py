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
from functools import reduce
from operator import or_
from pathlib import Path

from .bitcube import BitVec, Cube, cube_text
from .cover import direct_cover, expand_on_minterms, verify_cover
from .errors import EmptyOnset, InconsistentFunction, PlaParseError
from .multi_output import TaggedCube, edsa_minimize, verify_multi
from .pi_gen import cross_or, generate_m, generate_spi
from .pla_io import MultiFunction, _scan, parse_pla, write_pla
from .reduced_offset import DiSet, generate_di, reform_sdm

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _read_function(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_pla(text, name=Path(path).stem)


def _vec_set(vectors) -> str:
    return "{" + ", ".join(sorted(v.to_text() for v in vectors)) + "}"


def cmd_minimize(args: argparse.Namespace) -> int:
    f = _read_function(args.input)
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
            f"{len(expand_on_minterms(f))} on-minterms, {elapsed:.2f} ms"
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
    f = _read_function(args.input)
    if isinstance(f, MultiFunction):
        print(f"{args.input}: primes needs a single-output file", file=sys.stderr)
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
    if args.trace:
        _print_trace(P, f.off)
    for c in generate_spi(P, f.off):
        print(cube_text(c))
    return EXIT_OK


def _print_trace(P: BitVec, off: tuple[Cube, ...]) -> None:
    """Step the exported primitives and print each step: one indicator
    folded per off-cube, then one clause expanded per kept indicator."""
    if not off:
        print("off-set empty: the universal cube is the only prime")
        return
    print(f"di trace for minterm {P} ({len(off)} off-cubes)")
    S = DiSet([BitVec.ones(P.width)])
    for j, z in enumerate(off, start=1):
        d = generate_di(P, z)
        comparisons, absorptions = S.comparisons, S.absorptions
        reform_sdm(S, d)
        print(
            f"  j={j:<3d} off={cube_text(z)}  di={d}  kept={_vec_set(S.elements)}  "
            f"comparisons={S.comparisons - comparisons} "
            f"absorbed={S.absorptions - absorptions}"
        )
    print(
        f"minimal di set {_vec_set(S.elements)}  w={len(S)}  "
        f"comparisons={S.comparisons}  avg={S.comparisons / len(off):.2f}"
    )
    print("vector trace")
    vectors = [BitVec.zeros(P.width)]
    for d in S.elements:
        clauses = generate_m(d)
        vectors = cross_or(vectors, clauses)
        print(f"  di={d}  clauses={_vec_set(clauses)}  n={_vec_set(vectors)}")
    print(f"primes covering {P}:")


def _bench_one(path: Path) -> list[str]:
    """One CSV row: ``on`` counts on-minterms (for several outputs, the
    minterms with an output of 1), ``off`` off-cubes (for f/fd files,
    the cubes of the table complement; for several outputs, the
    (minterm, output) points where the output is 0) and ``ms`` times
    parsing and minimizing."""
    try:
        started = time.perf_counter()
        f = _read_function(str(path))
        multi = isinstance(f, MultiFunction)
        cubes = len(edsa_minimize(f)) if multi else len(direct_cover(f).cubes)
        ms = (time.perf_counter() - started) * 1000.0
        if multi:
            on = reduce(or_, f.on).bit_count()
            off = sum(table.bit_count() for table in f.off)
        else:
            on = len(expand_on_minterms(f))
            off = len(f.off_pairs)
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
    rows = [_bench_one(p) for p in files]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "n", "on", "off", "cubes", "ms"])
    writer.writerows(rows)
    if args.csv:
        Path(args.csv).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _print_checks(
    missing: list[str], missing_count: int, conflicts: list[str], removable: list[str]
) -> None:
    """The coverage, off-set and primality lines of a cover check; each
    list holds at most the first 8 violations of its kind."""
    if missing:
        more = "" if missing_count <= 8 else f" (+{missing_count - 8} more)"
        print(f"coverage: FAIL, uncovered on-minterms {', '.join(missing)}{more}")
    else:
        print("coverage: ok")
    for line in conflicts:
        print(f"off-set: FAIL, {line}")
    if not conflicts:
        print("off-set: ok (no cube touches it)")
    for line in removable:
        print(f"primality: FAIL, {line}")
    if not removable:
        print("primality: ok (every literal is needed)")


def _verify_multi(f: MultiFunction, rows: list[tuple[Cube, str]]) -> int:
    """Check the cube lines of a multi-output cover, each on for some
    output: a 1 in output j of a line puts j in the cube's tag."""
    cover = [
        TaggedCube(cube, frozenset(j for j, ch in enumerate(out) if ch == "1"))
        for cube, out in rows
    ]
    report = verify_multi(cover, f)
    _print_checks(
        [f"{m} (output {j})" for m, j in report.missing[:8]],
        len(report.missing),
        [f"cube {tc} covers off-minterm {v}" for tc, v in report.off_conflicts[:8]],
        [f"cube {tc} literal {pos} is removable" for tc, pos in report.removable_literals[:8]],
    )
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    """The cover file is read as its cube lines, of any type and width:
    the cubes are its lines with a 1 output, and no off-set is derived.
    A parsed function is consistent, so a cover agrees with it on every
    care minterm exactly when the coverage and off-set checks pass."""
    f = _read_function(args.input)
    cover = _scan(Path(args.cover).read_text(encoding="utf-8"))
    if cover.m != (f.m if isinstance(f, MultiFunction) else 1):
        print(
            f"{args.cover}: the cover and the function have different output counts",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if cover.n != f.n:
        print(
            f"width mismatch: function has {f.n} inputs, cover has {cover.n}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    rows = [
        (Cube(BitVec(f.n, left), BitVec(f.n, right)), out)
        for (left, right), out in cover.rows
        if "1" in out
    ]
    if isinstance(f, MultiFunction):
        return _verify_multi(f, rows)
    report = verify_cover([cube for cube, _ in rows], f)
    _print_checks(
        [str(m) for m in report.missing[:8]],
        len(report.missing),
        [
            f"cube {cube_text(cube)} intersects {cube_text(z)}"
            for cube, z in report.off_conflicts[:8]
        ],
        [
            f"cube {cube_text(cube)} literal {pos} is removable"
            for cube, pos in report.removable_literals[:8]
        ],
    )
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


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
    p_min.set_defaults(func=cmd_minimize)

    p_primes = sub.add_parser("primes", help="list every prime implicant covering a minterm")
    p_primes.add_argument("input")
    p_primes.add_argument("--minterm", required=True, help="minterm bits, MSB first")
    p_primes.add_argument("--trace", action="store_true", help="print the construction steps")
    p_primes.set_defaults(func=cmd_primes)

    p_verify = sub.add_parser("verify", help="check a cover against its function")
    p_verify.add_argument("input")
    p_verify.add_argument("cover")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="minimize every PLA file in a directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--csv", default=None, help="write the table here instead of stdout")
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
