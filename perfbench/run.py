"""primecover benchmark: seeded PLA text in, verified cover out.

    python3 perfbench/run.py --workload fr-random --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0
means a result was printed, 2 that the program could not be imported
or the arguments were bad.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    from perfbench.corpus import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import primecover from this checkout's src, and from nowhere else."""
    import primecover

    origin = Path(primecover.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"primecover was imported from {origin}, not from {SRC}")


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT), str(SRC)]
    args = _parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import primecover: {exc}", file=sys.stderr)
        return 2
    from perfbench import bench, corpus

    cases = corpus.build(args.workload, args.seed)
    run = bench.traced_run if args.trace else bench.timed_run
    result = run(args.workload, args.seed, args.seconds, cases)
    print("\n".join(result.summary()))
    print(result.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
