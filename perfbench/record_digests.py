"""Record the cover digest of every function of every workload under the
default seed, into ``digests.json``:

    python3 perfbench/record_digests.py

The stored digests are the identity gate: a change to the program must
reproduce them.  Re-record only when a workload's corpus changes.  A
cover that fails its check is never recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import bench, checker, corpus

    recorded = {}
    for workload in corpus.WORKLOADS:
        cases = corpus.build(workload, corpus.DEFAULT_SEED)
        first = bench.run_pass(cases, check=True)
        bad = [
            f"{case.name}: {p}"
            for case, problems in zip(cases, first.problems)
            for p in problems
        ]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        recorded[workload] = {
            checker.input_digest(case.text): digest
            for case, digest in zip(cases, first.digests)
        }
        print(f"{workload}: {len(cases)} digests")
    payload = {"seed": corpus.DEFAULT_SEED, "workloads": recorded}
    bench.DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
