"""Time one set-up of the program in a fresh interpreter.

    python3 perfbench/setup_probe.py single|multi

Prints, as a JSON list, a calibration loop time, the seconds taken to
import ``primecover`` from the checkout's ``src`` and make one warm-up
call to each entry point the workload uses, and a second calibration
loop time.  Interpreter start-up is not included.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from calibrate import loop_seconds

WARM_SINGLE = ".i 3\n.o 1\n.type fd\n011 1\n101 1\n110 1\n111 1\n.e\n"
WARM_MULTI = ".i 3\n.o 2\n.type fr\n000 00\n001 10\n010 10\n011 11\n100 01\n101 11\n110 01\n111 11\n.e\n"


def set_up(kind: str) -> float:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    from primecover import cover, multi_output, pla_io

    if kind == "multi":
        f = pla_io.parse_pla(WARM_MULTI)
        pla_io.write_pla(multi_output.edsa_minimize(f), f.n, outputs=f.m)
    else:
        f = pla_io.parse_pla(WARM_SINGLE)
        result = cover.direct_cover(f)
        cover.verify_cover(result, f)
        pla_io.write_pla(result.cubes, f.n)
    return time.perf_counter() - start


if __name__ == "__main__":
    before = loop_seconds()
    elapsed = set_up(sys.argv[1])
    print(json.dumps([before, elapsed, loop_seconds()]))
