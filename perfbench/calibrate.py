"""A fixed pure-Python loop that measures how fast the interpreter runs now.

The benchmark's host shares its cores: the same function's time moves
by up to 2x within seconds, far more than a run can average out.  The
benchmark therefore brackets every timed call with this loop and
reports times at the reference speed, the speed at which the loop takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / (loop time around the call)

where the loop time around a call is the median of the few loop times
nearest to it.

Raw times are printed beside the reported ones.  Nothing here imports
the program, so a change to the program cannot change the reference.
"""

from statistics import median
from time import perf_counter

ITERATIONS = 20_000
# median loop time on a 2.1 GHz Xeon guest, CPython 3.11
REFERENCE_S = 0.004
# loop times taken on either side of a timed call
WINDOW = 3


def loop_seconds() -> float:
    start = perf_counter()
    table = {}
    x = 0
    for i in range(ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
        table[x & 1023] = i
    return perf_counter() - start


def scales(loops: list[float]) -> list[float]:
    """One factor per interval between consecutive loop times, turning a
    time measured in that interval into reference seconds.

    Each uses the median of up to ``WINDOW`` loop times on either side of
    its interval: a single 4 ms loop time jitters by about 10%, while the
    host's speed drifts over seconds.
    """
    return [
        REFERENCE_S / median(loops[max(0, i - WINDOW + 1) : i + WINDOW + 1])
        for i in range(len(loops) - 1)
    ]
