"""Independent output checks, cover digests and the exact-minimum reference.

Covers are read back from the PLA text the program wrote and compared,
with ``oracle.equivalent``, against the generator's own truth table, so
a fault in parsing, minimizing or writing shows up here.  The exact
minimum comes from ``oracle.all_primes`` and an integer program solved
by HiGHS through ``scipy.optimize.milp``; none of it runs in a timed
region.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Sequence

from primecover.bitcube import BitVec, minterm_to_cube, text_cube
from primecover.oracle import DC, TruthTable, all_primes, equivalent
from primecover.pla_io import LogicFunction

from .corpus import Case

# at n = 11 one exact minimum took 20 s; the reference covers n <= 10
MINIMUM_MAX_VARS = 10


def cover_rows(pla_text: str) -> list[tuple[str, str]]:
    """(input part, output part) of every cube line of a PLA text."""
    rows = []
    for raw in pla_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("."):
            inputs, outputs = line.split(None, 1)
            rows.append((inputs, outputs.replace(" ", "")))
    return rows


def cover_digest(pla_text: str) -> str:
    """sha256 of the sorted cube lines: cube text plus output tag."""
    lines = sorted(f"{i} {o}" for i, o in cover_rows(pla_text))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_cubes(rows: Sequence[tuple[str, str]], output: int) -> list:
    return [text_cube(inputs) for inputs, outputs in rows if outputs[output] == "1"]


def _care_table(n: int, column: Sequence[int | None]) -> TruthTable:
    return TruthTable(n, tuple(DC if x is None else x for x in column))


def check_output(case: Case, pla_text: str, function=None) -> list[str]:
    """Problems found in one written cover; an empty list means it is correct.

    ``function`` is the parsed single-output function; when given, its
    care table must equal the generated one.
    """
    problems = []
    try:
        rows = cover_rows(pla_text)
        if any(len(i) != case.n or len(o) != case.outputs for i, o in rows):
            return ["cover lines do not match the function's .i/.o"]
        if function is not None:
            if TruthTable.from_function(function) != _care_table(case.n, case.truth[0]):
                problems.append("parsed function differs from the generated one")
        for j, column in enumerate(case.truth):
            reference = [
                minterm_to_cube(BitVec(case.n, v)) for v, x in enumerate(column) if x == 1
            ]
            if not equivalent(output_cubes(rows, j), reference, _care_table(case.n, column)):
                problems.append(f"output {j}: cover disagrees with the truth table")
    except ValueError as exc:
        problems.append(f"unreadable cover: {exc}")
    return problems


def exact_minimum(n: int, column: Sequence[int | None]) -> int:
    """Fewest cubes that cover every on point and touch no off point."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    on = [v for v, x in enumerate(column) if x == 1]
    if not on:
        return 0
    off = tuple(minterm_to_cube(BitVec(n, v)) for v, x in enumerate(column) if x == 0)
    primes = list(all_primes(LogicFunction(n, (), off)))
    left = np.array([q.left.value for q in primes], dtype=np.int64)
    right = np.array([q.right.value for q in primes], dtype=np.int64)
    points = np.array(on, dtype=np.int64)[:, None]
    full = (1 << n) - 1
    covers = (((points & right) | (~points & left)) & full) == full
    ones = np.ones(len(primes))
    res = milp(
        c=ones,
        constraints=LinearConstraint(covers.astype(np.float64), lb=1),
        integrality=ones,
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"exact minimum not proven optimal: {res.message}")
    return round(res.fun)


class MinimumCache:
    """Exact minima on disk, keyed by a digest of the function's truth table."""

    def __init__(self, path: Path):
        self.path = path
        self.entries: dict[str, int] = {}
        if path.is_file():
            self.entries = json.loads(path.read_text(encoding="utf-8"))
        self.dirty = False

    @staticmethod
    def key(n: int, column: Sequence[int | None]) -> str:
        text = f"{n}:" + "".join("-" if x is None else str(x) for x in column)
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    def minimum(self, n: int, column: Sequence[int | None]) -> int:
        key = self.key(n, column)
        if key not in self.entries:
            self.entries[key] = exact_minimum(n, column)
            self.dirty = True
        return self.entries[key]

    def save(self) -> None:
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        self.dirty = False
