"""Shared fixtures: the golden worked examples and random-function builders."""

from __future__ import annotations

import itertools
import logging
import random

from primecover import (
    BitVec,
    CoverReport,
    CoverResult,
    Cube,
    InconsistentFunction,
    LogicFunction,
    MultiFunction,
    cube_intersects,
    minterm_to_cube,
)
from primecover.cover import expand_on_minterms

bv = BitVec.from_text


def minterm_cubes(texts: list[str]) -> tuple[Cube, ...]:
    return tuple(minterm_to_cube(bv(t)) for t in texts)


# Five-variable single-output golden function (13 on / 16 off minterms,
# three implicit don't cares).
FIVE_VAR_ON = (
    "00000 00010 00011 01000 01001 01100 01101 01110 10000 10010 11000 11010 11110"
).split()
FIVE_VAR_OFF = (
    "00001 00100 00110 01010 01111 10001 10011 10100 10101 10110 10111 "
    "11001 11011 11100 11101 11111"
).split()


def five_var_function() -> LogicFunction:
    return LogicFunction(
        5, minterm_cubes(FIVE_VAR_ON), minterm_cubes(FIVE_VAR_OFF), name="fivevar"
    )


# Three-variable golden example: primes covering 001 are {0x1, x01}.
THREE_VAR_P = "001"
THREE_VAR_OFF = ["000", "100", "111"]


def three_var_function() -> LogicFunction:
    on = [v for v in range(8) if v not in (0b000, 0b100, 0b111)]
    return LogicFunction(
        3,
        tuple(minterm_to_cube(BitVec(3, v)) for v in on),
        minterm_cubes(THREE_VAR_OFF),
        name="threevar",
    )


# Three-input, three-output golden truth table; output j is y_j.
TRI_OUTPUT_ROWS = [
    ("000", (1, 0, 1)),
    ("001", (0, 1, 1)),
    ("010", (0, 1, 1)),
    ("011", (0, 1, 0)),
    ("100", (1, 0, 0)),
    ("101", (1, 0, 1)),
    ("110", (0, 1, 1)),
    ("111", (1, 0, 1)),
]

TRI_OUTPUT_COVER = {
    ("x00", frozenset({0})),
    ("1x1", frozenset({0, 2})),
    ("00x", frozenset({2})),
    ("x10", frozenset({1, 2})),
    ("0x1", frozenset({1})),
}


def tri_output_function() -> MultiFunction:
    return MultiFunction(
        3, 3, tuple((bv(m), v) for m, v in TRI_OUTPUT_ROWS), name="trioutput"
    )


TRI_OUTPUT_PLA = """\
.i 3
.o 3
.ob y0 y1 y2
.type fr
000 101
001 011
010 011
011 010
100 100
101 101
110 011
111 101
.e
"""


def five_var_pla() -> str:
    lines = [".i 5", ".o 1", ".type fr"]
    lines += [f"{t} 1" for t in FIVE_VAR_ON]
    lines += [f"{t} 0" for t in FIVE_VAR_OFF]
    lines.append(".e")
    return "\n".join(lines) + "\n"


def random_function(
    rng: random.Random,
    n: int,
    *,
    p_on: float = 0.45,
    p_off: float = 0.45,
) -> LogicFunction:
    """Random minterm partition with nonempty on-set and off-set."""
    while True:
        on: list[int] = []
        off: list[int] = []
        for v in range(1 << n):
            r = rng.random()
            if r < p_on:
                on.append(v)
            elif r < p_on + p_off:
                off.append(v)
        if on and off:
            return LogicFunction(
                n,
                tuple(minterm_to_cube(BitVec(n, v)) for v in on),
                tuple(minterm_to_cube(BitVec(n, v)) for v in off),
            )


def random_cube(rng: random.Random, n: int, dc_prob: float = 0.4) -> Cube:
    left = right = 0
    for _ in range(n):
        left <<= 1
        right <<= 1
        r = rng.random()
        if r < dc_prob:
            left |= 1
            right |= 1
        elif r < dc_prob + (1 - dc_prob) / 2:
            left |= 1
        else:
            right |= 1
    return Cube(BitVec(n, left), BitVec(n, right))


def enumerate_all_cubes(n: int):
    """Every nonempty cube over n variables (3**n of them)."""
    for choices in itertools.product("01x", repeat=n):
        left = right = 0
        for ch in choices:
            left <<= 1
            right <<= 1
            if ch == "0":
                left |= 1
            elif ch == "1":
                right |= 1
            else:
                left |= 1
                right |= 1
        yield Cube(BitVec(n, left), BitVec(n, right))


def naive_primes(f: LogicFunction) -> set[Cube]:
    """All primes by filtering every cube: implicant and maximal."""
    off_values = set()
    for z in f.off:
        off_values.update(m.value for m in z.minterms())

    def is_implicant(c: Cube) -> bool:
        return all(m.value not in off_values for m in c.minterms())

    primes = set()
    for c in enumerate_all_cubes(f.n):
        if not is_implicant(c):
            continue
        maximal = True
        for pos in range(f.n):
            if c.specified_mask >> pos & 1 and is_implicant(c.raise_literal(pos)):
                maximal = False
                break
        if maximal:
            primes.add(c)
    return primes


# Pairwise references for the sliced set algebra: one cube_intersects or
# covers_value call per pair, as the library computed these before.


def reference_validate(f: LogicFunction) -> None:
    for a in f.on:
        for b in f.off:
            if cube_intersects(a, b):
                raise InconsistentFunction(f"on-cube {a} intersects off-cube {b}")


def reference_coverage_mask(pi: Cube, on_minterms) -> BitVec:
    width = len(on_minterms)
    bits = 0
    for i, m in enumerate(on_minterms):
        if pi.covers_value(m.value):
            bits |= 1 << (width - 1 - i)
    return BitVec(width, bits)


def reference_verify_cover(cover, f: LogicFunction) -> CoverReport:
    cubes = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    missing = [
        m
        for m in expand_on_minterms(f)
        if not any(c.covers_value(m.value) for c in cubes)
    ]
    off_conflicts = [(c, z) for c in cubes for z in f.off if cube_intersects(c, z)]
    removable = []
    for c in cubes:
        for pos in range(c.width):
            if not c.specified_mask >> pos & 1:
                continue
            raised = c.raise_literal(pos)
            if not any(cube_intersects(raised, z) for z in f.off):
                removable.append((c, c.width - 1 - pos))
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))


class WidthCollector(logging.Handler):
    """Captures the (width, inputs) diagnostics the indicator fold logs."""

    def __init__(self) -> None:
        super().__init__(level=logging.DEBUG)
        self.samples: list[tuple[int, int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        width, inputs = record.args[0], record.args[1]
        self.samples.append((inputs, width))


# Acceptance bookkeeping, printed in the terminal summary by conftest.
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_acceptance(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, ok, detail))
    state = "PASS" if ok else "FAIL"
    print(f"acceptance {number}: {state} ({detail})")
    assert ok, f"acceptance {number} failed: {detail}"
