"""Seeded workload generators.

Each generator turns a seed into a list of ``Case`` values: the PLA text
the program receives, plus the truth table the benchmark keeps for
itself so that covers can be checked without trusting the parser.  This
module does not import ``primecover``.

Workload sizes are fixed per variable count rather than drawn, and
random functions take exact on/off/dc counts rather than Bernoulli
draws, so that the cost of one pass changes little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# (variables, functions) per workload; the per-function time grows about
# 4x per added input, so the larger sizes are kept few to bound a pass.
# fr-random stops at n = 10: one n = 11 function alone took a quarter of a
# pass, leaving room for one pass per run.  Its 90th percentile falls
# inside the n = 9 block, away from the steps between blocks.
FR_MIX = ((8, 88), (9, 10), (10, 2))
MULTI_MIX = ((7, 94), (8, 5), (9, 1))
MULTI_OUTPUTS = 4

# Symmetric functions with random count sets stay at n <= 7: at n = 9 the
# cost of one random count set ranges over 30x.  The count sets are drawn
# once, from a fixed seed; with count sets drawn per run seed the median
# function time moved by 14% from seed to seed.
RANDOM_SYMMETRIC = ((5, 15), (6, 15), (7, 15))
COUNT_SET_SEED = "fd-arith/count-sets"
THRESHOLDS = ((9, (2, 3, 5, 7)), (10, (2, 3, 5, 7)))
COUNT_BITS = (5, 7, 8)  # rd53, rd73, rd84


@dataclass(frozen=True)
class Case:
    """One function of a workload.

    ``truth[j][v]`` is output j at minterm v: 1, 0, or None for a don't
    care.  Minterm v's text is its n-bit binary form, MSB first.
    """

    name: str
    n: int
    text: str
    truth: tuple[tuple[int | None, ...], ...]

    @property
    def outputs(self) -> int:
        return len(self.truth)


def _bits(v: int, n: int) -> str:
    return format(v, f"0{n}b")


def _pla(n: int, type_: str, rows: list[tuple[int, str]], outputs: int = 1) -> str:
    lines = [f".i {n}", f".o {outputs}", f".p {len(rows)}", f".type {type_}"]
    lines += [f"{_bits(v, n)} {out}" for v, out in rows]
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _exact_split(n: int, rng: random.Random, shares: tuple[float, ...]) -> list[list[int]]:
    """Shuffle all 2**n minterms and cut off round(share * 2**n) per share."""
    points = list(range(1 << n))
    rng.shuffle(points)
    out, start = [], 0
    for share in shares:
        k = round(share * (1 << n))
        out.append(sorted(points[start : start + k]))
        start += k
    return out


def fr_random(seed: int) -> list[Case]:
    """Single-output ``.type fr`` minterm functions, 45% on, 45% off."""
    rng = random.Random(f"fr-random/{seed}")
    cases = []
    for n, count in FR_MIX:
        for _ in range(count):
            on, off = _exact_split(n, rng, (0.45, 0.45))
            values: list[int | None] = [None] * (1 << n)
            rows = [(v, "1") for v in on] + [(v, "0") for v in off]
            rows.sort()
            for v, out in rows:
                values[v] = int(out)
            name = f"fr-random/{len(cases):03d}-n{n}"
            cases.append(Case(name, n, _pla(n, "fr", rows), (tuple(values),)))
    return cases


def _adder(k: int, carry_in: bool, bit: int):
    mask = (1 << k) - 1

    def f(v: int) -> int:
        if carry_in:
            cin, v = v & 1, v >> 1
        else:
            cin = 0
        return ((v >> k) + (v & mask) + cin) >> bit & 1

    return f


def _compare(k: int, op: str):
    mask = (1 << k) - 1
    if op == "lt":
        return lambda v: int((v >> k) < (v & mask))
    return lambda v: int((v >> k) == (v & mask))


def _symmetric(counts: frozenset[int]):
    return lambda v: int(v.bit_count() in counts)


def _arith_specs():
    """(label, n, predicate) for every fd-arith function, in corpus order."""
    for k in (2, 3, 4, 5):
        for bit in range(k + 1):
            yield f"add{k}-s{bit}", 2 * k, _adder(k, False, bit)
    for k in (2, 3, 4):
        for bit in range(k + 1):
            yield f"add{k}c-s{bit}", 2 * k + 1, _adder(k, True, bit)
    for k in (2, 3, 4, 5):
        yield f"lt{k}", 2 * k, _compare(k, "lt")
        yield f"eq{k}", 2 * k, _compare(k, "eq")
    for n in COUNT_BITS:
        for j in range(n.bit_length()):
            counts = frozenset(c for c in range(n + 1) if c >> j & 1)
            yield f"rd{n}-b{j}", n, _symmetric(counts)
    for n, ts in THRESHOLDS:
        for t in ts:
            yield f"th{n}-{t}", n, _symmetric(frozenset(range(t, n + 1)))
    rng = random.Random(COUNT_SET_SEED)
    for n, count in RANDOM_SYMMETRIC:
        for _ in range(count):
            counts: frozenset[int] = frozenset()
            while not 0 < len(counts) <= n:
                counts = frozenset(c for c in range(n + 1) if rng.random() < 0.5)
            label = "".join(str(c) for c in sorted(counts))
            yield f"sym{n}-{label}", n, _symmetric(counts)


def fd_arith(seed: int) -> list[Case]:
    """Adders, comparators and symmetric functions as ``.type fd`` on-minterm
    lists; the parser derives each off-set by complementation.

    The seed draws, per function, which inputs are complemented; that
    leaves the size of the derived off-set unchanged.  It does not permute
    inputs: the derived off-set depends on the input order (an adder sum
    bit ranged over 136..384 cubes), which would make a pass's cost
    depend on the seed.
    """
    rng = random.Random(f"fd-arith/{seed}")
    cases = []
    for label, n, pred in _arith_specs():
        flip = rng.getrandbits(n)
        values = tuple(pred(v ^ flip) for v in range(1 << n))
        rows = [(v, "1") for v in range(1 << n) if values[v]]
        name = f"fd-arith/{len(cases):03d}-{label}"
        cases.append(Case(name, n, _pla(n, "fd", rows), (values,)))
    return cases


def multi_random(seed: int) -> list[Case]:
    """Four-output ``.type fr`` tables listing every minterm; per output
    40% ones, 5% don't cares, the rest explicit zeros."""
    rng = random.Random(f"multi-random/{seed}")
    cases = []
    for n, count in MULTI_MIX:
        for _ in range(count):
            columns = []
            for _ in range(MULTI_OUTPUTS):
                ones, dcs = _exact_split(n, rng, (0.40, 0.05))
                col: list[int | None] = [0] * (1 << n)
                for v in ones:
                    col[v] = 1
                for v in dcs:
                    col[v] = None
                columns.append(tuple(col))
            char = {1: "1", 0: "0", None: "-"}
            rows = [
                (v, "".join(char[col[v]] for col in columns)) for v in range(1 << n)
            ]
            name = f"multi-random/{len(cases):03d}-n{n}"
            text = _pla(n, "fr", rows, outputs=MULTI_OUTPUTS)
            cases.append(Case(name, n, text, tuple(columns)))
    return cases


WORKLOADS = {
    "fr-random": fr_random,
    "fd-arith": fd_arith,
    "multi-random": multi_random,
}


def build(workload: str, seed: int) -> list[Case]:
    try:
        generate = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}") from None
    return generate(seed)
