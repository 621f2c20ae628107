"""Shared fixtures: the golden worked examples and random-function builders."""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import random

from primecover import (
    BitVec,
    CoverReport,
    CoverResult,
    Cube,
    DiSet,
    EmptyOffset,
    EmptyOnset,
    InconsistentFunction,
    LogicFunction,
    MultiFunction,
    cube_contains,
    cube_intersects,
    cube_text,
    direct_cover,
    generate_spi,
    minterm_to_cube,
)
from primecover.bitcube import Slices
from primecover.cover import find_dominant, mask_members
from primecover.multi_output import MultiCoverReport, TaggedCube
from primecover.reduced_offset import SdmStep

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


def reference_on_minterms(f: LogicFunction) -> list[BitVec]:
    """On-minterms in canonical order, one ``Cube.minterms()`` call per cube."""
    out: dict[int, BitVec] = {}
    for c in f.on:
        for m in c.minterms():
            out.setdefault(m.value, m)
    return list(out.values())


def reference_verify_cover(cover, f: LogicFunction) -> CoverReport:
    cubes = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    missing = [
        m
        for m in reference_on_minterms(f)
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


# BitVec references for the int-native generator core: the fold, the
# clause expansion, absorption and cube text as the library computed
# them one carrier object at a time.


def reference_generate_di(P: BitVec, Z) -> BitVec:
    Z = minterm_to_cube(Z) if isinstance(Z, BitVec) else Z
    if Z.empty:
        raise ValueError("difference indicator of an empty cube")
    if P.width != Z.width:
        raise ValueError(f"width mismatch: {P.width} vs {Z.width}")
    d = (P.value ^ Z.right.value) & Z.specified_mask
    if d == 0:
        raise InconsistentFunction(f"minterm {P} is contained in off-cube {Z}")
    return BitVec(P.width, d)


def reference_reform_sdm(S: DiSet, D: BitVec) -> DiSet:
    if D.value == 0:
        raise ValueError("zero difference indicator")
    if S.elements and S.elements[0].width != D.width:
        raise ValueError(f"width mismatch: {S.elements[0].width} vs {D.width}")
    dv = D.value
    removed: list[int] = []
    for idx, s in enumerate(S.elements):
        S.comparisons += 1
        a = s.value & dv
        if a == s.value:
            S.absorptions += 1
            return S
        if a == dv:
            removed.append(idx)
    for idx in reversed(removed):
        del S.elements[idx]
    S.absorptions += len(removed)
    bisect.insort(S.elements, D)
    return S


def reference_generate_sdm(P: BitVec, off_cubes, *, trace: list | None = None) -> DiSet:
    off = [minterm_to_cube(z) if isinstance(z, BitVec) else z for z in off_cubes]
    if not off:
        raise EmptyOffset("off-set is empty; every point is coverable by the universal cube")
    S = DiSet([BitVec.ones(P.width)])
    for j, Z in enumerate(off, start=1):
        D = reference_generate_di(P, Z)
        before = (S.comparisons, S.absorptions)
        reference_reform_sdm(S, D)
        if trace is not None:
            trace.append(
                SdmStep(
                    index=j,
                    off_cube=Z,
                    di=D,
                    comparisons=S.comparisons - before[0],
                    absorbed=S.absorptions - before[1],
                    elements=tuple(S.elements),
                )
            )
    return S


def reference_minimize_n(vectors) -> list[BitVec]:
    kept: list[BitVec] = []
    for i, v in enumerate(vectors):
        redundant = False
        for j, u in enumerate(vectors):
            if j == i:
                continue
            if u.value == v.value:
                if j < i:
                    redundant = True
                    break
                continue
            if u.value & v.value == u.value:
                redundant = True
                break
        if not redundant:
            kept.append(v)
    return kept


def reference_cross_or(n_vectors, m_vectors) -> list[BitVec]:
    if not n_vectors:
        raise ValueError("vector set must be seeded with the all-zeros vector")
    if not m_vectors:
        raise ValueError("clause set must be nonempty")
    return reference_minimize_n([e | v for e in n_vectors for v in m_vectors])


def reference_generate_n(dis) -> list[BitVec]:
    seq = list(dis)
    n_vectors = [BitVec.zeros(seq[0].width)]
    for d in seq:
        clauses = [BitVec(d.width, 1 << p) for p in d.one_positions()]
        n_vectors = reference_cross_or(n_vectors, clauses)
    return n_vectors


def reference_minimize_sr(cubes) -> list[Cube]:
    seq = list(cubes)
    kept: list[Cube] = []
    for i, c in enumerate(seq):
        redundant = False
        for j, other in enumerate(seq):
            if j == i:
                continue
            if other == c:
                if j < i:
                    redundant = True
                    break
                continue
            if cube_contains(other, c):
                redundant = True
                break
        if not redundant:
            kept.append(c)
    return kept


def reference_cube_text(c: Cube) -> str:
    if c.empty:
        raise ValueError("an empty cube has no text form")
    chars = []
    for pos in range(c.width - 1, -1, -1):
        pair = (c.left.value >> pos & 1, c.right.value >> pos & 1)
        chars.append({(1, 0): "0", (0, 1): "1", (1, 1): "x"}[pair])
    return "".join(chars)


def reference_text_cube(s: str) -> Cube:
    if not s:
        raise ValueError("empty cube string")
    left = right = 0
    for ch in s:
        left <<= 1
        right <<= 1
        if ch == "0":
            left |= 1
        elif ch == "1":
            right |= 1
        elif ch in ("x", "-"):
            left |= 1
            right |= 1
        else:
            raise ValueError(f"illegal cube character {ch!r} in {s!r}")
    n = len(s)
    return Cube(BitVec(n, left), BitVec(n, right))


# The direct cover loop as it ran on carriers: the listed off-cubes go to
# generate_spi on every origin, and candidates are (Cube, mask) pairs
# chosen by dominance, uncovered count and cube text.


def reference_direct_cover(f: LogicFunction, *, irredundant: bool = False) -> CoverResult:
    if not f.on:
        raise EmptyOnset("the on-set is empty")
    on_list = reference_on_minterms(f)
    on = Slices.of_minterms([m.value for m in on_list], f.n)
    width = len(on_list)
    chosen: list[Cube] = []
    chosen_masks: list[BitVec] = []
    uncovered = (1 << width) - 1
    iterations = 0
    while uncovered:
        origin = on_list[width - uncovered.bit_length()]
        candidates = [(pi, on.mask_of(pi)) for pi in generate_spi(origin, f.off)]
        restricted = [mask.value & uncovered for _, mask in candidates]
        idx = find_dominant(restricted)
        if idx is None:
            idx = min(
                range(len(candidates)),
                key=lambda i: (-restricted[i].bit_count(), cube_text(candidates[i][0])),
            )
        cube, mask = candidates[idx]
        chosen.append(cube)
        chosen_masks.append(mask)
        uncovered &= ~mask.value
        iterations += 1
    if irredundant:
        keep = list(range(len(chosen)))
        for i in reversed(range(len(chosen))):
            rest = 0
            for j in keep:
                if j != i:
                    rest |= chosen_masks[j].value
            if chosen_masks[i].value & ~rest == 0:
                keep.remove(i)
        chosen = [chosen[i] for i in keep]
        chosen_masks = [chosen_masks[i] for i in keep]
    return CoverResult(tuple(chosen), tuple(chosen_masks), tuple(on_list), iterations, 0.0)


# References for the multi-output loop: the joint off-set built by a
# per-output scan of all 2^n minterms, and the loop that rebuilds every
# row's current tag from a set of covered (minterm, output) pairs each
# iteration and scores lookahead neighbours one containment test each.


def reference_subfunction_off(tag, f: MultiFunction) -> list[Cube]:
    if not tag:
        raise ValueError("empty output tag")
    values = {m.value: vals for m, vals in f.rows}
    out: list[Cube] = []
    for v in range(1 << f.n):
        vals = values.get(v)
        if vals is None:
            out.append(minterm_to_cube(BitVec(f.n, v)))
            continue
        if any(vals[j] == 0 for j in tag):
            out.append(minterm_to_cube(BitVec(f.n, v)))
    return out


def reference_current_tags(f: MultiFunction, covered: set[tuple[int, int]]) -> dict[int, frozenset[int]]:
    tags: dict[int, frozenset[int]] = {}
    for m, values in f.rows:
        cur = frozenset(
            j for j, v in enumerate(values) if v == 1 and (m.value, j) not in covered
        )
        if cur:
            tags[m.value] = cur
    return tags


def reference_single_output_function(f: MultiFunction) -> LogicFunction:
    values = {m.value: vals for m, vals in f.rows}
    on = [minterm_to_cube(m) for m, vals in f.rows if vals[0] == 1]
    off = [
        minterm_to_cube(BitVec(f.n, v))
        for v in range(1 << f.n)
        if values.get(v, (0,))[0] == 0
    ]
    dc = [minterm_to_cube(m) for m, vals in f.rows if vals[0] is None]
    return LogicFunction(f.n, tuple(on), tuple(off), tuple(dc), name=f.name)


def reference_best_pi(minterm: BitVec, off) -> Cube:
    pis = generate_spi(minterm, off)
    return min(pis, key=lambda c: (c.literal_count, cube_text(c)))


def reference_edsa_minimize(f: MultiFunction) -> list[TaggedCube]:
    if f.m == 1:
        result = direct_cover(reference_single_output_function(f))
        return [TaggedCube(c, frozenset({0})) for c in result.cubes]
    if not any(v == 1 for _, values in f.rows for v in values):
        raise EmptyOnset("no output is ever true")
    covered: set[tuple[int, int]] = set()
    committed: list[TaggedCube] = []
    off_by_tag: dict[frozenset[int], list[Cube]] = {}

    def off_of(tag: frozenset[int]) -> list[Cube]:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = reference_subfunction_off(tag, f)
        return off

    rows = Slices.of_minterms([m.value for m, _ in f.rows], f.n)

    def commit(cube: Cube, tag: frozenset[int]) -> None:
        tc = TaggedCube(cube, tag)
        if tc not in committed:
            committed.append(tc)
        for m, values in mask_members(rows.mask_of(cube), f.rows):
            for j in tag:
                if values[j] == 1:
                    covered.add((m.value, j))

    while True:
        tags = reference_current_tags(f, covered)
        if not tags:
            break
        origin_value = min(tags, key=lambda v: (len(tags[v]), v))
        origin = BitVec(f.n, origin_value)
        tag = tags[origin_value]
        pis = generate_spi(origin, off_of(tag))
        universe = [v for v in sorted(tags) if tag <= tags[v]]
        sliced = Slices.of_minterms(universe, f.n)
        candidates = [(pi, sliced.mask_of(pi)) for pi in pis]
        restricted = [mask.value for _, mask in candidates]
        dom = find_dominant(restricted)
        if dom is not None or len(candidates) == 1:
            commit(candidates[dom if dom is not None else 0][0], tag)
            continue
        union = 0
        inter = (1 << len(universe)) - 1
        for r in restricted:
            union |= r
            inter &= r
        width = len(universe)
        neighbor_values = [
            universe[i]
            for i in range(width)
            if (union & ~inter) >> (width - 1 - i) & 1
        ]
        best_by_neighbor = {
            nv: reference_best_pi(BitVec(f.n, nv), off_of(tags[nv]))
            for nv in neighbor_values
        }

        def score(item):
            cube, mask = item
            survivors = [nv for nv in neighbor_values if not cube.covers_value(nv)]
            if survivors:
                quality = min(best_by_neighbor[nv].literal_count for nv in survivors)
            else:
                quality = math.inf
            return (quality, -mask.popcount, cube_text(cube))

        winner = min(candidates, key=score)
        commit(winner[0], tag)
        survivors = [nv for nv in neighbor_values if not winner[0].covers_value(nv)]
        if survivors:
            best_nv = min(
                survivors,
                key=lambda nv: (best_by_neighbor[nv].literal_count, nv),
            )
            commit(best_by_neighbor[best_nv], tags[best_nv])
    return committed


def reference_verify_multi(cover, f: MultiFunction) -> MultiCoverReport:
    """The three tagged-cover checks, one minterm at a time."""
    n = f.n
    values = {m.value: vals for m, vals in f.rows}

    def is_off(tag, v: int) -> bool:
        vals = values.get(v)
        return vals is None or any(vals[j] == 0 for j in tag)

    for tc in cover:
        if tc.cube.width != n:
            raise ValueError(f"width mismatch: {tc.cube.width} vs {n}")
    missing = [
        (BitVec(n, v), j)
        for j in range(f.m)
        for v in range(1 << n)
        if v in values
        and values[v][j] == 1
        and not any(j in tc.tag and tc.cube.covers_value(v) for tc in cover)
    ]
    off_conflicts = [
        (tc, BitVec(n, v))
        for tc in cover
        for v in range(1 << n)
        if tc.cube.covers_value(v) and is_off(tc.tag, v)
    ]
    removable = []
    for tc in cover:
        for pos in range(n):
            if tc.cube.specified_mask >> pos & 1:
                raised = tc.cube.raise_literal(pos)
                if not any(
                    raised.covers_value(v) and is_off(tc.tag, v) for v in range(1 << n)
                ):
                    removable.append((tc, n - 1 - pos))
    return MultiCoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))


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
