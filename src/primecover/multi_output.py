"""Multi-output minimization over tagged minterms.

A true minterm carries a tag, the set of outputs it turns on; the tag's
weight is its size.  The loop always picks the uncovered minterm with
the lightest current tag (ties by minterm value), builds the joint
sub-function of exactly those outputs (off-set: minterms where the AND
of the tagged output columns is 0, don't cares counting as 1), and
generates its prime implicants.

When no candidate dominates, the decision falls to neighbor lookahead.
The neighbors of the origin are the minterms covered by some candidate
but not all of them.  Committing a candidate consumes the neighbors it
covers; each stranded neighbor still offers its own joint sub-function,
whose best prime implicant we rate by literal count (fewer literals,
bigger cube, better).  The candidate whose surviving neighbor offers
the best such implicant wins, and that neighbor's implicant is
committed alongside it, carrying the neighbor's possibly larger tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bitcube import BitVec, Cube, Slices, cube_text, minterm_to_cube
# coverage_mask stays importable here: perfbench/tracing.py wraps it by name
from .cover import coverage_mask, direct_cover, find_dominant, mask_members  # noqa: F401
from .errors import EmptyOnset
from .pi_gen import generate_spi
from .pla_io import LogicFunction, MultiFunction


@dataclass(frozen=True)
class TaggedMinterm:
    minterm: BitVec
    tag: frozenset[int]

    @property
    def weight(self) -> int:
        return len(self.tag)


@dataclass(frozen=True)
class TaggedCube:
    cube: Cube
    tag: frozenset[int]

    def __str__(self) -> str:
        subs = ",".join(str(j) for j in sorted(self.tag))
        return f"{cube_text(self.cube)}_{{{subs}}}"


def build_tagged(f: MultiFunction) -> list[TaggedMinterm]:
    """One tagged minterm per row with at least one true output, sorted by
    ascending weight and then by minterm value."""
    out = [
        TaggedMinterm(m, frozenset(j for j, v in enumerate(values) if v == 1))
        for m, values in f.rows
        if any(v == 1 for v in values)
    ]
    out.sort(key=lambda t: (t.weight, t.minterm.value))
    return out


def subfunction_off(tag: "frozenset[int] | set[int]", f: MultiFunction) -> list[Cube]:
    """Off-set of the joint sub-function of the tagged outputs, as minterms.

    A minterm is off when ANDing its tagged output columns gives 0; a
    don't care counts as 1 and never forces a minterm off.
    """
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


def neighbors(m1: BitVec, m2: BitVec) -> BitVec:
    """Symmetric difference of two coverage masks."""
    return m1 ^ m2


def _current_tags(
    f: MultiFunction, covered: set[tuple[int, int]]
) -> dict[int, frozenset[int]]:
    tags: dict[int, frozenset[int]] = {}
    for m, values in f.rows:
        cur = frozenset(
            j for j, v in enumerate(values) if v == 1 and (m.value, j) not in covered
        )
        if cur:
            tags[m.value] = cur
    return tags


def _best_pi(minterm: BitVec, off: Sequence[Cube]) -> Cube:
    pis = generate_spi(minterm, off)
    return min(pis, key=lambda c: (c.literal_count, cube_text(c)))


def _single_output_function(f: MultiFunction) -> LogicFunction:
    values = {m.value: vals for m, vals in f.rows}
    on = [minterm_to_cube(m) for m, vals in f.rows if vals[0] == 1]
    off = [
        minterm_to_cube(BitVec(f.n, v))
        for v in range(1 << f.n)
        if values.get(v, (0,))[0] == 0
    ]
    dc = [minterm_to_cube(m) for m, vals in f.rows if vals[0] is None]
    return LogicFunction(f.n, tuple(on), tuple(off), tuple(dc), name=f.name)


def edsa_minimize(f: MultiFunction) -> list[TaggedCube]:
    """Cover every tagged minterm for every output in its tag."""
    if f.m == 1:
        # degenerate case: exactly the single-output direct cover
        result = direct_cover(_single_output_function(f))
        return [TaggedCube(c, frozenset({0})) for c in result.cubes]
    if not any(v == 1 for _, values in f.rows for v in values):
        raise EmptyOnset("no output is ever true")
    covered: set[tuple[int, int]] = set()
    committed: list[TaggedCube] = []
    # tags recur across origins; each joint off-set is built once
    off_by_tag: dict[frozenset[int], list[Cube]] = {}

    def off_of(tag: frozenset[int]) -> list[Cube]:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = subfunction_off(tag, f)
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
        tags = _current_tags(f, covered)
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
            nv: _best_pi(BitVec(f.n, nv), off_of(tags[nv])) for nv in neighbor_values
        }

        def score(item: tuple[Cube, BitVec]) -> tuple[float, int, str]:
            cube, mask = item
            survivors = [nv for nv in neighbor_values if not cube.covers_value(nv)]
            if survivors:
                quality = min(best_by_neighbor[nv].literal_count for nv in survivors)
            else:
                quality = math.inf
            return (quality, -mask.popcount, cube_text(cube))

        winner = min(candidates, key=score)
        commit(winner[0], tag)
        survivors = [
            nv for nv in neighbor_values if not winner[0].covers_value(nv)
        ]
        if survivors:
            best_nv = min(
                survivors,
                key=lambda nv: (best_by_neighbor[nv].literal_count, nv),
            )
            commit(best_by_neighbor[best_nv], tags[best_nv])
    return committed


def per_output_cover(
    cover: Sequence[TaggedCube], output: int
) -> list[Cube]:
    return [tc.cube for tc in cover if output in tc.tag]
