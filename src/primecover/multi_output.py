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
    live = {m.value for m, vals in f.rows if all(vals[j] != 0 for j in tag)}
    return [minterm_to_cube(BitVec(f.n, v)) for v in range(1 << f.n) if v not in live]


def neighbors(m1: BitVec, m2: BitVec) -> BitVec:
    """Symmetric difference of two coverage masks."""
    return m1 ^ m2


def _best_pi(minterm: BitVec, off: Sequence[Cube]) -> Cube:
    pis = generate_spi(minterm, off)
    return min(pis, key=lambda c: (c.literal_count, cube_text(c)))


def _single_output_function(f: MultiFunction) -> LogicFunction:
    on = [minterm_to_cube(m) for m, vals in f.rows if vals[0] == 1]
    off = subfunction_off(frozenset({0}), f)
    dc = [minterm_to_cube(m) for m, vals in f.rows if vals[0] is None]
    return LogicFunction(f.n, tuple(on), tuple(off), tuple(dc), name=f.name)


def edsa_minimize(f: MultiFunction) -> list[TaggedCube]:
    """Cover every tagged minterm for every output in its tag."""
    if f.m == 1:
        # degenerate case: exactly the single-output direct cover
        result = direct_cover(_single_output_function(f))
        return [TaggedCube(c, frozenset({0})) for c in result.cubes]
    # minterm value -> the outputs of its row still to be covered
    tags = {t.minterm.value: t.tag for t in build_tagged(f)}
    if not tags:
        raise EmptyOnset("no output is ever true")
    committed: dict[TaggedCube, None] = {}
    # tags recur across origins; each joint off-set is built once
    off_by_tag: dict[frozenset[int], list[Cube]] = {}

    def off_of(tag: frozenset[int]) -> list[Cube]:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = subfunction_off(tag, f)
        return off

    tagged = list(tags)
    rows = Slices.of_minterms(tagged, f.n)

    def commit(cube: Cube, tag: frozenset[int]) -> None:
        committed[TaggedCube(cube, tag)] = None
        for v in mask_members(rows.mask_of(cube), tagged):
            if v in tags:
                rest = tags[v] - tag
                if rest:
                    tags[v] = rest
                else:
                    del tags[v]

    while tags:
        origin_value = min(tags, key=lambda v: (len(tags[v]), v))
        tag = tags[origin_value]
        pis = generate_spi(BitVec(f.n, origin_value), off_of(tag))
        universe = [v for v in sorted(tags) if tag <= tags[v]]
        sliced = Slices.of_minterms(universe, f.n)
        masks = [sliced.meets(pi.left.value, pi.right.value) for pi in pis]
        dom = find_dominant(masks)
        if dom is not None or len(pis) == 1:
            commit(pis[dom if dom is not None else 0], tag)
            continue
        width = len(universe)
        union = 0
        inter = (1 << width) - 1
        for r in masks:
            union |= r
            inter &= r
        # the neighbours: minterms some candidates cover and others do not
        edge = union & ~inter
        best_by_neighbor = {
            nv: _best_pi(BitVec(f.n, nv), off_of(tags[nv]))
            for nv in mask_members(BitVec(width, edge), universe)
        }

        def survivors(mask: int) -> list[int]:
            return mask_members(BitVec(width, edge & ~mask), universe)

        def score(item: tuple[Cube, int]) -> tuple[float, int, str]:
            cube, mask = item
            quality = min(
                (best_by_neighbor[nv].literal_count for nv in survivors(mask)),
                default=math.inf,
            )
            return (quality, -mask.bit_count(), cube_text(cube))

        cube, mask = min(zip(pis, masks), key=score)
        commit(cube, tag)
        stranded = survivors(mask)
        if stranded:
            best_nv = min(
                stranded,
                key=lambda nv: (best_by_neighbor[nv].literal_count, nv),
            )
            commit(best_by_neighbor[best_nv], tags[best_nv])
    return list(committed)


def per_output_cover(
    cover: Sequence[TaggedCube], output: int
) -> list[Cube]:
    return [tc.cube for tc in cover if output in tc.tag]
