"""Multi-output minimization over tagged minterms.

A true minterm carries a tag, the set of its outputs that are 1 and
not yet covered there; the tag's weight is its size.  The loop's state
is one 2^n-bit truth table per output, of the minterms still to be
covered for it, starting from the function's on tables: a minterm's tag
is the outputs whose table holds it, a candidate covers the points of
its cube in the AND of its tag's tables, and committing a cube clears
its points from those tables.

The loop always picks the uncovered minterm with the lightest current
tag (ties by minterm value), read from the tables: the minterms in
exactly k of them are those in at least k and not in k + 1, and the
origin is the lowest minterm of the first such set that is not empty.
It builds the joint sub-function of exactly those outputs (off-set:
minterms where the AND of the tagged output columns is 0, don't cares
counting as 1), and generates its prime implicants.  The off-set is the
OR of the tagged outputs' off tables, and is folded as a cube cover of
exactly those points, converted to int pairs once per tag: a cube's
difference indicator is the smallest of its minterms', so the primes
are those of the minterm off-set.  Candidates stay ``(left, right)``
pairs in cube-text order; only committed cubes become ``Cube``s.

A candidate dominates when its mask, the points it covers of the
minterms still to be covered for the whole tag, holds every other
candidate's strictly: exactly when it equals the union of the masks and
no other mask does.  When no candidate dominates, the decision falls to
neighbor lookahead.  The neighbors of the origin are the minterms
covered by some candidate but not all of them.  Committing a candidate
consumes the neighbors it covers; each stranded neighbor still offers
its own joint sub-function, whose best prime implicant we rate by
literal count (fewer literals, bigger cube, better).  The candidate
whose surviving neighbor offers the best such implicant wins, and that
neighbor's implicant is committed alongside it, carrying the neighbor's
possibly larger tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitcube import (
    BitVec,
    Cube,
    cube_points,
    cube_text,
    minterm_to_cube,
    raisable_literals,
    set_bits,
    table_cover,
)
from .cover import CoverReport
# coverage_mask and generate_spi stay importable here: perfbench/tracing.py
# wraps them by name
from .cover import coverage_mask  # noqa: F401
from .errors import EmptyOnset
from .pi_gen import generate_spi, prime_pairs  # noqa: F401
from .pla_io import MultiFunction
from .reduced_offset import OffPairs


@dataclass(frozen=True)
class TaggedCube:
    cube: Cube
    tag: frozenset[int]

    def __str__(self) -> str:
        subs = ",".join(str(j) for j in sorted(self.tag))
        return f"{cube_text(self.cube)}_{{{subs}}}"


def _joint(tag: Iterable[int], columns: Sequence[int]) -> int:
    """OR of the tagged columns."""
    points = 0
    for j in tag:
        points |= columns[j]
    return points


def subfunction_off(tag: "frozenset[int] | set[int]", f: MultiFunction) -> list[Cube]:
    """Off-set of the joint sub-function of the tagged outputs, as minterms
    in ascending order.

    A minterm is off when ANDing its tagged output columns gives 0; a
    don't care counts as 1 and never forces a minterm off.
    """
    if not tag:
        raise ValueError("empty output tag")
    off = _joint(tag, f.off)
    return [minterm_to_cube(BitVec(f.n, v)) for v in set_bits(off)]


def _literals(pair: tuple[int, int]) -> int:
    left, right = pair
    return (left ^ right).bit_count()


def _best_pi(minterm: BitVec, off: OffPairs) -> tuple[int, int]:
    """The prime covering ``minterm`` with the fewest literals, ties to
    the smallest cube text."""
    return min(prime_pairs(minterm, off), key=_literals)


def _lightest(live: Sequence[int]) -> int | None:
    """The minterm held by the fewest of the tables, ties to the smallest
    value; None when every table is empty."""
    m = len(live)
    # reach[k]: the minterms in at least k of the tables read so far
    reach = [-1] + [0] * (m + 1)
    for i, points in enumerate(live, 1):
        for k in range(i, 0, -1):
            reach[k] |= reach[k - 1] & points
    for k in range(1, m + 1):
        exact = reach[k] & ~reach[k + 1]
        if exact:
            return (exact & -exact).bit_length() - 1
    return None


def edsa_minimize(f: MultiFunction) -> list[TaggedCube]:
    """Cover every tagged minterm for every output in its tag."""
    n = f.n
    off_columns = f.off
    # per output, the truth table of the minterms still to be covered for
    # it; a minterm's current tag is the outputs whose table holds it
    live = list(f.on)

    def tag_of(v: int) -> frozenset[int]:
        return frozenset(j for j, points in enumerate(live) if points >> v & 1)

    if not any(live):
        raise EmptyOnset("no output is ever true")
    # (left, right) pair and tag of each committed cube, in commit order
    committed: dict[tuple[tuple[int, int], frozenset[int]], None] = {}
    # tags recur across origins; each joint off-set is built once
    off_by_tag: dict[frozenset[int], OffPairs] = {}

    def off_of(tag: frozenset[int]) -> OffPairs:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = OffPairs(table_cover(_joint(tag, off_columns), n))
        return off

    def commit(pair: tuple[int, int], tag: frozenset[int]) -> None:
        committed[pair, tag] = None
        hit = cube_points(*pair)
        for j in tag:
            live[j] &= ~hit

    while (origin_value := _lightest(live)) is not None:
        tag = tag_of(origin_value)
        pis = prime_pairs(BitVec(n, origin_value), off_of(tag))
        # the minterms still to be covered for every output of the tag
        universe = -1
        for j in tag:
            universe &= live[j]
        masks = [cube_points(left, right) & universe for left, right in pis]
        union = 0
        inter = universe
        for r in masks:
            union |= r
            inter &= r
        # the dominant candidate: its mask alone is the union
        if masks.count(union) == 1:
            commit(pis[masks.index(union)], tag)
            continue
        # the neighbours: minterms some candidates cover and others do not
        edge = union & ~inter
        best_by_neighbor = {
            nv: _best_pi(BitVec(n, nv), off_of(tag_of(nv))) for nv in set_bits(edge)
        }

        def score(i: int) -> tuple[float, int]:
            quality = min(
                (_literals(best_by_neighbor[nv]) for nv in set_bits(edge & ~masks[i])),
                default=math.inf,
            )
            return (quality, -masks[i].bit_count())

        # the first best candidate has the smallest cube text
        i = min(range(len(pis)), key=score)
        commit(pis[i], tag)
        stranded = set_bits(edge & ~masks[i])
        if stranded:
            best_nv = min(stranded, key=lambda nv: (_literals(best_by_neighbor[nv]), nv))
            commit(best_by_neighbor[best_nv], tag_of(best_nv))
    return [
        TaggedCube(Cube(BitVec(n, left), BitVec(n, right)), tag)
        for (left, right), tag in committed
    ]


def verify_multi(cover: Sequence[TaggedCube], f: MultiFunction) -> CoverReport:
    """Check a tagged cover against the output tables.

    ``missing`` lists the on ``(minterm, output)`` pairs, as ``(BitVec,
    int)``, that no cube tagged with that output covers, by output and
    then minterm; ``off_conflicts`` each ``(TaggedCube, BitVec)`` pair
    of a cube and an off point of its tag's joint off-set inside it; and
    ``removable_literals`` each ``(TaggedCube, position)`` whose literal
    can be raised while the cube stays clear of that joint off-set, i.e.
    each cube that is not prime.  Raises ``ValueError`` for a cube of
    another width than ``f.n``, for a tag naming an output outside
    ``range(f.m)`` and for an empty tag, in ``write_pla``'s wording.
    """
    n = f.n
    off_columns = f.off
    covered = [0] * f.m
    off_conflicts: list[tuple[TaggedCube, BitVec]] = []
    removable: list[tuple[TaggedCube, int]] = []
    for tc in cover:
        c = tc.cube
        if c.width != n:
            raise ValueError(f"width mismatch: {c.width} vs {n}")
        if not all(0 <= j < f.m for j in tc.tag):
            raise ValueError(f"{tc} names an output outside the {f.m} outputs")
        if not tc.tag:
            raise ValueError(f"{tc} names no output")
        points = cube_points(c.left.value, c.right.value)
        off = _joint(tc.tag, off_columns)
        off_conflicts.extend((tc, BitVec(n, v)) for v in set_bits(points & off))
        for j in tc.tag:
            covered[j] |= points
        removable.extend(
            (tc, pos)
            for pos in raisable_literals(c.left.value, c.right.value, points, off, n)
        )
    missing = [
        (BitVec(n, v), j)
        for j, on in enumerate(f.on)
        for v in set_bits(on & ~covered[j])
    ]
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
