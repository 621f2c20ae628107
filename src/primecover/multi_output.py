"""Multi-output minimization over tagged minterms.

A true minterm carries a tag, the set of its outputs that are 1 and
not yet covered there, as an int with bit j for output j; the tag's
weight is its size.  The loop's state is one 2^n-bit truth table per
output, of the minterms still to be covered for it, starting from the
function's on tables: a minterm's tag is the outputs whose table holds
it, a candidate covers the points of its cube in the AND of its tag's
tables, and committing a cube clears its points from those tables.

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
are those of the minterm off-set.  Candidates are ``(left, right)``
pairs in cube-text order, and a committed cube is its pair and tag.

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
from collections.abc import Sequence

from .bitcube import (
    BitVec,
    Cube,
    FrozenRecord,
    check_pairs,
    cube_points,
    minterm_to_cube,
    pair_text,
    set_bits,
    table_cover,
)
from .cover import CoverReport, _check_tables, _joint
# coverage_mask and generate_spi stay importable here: perfbench/tracing.py
# wraps them by name
from .cover import coverage_mask  # noqa: F401
from .errors import EmptyOnset
from .pi_gen import generate_spi, prime_pairs  # noqa: F401
from .pla_io import MultiFunction
from .reduced_offset import OffPairs


class TaggedCube(FrozenRecord):
    """One cube of a multi-output cover: its ``(left, right)`` pair and
    its tag, an int whose bit j means output j."""

    __slots__ = ("pair", "tag")

    def __init__(self, pair: tuple[int, int], tag: int) -> None:
        self._assign(pair, tag)

    def __str__(self) -> str:
        subs = str(self.tag) if self.tag < 0 else ",".join(map(str, set_bits(self.tag)))
        return f"{pair_text(*self.pair)}_{{{subs}}}"

    def check(self, n: int, m: int) -> None:
        """Raise ``ValueError`` unless this is a cube over n inputs for m outputs."""
        check_pairs((self.pair,), n)
        if self.tag < 0 or self.tag >> m:
            raise ValueError(f"{self} names an output outside the {m} outputs")
        if not self.tag:
            raise ValueError(f"{self} names no output")


def subfunction_off(tag: "frozenset[int] | set[int]", f: MultiFunction) -> list[Cube]:
    """Off-set of the joint sub-function of the tagged outputs, as minterms
    in ascending order.

    A minterm is off when ANDing its tagged output columns gives 0; a
    don't care counts as 1 and never forces a minterm off.
    """
    if not tag:
        raise ValueError("empty output tag")
    off = _joint(sum(1 << j for j in tag), f.off)
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
    """Cover every tagged minterm for every output in its tag, one
    ``TaggedCube`` per committed pair and tag, in commit order."""
    n = f.n
    off_columns = f.off
    # per output, the truth table of the minterms still to be covered for
    # it; a minterm's current tag is the outputs whose table holds it
    live = list(f.on)

    def tag_of(v: int) -> int:
        return sum((points >> v & 1) << j for j, points in enumerate(live))

    if not any(live):
        raise EmptyOnset("no output is ever true")
    # (left, right) pair and tag of each committed cube, in commit order
    committed: dict[tuple[tuple[int, int], int], None] = {}
    # tags recur across origins; each joint off-set is built once
    off_by_tag: dict[int, OffPairs] = {}

    def off_of(tag: int) -> OffPairs:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = OffPairs(table_cover(_joint(tag, off_columns), n))
        return off

    def commit(pair: tuple[int, int], tag: int) -> None:
        committed[pair, tag] = None
        hit = cube_points(*pair)
        for j in set_bits(tag):
            live[j] &= ~hit

    while (origin_value := _lightest(live)) is not None:
        tag = tag_of(origin_value)
        pis = prime_pairs(BitVec(n, origin_value), off_of(tag))
        # the minterms still to be covered for every output of the tag
        universe = -1
        for j in set_bits(tag):
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
    return [TaggedCube(pair, tag) for pair, tag in committed]


def verify_multi(cover: Sequence[TaggedCube], f: MultiFunction) -> CoverReport:
    """Check a tagged cover against the output tables with the table
    checks of ``verify_cover``.

    ``missing`` lists the on ``(minterm, output)`` pairs, as ``(BitVec,
    int)``, that no cube tagged with that output covers, by output and
    then minterm; ``off_conflicts`` each ``(TaggedCube, BitVec)`` pair
    of a cube and an off point of its tag's joint off-set inside it; and
    ``removable_literals`` each ``(TaggedCube, position)`` whose literal
    can be raised while the cube stays clear of that joint off-set.
    Raises ``ValueError`` where ``TaggedCube.check`` does.
    """
    n = f.n
    for tc in cover:
        tc.check(n, f.m)
    items = ((tc.pair, tc.tag) for tc in cover)
    uncovered, conflicts, raised = _check_tables(items, f.on, f.off, n)
    missing = [(BitVec(n, v), j) for j, points in enumerate(uncovered) for v in set_bits(points)]
    off_conflicts = [(cover[i], BitVec(n, v)) for i, hit in conflicts for v in set_bits(hit)]
    removable = [(cover[i], pos) for i, pos in raised]
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
