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
OR of the tagged outputs' off tables, built with the tag's outputs once
per tag and call, on the first origin or neighbour that needs it.  An
origin reads its primes straight from that table with ``table_pairs``,
the corners ``prime_corners`` sets, with no off-cover, no fold and no
clause expansion.  Candidates are ``(left, right)`` pairs in cube-text
order, and the cover is the list of committed ``(pair, tag)`` items,
the form ``bitcube.check_items`` guards and ``bitcube.tagged_text``
renders.  Committing an item clears its points from its tag's tables,
so no item is committed twice.

A candidate dominates when its mask, the points it covers of the
minterms still to be covered for the whole tag, holds every other
candidate's strictly: exactly when it equals the union of the masks and
no other mask does.  When no candidate dominates, the decision falls to
neighbor lookahead.  The neighbors of the origin are the minterms
covered by some candidate but not all of them.  Committing a candidate
consumes the neighbors it covers; each stranded neighbor still offers
its own joint sub-function, whose best prime implicant we rate by
literal count (fewer literals, bigger cube, better).  A neighbor's
primes are read the same way, from its tag's joint off table by
``prime_corners``.  The candidate whose surviving neighbor
offers the best such implicant wins, and that neighbor's implicant is
committed alongside it, carrying the neighbor's possibly larger tag.
The neighbors are grouped into one table per literal count of their
best implicant, so a candidate's rating is the first such level its
mask does not hold, one AND per level, and the neighbor committed is
the lowest bit that level leaves.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .bitcube import BitVec, Cube, check_items, cube_points, minterm_to_cube, set_bits
from .cover import CoverReport, _check_tables, _joint, _TagTables
# coverage_mask and generate_spi stay importable here: perfbench/tracing.py
# wraps them by name
from .cover import coverage_mask  # noqa: F401
from .errors import EmptyOnset
from .pi_gen import generate_spi  # noqa: F401
from .pi_gen import prime_corners, table_pairs
from .pla_io import MultiFunction


def subfunction_off(tag: "frozenset[int] | set[int]", f: MultiFunction) -> list[Cube]:
    """Off-set of the joint sub-function of the tagged outputs, as minterms
    in ascending order.

    A minterm is off when ANDing its tagged output columns gives 0; a
    don't care counts as 1 and never forces a minterm off.  Raises
    ``ValueError`` for an empty tag or one naming an output outside
    ``range(f.m)``.
    """
    if not tag:
        raise ValueError("empty output tag")
    for j in sorted(tag):
        if not 0 <= j < f.m:
            raise ValueError(f"output {j} is outside the {f.m} outputs")
    off = _joint(sum(1 << j for j in tag), f.off)
    return [minterm_to_cube(BitVec(f.n, v)) for v in set_bits(off)]


def _best_pi(v: int, off: int, n: int) -> tuple[int, tuple[int, int]]:
    """The prime covering the minterm of value ``v`` with the fewest
    literals, ties to the smallest cube text, as that literal count and
    its ``(left, right)`` pair; ``off`` is the 2^n-bit off table, which
    must not hold ``v``.

    Each corner y that ``prime_corners`` sets is the prime with free
    positions ``v ^ y``: the most free positions give the fewest
    literals, and through one minterm the smaller free mask is the
    smaller cube text."""
    most = best_free = -1
    for y in set_bits(prime_corners(v, off, n)):
        free = v ^ y
        count = free.bit_count()
        if count > most or count == most and free < best_free:
            most, best_free = count, free
    return n - most, ((((1 << n) - 1) ^ v) | best_free, v | best_free)


def _lightest(live: Sequence[int]) -> int | None:
    """The minterm held by the fewest of the tables, ties to the smallest
    value; None when every table is empty.

    Most origins are held by one table: one fold into the minterms in at
    least one table and those in at least two, two operations per table,
    finds them, and only when none is held exactly once are the levels
    of the other weights rebuilt."""
    ones = twos = 0
    for points in live:
        twos |= ones & points
        ones |= points
    once = ones ^ twos
    if once:
        return (once & -once).bit_length() - 1
    if not ones:
        return None
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


def edsa_minimize(f: MultiFunction) -> list[tuple[tuple[int, int], int]]:
    """Cover every tagged minterm for every output in its tag: the
    committed ``(pair, tag)`` items, in commit order."""
    n = f.n
    # per output, the truth table of the minterms still to be covered for
    # it; a minterm's current tag is the outputs whose table holds it
    live = list(f.on)
    outputs = range(len(live))

    def tag_of(v: int) -> int:
        tag = 0
        for j in outputs:
            if live[j] >> v & 1:
                tag |= 1 << j
        return tag

    if not any(live):
        raise EmptyOnset("no output is ever true")
    committed: list[tuple[tuple[int, int], int]] = []
    # tags recur across origins and neighbours: per tag, its outputs and
    # its joint off table, each built once
    per_tag = _TagTables(f.off)

    def commit(pair: tuple[int, int], tag: int) -> None:
        committed.append((pair, tag))
        keep = ~cube_points(*pair)
        for j in per_tag[tag][0]:
            live[j] &= keep

    while (origin_value := _lightest(live)) is not None:
        tag = tag_of(origin_value)
        pis = table_pairs(BitVec(n, origin_value), per_tag[tag][1])
        # the minterms still to be covered for every output of the tag
        universe = -1
        for j in per_tag[tag][0]:
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
        # the neighbours, minterms some candidates cover and others do
        # not, each with its best prime and, per literal count ascending,
        # the neighbours whose best prime has that many literals
        best_by_neighbor = {}
        by_literals: dict[int, int] = {}
        for nv in set_bits(union & ~inter):
            count, best_by_neighbor[nv] = _best_pi(nv, per_tag[tag_of(nv)][1], n)
            by_literals[count] = by_literals.get(count, 0) | 1 << nv
        levels = sorted(by_literals.items())
        # a candidate's quality is the fewest literals of a neighbour it
        # strands, the first level its mask does not hold; the first best
        # candidate has the smallest cube text
        best_key = None
        for k, mask in enumerate(masks):
            quality, stranded = math.inf, 0
            for count, level in levels:
                stranded = level & ~mask
                if stranded:
                    quality = count
                    break
            key = (quality, -mask.bit_count())
            if best_key is None or key < best_key:
                best_key, i, strands = key, k, stranded
        commit(pis[i], tag)
        # the stranded neighbour with the fewest literals, ties to the
        # smallest value: the lowest the winner strands at its quality
        if strands:
            nv = (strands & -strands).bit_length() - 1
            commit(best_by_neighbor[nv], tag_of(nv))
    return committed


def verify_multi(cover: Sequence[tuple[tuple[int, int], int]], f: MultiFunction) -> CoverReport:
    """Check a cover of ``(pair, tag)`` items against the output tables
    with the table checks of ``verify_cover``.

    ``missing`` lists the on ``(minterm, output)`` pairs, as ``(BitVec,
    int)``, that no item tagged with that output covers, by output and
    then minterm; ``off_conflicts`` each ``(item, BitVec)`` pair of an
    item and an off point of its tag's joint off-set inside its cube;
    and ``removable_literals`` each ``(item, position)`` whose literal
    can be raised while the cube stays clear of that joint off-set.
    Raises ``ValueError`` where ``bitcube.check_items`` does.
    """
    n = f.n
    check_items(cover, n, f.m)
    uncovered, conflicts, raised = _check_tables(cover, f.on, f.off, n)
    missing = [(BitVec(n, v), j) for j, points in enumerate(uncovered) for v in set_bits(points)]
    off_conflicts = [(cover[i], BitVec(n, v)) for i, hit in conflicts for v in set_bits(hit)]
    removable = [(cover[i], pos) for i, pos in raised]
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
