"""Multi-output minimization over tagged minterms.

A true minterm carries a tag, the set of its outputs that are 1 and
not yet covered there, as an int with bit j for output j; the tag's
weight is its size.  The loop's state is one 2^n-bit truth table per
output, of the minterms still to be covered for it, starting from the
function's on tables: a minterm's tag is the outputs whose table holds
it, a candidate covers the points of its cube in the AND of its tag's
tables, and committing a cube clears its points from those tables, so
no item is committed twice.

The origin is the uncovered minterm with the lightest current tag,
ties to the smallest value.  Its candidates are the primes of the joint
sub-function of its tag, whose off-set, the OR of the tagged outputs'
off tables (a don't care counts as 1), is built once per tag and call.
``table_pairs`` reads them from that table in cube-text order, with no
off-cover, no fold and no clause expansion; an origin with one prime
commits it at once.  The cover is the list of committed ``(pair, tag)``
items, the form ``bitcube.check_items`` guards.

A candidate dominates when its mask, the points it covers of the
minterms still to be covered for the whole tag, holds every other
candidate's strictly: exactly when it equals the union of the masks and
no other mask does.  Otherwise neighbour lookahead decides.  The
neighbours are the minterms some candidates cover and others do not;
each offers the fewest-literal prime of its own tag's sub-function, the
lowest free mask of the heaviest weight layer its ``implicant_table``
meets.  The candidate stranding the neighbour with the best such prime
wins, and that prime is committed alongside it with the neighbour's
tag.  The neighbours are grouped into one table per literal count, so
a candidate's rating is the first level its mask does not hold, one AND
per level, and the neighbour committed is the lowest bit that level
leaves.
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
from .pi_gen import _MASKS, implicant_table, table_pairs
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
    must not hold ``v``.  The implicants with the most free positions,
    the heaviest weight layer ``implicant_table`` meets, are prime, and
    through one minterm the lowest free mask is the smallest cube text."""
    good = implicant_table(v, off, n)
    for count, layer in enumerate(_MASKS[n][2]):
        frees = good & layer
        if frees:
            free = (frees & -frees).bit_length() - 1
            return count, ((((1 << n) - 1) ^ v) | free, v | free)


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
        # ANDing one bit reads a table's low digits; a shift would copy it
        bit = 1 << v
        tag = 0
        for j in outputs:
            if live[j] & bit:
                tag |= 1 << j
        return tag

    if not any(live):
        raise EmptyOnset("no output is ever true")
    committed: list[tuple[tuple[int, int], int]] = []
    # tags recur across origins and neighbours: per tag, its outputs and
    # its joint off table, each built once
    per_tag = _TagTables(f.off)

    def commit(pair: tuple[int, int], tag: int, points: int) -> None:
        # points: the pair's cube_points, cleared from the tag's tables
        committed.append((pair, tag))
        keep = ~points
        for j in per_tag[tag][0]:
            live[j] &= keep

    while (origin_value := _lightest(live)) is not None:
        tag = tag_of(origin_value)
        outputs_of_tag, tag_off = per_tag[tag]
        pis = table_pairs(BitVec(n, origin_value), tag_off)
        if len(pis) == 1:
            # one prime covers the origin: it is committed whatever it holds
            commit(pis[0], tag, cube_points(*pis[0]))
            continue
        # the minterms still to be covered for every output of the tag
        universe = -1
        for j in outputs_of_tag:
            universe &= live[j]
        points = [cube_points(left, right) for left, right in pis]
        masks = [r & universe for r in points]
        union = 0
        inter = universe
        for r in masks:
            union |= r
            inter &= r
        # the dominant candidate: its mask alone is the union
        if masks.count(union) == 1:
            i = masks.index(union)
            commit(pis[i], tag, points[i])
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
        commit(pis[i], tag, points[i])
        # the stranded neighbour with the fewest literals, ties to the
        # smallest value: the lowest the winner strands at its quality
        if strands:
            nv = (strands & -strands).bit_length() - 1
            pair = best_by_neighbor[nv]
            commit(pair, tag_of(nv), cube_points(*pair))
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
