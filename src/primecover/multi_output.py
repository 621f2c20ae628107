"""Multi-output minimization over tagged minterms.

A true minterm carries a tag, the set of outputs it turns on; the tag's
weight is its size.  The loop always picks the uncovered minterm with
the lightest current tag (ties by minterm value), builds the joint
sub-function of exactly those outputs (off-set: minterms where the AND
of the tagged output columns is 0, don't cares counting as 1), and
generates its prime implicants.  The off-set is the OR of the tagged
outputs' 0-columns, each a 2^n-bit truth table built once per call, and
is folded as a cube cover of exactly those points, converted to int
pairs once per tag: a cube's difference indicator is the smallest of its
minterms', so the primes are those of the minterm off-set.  Candidates
stay ``(left, right)`` pairs in cube-text order; only committed cubes
become ``Cube``s.

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

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .bitcube import (
    BitVec,
    Cube,
    Slices,
    cube_points,
    cube_text,
    minterm_to_cube,
    table_cover,
)
# coverage_mask and generate_spi stay importable here: perfbench/tracing.py
# wraps them by name
from .cover import coverage_mask, direct_cover, find_dominant, mask_members  # noqa: F401
from .errors import EmptyOnset
from .pi_gen import generate_spi, prime_pairs  # noqa: F401
from .pla_io import DEFAULT_COMPLEMENT_CAP, LogicFunction, MultiFunction
from .reduced_offset import OffPairs


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


def _columns(f: MultiFunction, value: int) -> list[int]:
    """Per output j, the 2^n-bit truth table of the minterms where output
    j is ``value``; a minterm without a row is 0 for every output."""
    if f.n > DEFAULT_COMPLEMENT_CAP:
        raise ValueError(
            f"{f.n} inputs exceed the cap of {DEFAULT_COMPLEMENT_CAP} "
            "on 2^n-bit output tables"
        )
    size = 1 << f.n
    out = []
    for j in range(f.m):
        # character size - 1 - v holds bit v
        table = bytearray(b"1" if value == 0 else b"0") * size
        for m, vals in f.rows:
            table[size - 1 - m.value] = 49 if vals[j] == value else 48
        out.append(int(table, 2))
    return out


def _joint(tag: "frozenset[int] | set[int]", columns: Sequence[int]) -> int:
    """OR of the tagged columns."""
    points = 0
    for j in tag:
        points |= columns[j]
    return points


def _ones(points: int) -> list[int]:
    """Values of the set bits, ascending."""
    return [v for v, ch in enumerate(reversed(f"{points:b}")) if ch == "1"]


def subfunction_off(tag: "frozenset[int] | set[int]", f: MultiFunction) -> list[Cube]:
    """Off-set of the joint sub-function of the tagged outputs, as minterms
    in ascending order.

    A minterm is off when ANDing its tagged output columns gives 0; a
    don't care counts as 1 and never forces a minterm off.
    """
    if not tag:
        raise ValueError("empty output tag")
    off = _joint(tag, _columns(f, 0))
    return [minterm_to_cube(BitVec(f.n, v)) for v in _ones(off)]


def neighbors(m1: BitVec, m2: BitVec) -> BitVec:
    """Symmetric difference of two coverage masks."""
    return m1 ^ m2


def _literals(pair: tuple[int, int]) -> int:
    left, right = pair
    return (left ^ right).bit_count()


def _best_pi(minterm: BitVec, off: OffPairs) -> tuple[int, int]:
    """The prime covering ``minterm`` with the fewest literals, ties to
    the smallest cube text."""
    return min(prime_pairs(minterm, off), key=_literals)


def _single_output_function(f: MultiFunction, off_columns: Sequence[int]) -> LogicFunction:
    n = f.n
    on = [minterm_to_cube(m) for m, vals in f.rows if vals[0] == 1]
    off = [
        Cube(BitVec(n, left), BitVec(n, right))
        for left, right in table_cover(off_columns[0], n)
    ]
    dc = [minterm_to_cube(m) for m, vals in f.rows if vals[0] is None]
    return LogicFunction(n, tuple(on), tuple(off), tuple(dc), name=f.name)


def edsa_minimize(f: MultiFunction) -> list[TaggedCube]:
    """Cover every tagged minterm for every output in its tag."""
    off_columns = _columns(f, 0)
    if f.m == 1:
        # degenerate case: exactly the single-output direct cover
        result = direct_cover(_single_output_function(f, off_columns))
        return [TaggedCube(c, frozenset({0})) for c in result.cubes]
    # minterm value -> the outputs of its row still to be covered
    tags = {t.minterm.value: t.tag for t in build_tagged(f)}
    if not tags:
        raise EmptyOnset("no output is ever true")
    n = f.n
    # (left, right) pair and tag of each committed cube, in commit order
    committed: dict[tuple[tuple[int, int], frozenset[int]], None] = {}
    # tags recur across origins; each joint off-set is built once
    off_by_tag: dict[frozenset[int], OffPairs] = {}

    def off_of(tag: frozenset[int]) -> OffPairs:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = OffPairs(table_cover(_joint(tag, off_columns), n))
        return off

    by_value = sorted(tags)
    rows = Slices.of_minterms(by_value, n)
    count = len(by_value)
    # per output, the index set (as in ``Slices``) of the rows still to be
    # covered for it; a tag's universe is the AND of its outputs' sets
    live = [0] * f.m
    for i, v in enumerate(by_value):
        for j in tags[v]:
            live[j] |= 1 << (count - 1 - i)
    # (weight, value) of every row, and a new entry whenever a row's tag
    # shrinks.  A row's lighter entry surfaces before its older ones, and
    # an origin always leaves ``tags``, so an entry at the top is stale
    # exactly when its row is gone
    heap = [(len(t), v) for v, t in tags.items()]
    heapq.heapify(heap)

    def commit(pair: tuple[int, int], tag: frozenset[int]) -> None:
        committed[pair, tag] = None
        hit = rows.meets(*pair)
        # the covered rows still to be covered for some output of the tag
        shrunk = 0
        for j in tag:
            shrunk |= live[j] & hit
            live[j] &= ~hit
        for v in mask_members(BitVec(count, shrunk), by_value):
            rest = tags[v] - tag
            if rest:
                tags[v] = rest
                heapq.heappush(heap, (len(rest), v))
            else:
                del tags[v]

    while tags:
        origin_value = heap[0][1]
        if origin_value not in tags:
            heapq.heappop(heap)
            continue
        tag = tags[origin_value]
        pis = prime_pairs(BitVec(n, origin_value), off_of(tag))
        # the rows still to be covered for every output of the tag; masks
        # are index sets of ``rows`` restricted to it
        universe = (1 << count) - 1
        for j in tag:
            universe &= live[j]
        masks = [rows.meets(left, right) & universe for left, right in pis]
        dom = find_dominant(masks)
        if dom is not None or len(pis) == 1:
            commit(pis[dom if dom is not None else 0], tag)
            continue
        union = 0
        inter = universe
        for r in masks:
            union |= r
            inter &= r
        # the neighbours: minterms some candidates cover and others do not
        edge = union & ~inter
        best_by_neighbor = {
            nv: _best_pi(BitVec(n, nv), off_of(tags[nv]))
            for nv in mask_members(BitVec(count, edge), by_value)
        }

        def survivors(mask: int) -> list[int]:
            return mask_members(BitVec(count, edge & ~mask), by_value)

        def score(i: int) -> tuple[float, int]:
            quality = min(
                (_literals(best_by_neighbor[nv]) for nv in survivors(masks[i])),
                default=math.inf,
            )
            return (quality, -masks[i].bit_count())

        # the first best candidate has the smallest cube text
        i = min(range(len(pis)), key=score)
        commit(pis[i], tag)
        stranded = survivors(masks[i])
        if stranded:
            best_nv = min(stranded, key=lambda nv: (_literals(best_by_neighbor[nv]), nv))
            commit(best_by_neighbor[best_nv], tags[best_nv])
    return [
        TaggedCube(Cube(BitVec(n, left), BitVec(n, right)), tag)
        for (left, right), tag in committed
    ]


def per_output_cover(
    cover: Sequence[TaggedCube], output: int
) -> list[Cube]:
    return [tc.cube for tc in cover if output in tc.tag]


class MultiCoverReport(NamedTuple):
    """Outcome of the three tagged-cover checks; violations are content,
    not errors.  Literal positions count from the most significant
    variable, as in ``CoverReport``."""

    missing: tuple[tuple[BitVec, int], ...]
    off_conflicts: tuple[tuple[TaggedCube, BitVec], ...]
    removable_literals: tuple[tuple[TaggedCube, int], ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.off_conflicts or self.removable_literals)


def verify_multi(cover: Sequence[TaggedCube], f: MultiFunction) -> MultiCoverReport:
    """Check a tagged cover against the output tables.

    ``missing`` lists the on (minterm, output) pairs no cube tagged with
    that output covers, by output and then minterm; ``off_conflicts``
    the off points of its tag's joint off-set inside each cube; and
    ``removable_literals`` each literal whose raising keeps the cube
    clear of that joint off-set, i.e. each cube that is not prime.
    """
    n = f.n
    off_columns = _columns(f, 0)
    covered = [0] * f.m
    off_conflicts: list[tuple[TaggedCube, BitVec]] = []
    removable: list[tuple[TaggedCube, int]] = []
    for tc in cover:
        c = tc.cube
        if c.width != n:
            raise ValueError(f"width mismatch: {c.width} vs {n}")
        points = 0 if c.empty else cube_points(c.left.value, c.right.value)
        off = _joint(tc.tag, off_columns)
        off_conflicts.extend((tc, BitVec(n, v)) for v in _ones(points & off))
        for j in tc.tag:
            covered[j] |= points
        spec = c.specified_mask
        for pos in range(n):
            bit = 1 << pos
            if spec & bit:
                # raising the literal adds the mirror image across position pos
                mirror = points >> bit if c.right.value & bit else points << bit
                if not (points | mirror) & off:
                    removable.append((tc, n - 1 - pos))
    missing = [
        (BitVec(n, v), j)
        for j, on in enumerate(_columns(f, 1))
        for v in _ones(on & ~covered[j])
    ]
    return MultiCoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
