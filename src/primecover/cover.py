"""Heuristic direct cover: pick an uncovered on-minterm, generate all of
its prime implicants, commit the best one, repeat until the on-set is
covered.

The origin is always the lowest on-minterm still uncovered.  Candidate
scoring counts only minterms still uncovered; ties break on the
lexicographically smallest cube text.  So a cover depends only on the
function's on and off points: not on the order or the split of its
on-cubes, nor on how its off-set is listed.

Up to ``TABLE_CAP`` inputs the loop and ``verify_cover`` run on the
function's 2^n-bit on and off truth tables: an origin's primes are the
free masks ``prime_table`` sets on the off table, an off-set test is one
AND, and a literal's primality test one mirror shift and one AND.
Above the cap an origin's primes are the ones ``prime_pairs`` folds
from the off-set, and the on-set and the off-set are sliced lists
(``bitcube.Slices``), queried one AND per literal.  A cover is the
``(left, right)`` pairs it commits, checked by the routine tagged
covers share.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat

from .bitcube import (
    BitVec,
    Cube,
    FrozenRecord,
    Slices,
    check_pairs,
    check_width,
    cube_points,
    free_subsets,
    pair_text,
    raisable_literals,
    set_bits,
)
from .errors import EmptyOnset
# generate_spi stays importable here: perfbench/tracing.py wraps it by name
from .pi_gen import generate_spi, prime_pairs, prime_table  # noqa: F401
from .pla_io import TABLE_CAP, LogicFunction
from .reduced_offset import OffPairs

ON_EXPANSION_CAP = 1 << 20


def expand_on_minterms(f: LogicFunction) -> list[int]:
    """The on-minterm values in ascending order, each once, at most
    ``ON_EXPANSION_CAP`` of them."""
    cap = ON_EXPANSION_CAP
    out: set[int] = set()
    for left, right in f.on_pairs:
        free = left & right
        if 1 << free.bit_count() > cap:
            raise ValueError(
                f"on-cube {pair_text(left, right)} alone expands past the cap of {cap} minterms"
            )
        base = right ^ free
        out.update(base | sub for sub in free_subsets(free))
        if len(out) > cap:
            raise ValueError(f"on-set expands past the cap of {cap} minterms")
    return sorted(out)


def coverage_mask(pi: Cube, on_minterms: Sequence[BitVec]) -> BitVec:
    """Bit i set when the cube contains the i-th on-minterm (MSB is index 0)."""
    for m in on_minterms:
        check_width(pi.width, m.width)
    return Slices.of_minterms([m.value for m in on_minterms], pi.width).mask_of(pi)


def mask_members(mask: BitVec, items: Sequence) -> list:
    """The items whose index bit is set in ``mask`` (MSB is index 0), in
    order; ``ValueError`` unless ``mask`` has one bit per item."""
    check_width(mask.width, len(items))
    last = len(items) - 1
    return [items[last - i] for i in reversed(set_bits(mask.value))]


class CoverResult(FrozenRecord):
    """The ``(left, right)`` pairs ``direct_cover`` committed, in order;
    ``iterations`` is ``len(cubes)``, kept as the tracer's counter."""

    __slots__ = ("cubes", "iterations")

    def __init__(self, cubes: tuple[tuple[int, int], ...], iterations: int) -> None:
        self._assign(cubes, iterations)


def direct_cover(f: LogicFunction) -> CoverResult:
    """Cover the whole on-set with prime implicants of the off-complement.

    One greedy loop: the origin is the lowest set bit of the uncovered
    mask, and of the primes through it the one holding the most uncovered
    on-minterms is committed, a tie going to the smaller free mask:
    cube-text order for primes through one origin.  Up to ``TABLE_CAP``
    inputs bit v of the uncovered mask is the minterm of value v, an
    origin's primes are the free masks of its ``prime_table`` and a
    prime's points its ``cube_points``.  Above the cap bit i stands for
    the i-th ascending on-minterm, an origin's primes are folded from
    the off-set's ``OffPairs``, converted once, and a prime's points are
    the sliced on-minterms it meets.  A ``LogicFunction`` is consistent,
    so no origin lies in the off-set.
    """
    if not f.on_pairs:
        raise EmptyOnset("the on-set is empty")
    n = f.n
    if n <= TABLE_CAP:
        uncovered = f.on_table
        values: Sequence[int] = range(1 << n)
        off_table = f.off_table

        def frees(p: int) -> list[int]:
            return set_bits(prime_table(p, off_table, n))

        points_of = cube_points
    else:
        values = expand_on_minterms(f)
        uncovered = (1 << len(values)) - 1
        off = OffPairs(f.off_pairs)

        def frees(p: int) -> list[int]:
            return [left & right for left, right in prime_pairs(BitVec(n, p), off)]

        # Slices puts index 0 at the top bit, so bit i is values[i]
        points_of = Slices.of_minterms(values[::-1], n).meets
    full = (1 << n) - 1
    chosen: list[tuple[int, int]] = []
    while uncovered:
        p = values[(uncovered & -uncovered).bit_length() - 1]
        rest = full ^ p
        best = best_free = best_points = -1
        # both regimes list the free masks ascending, so the first of
        # equal counts has the smaller free mask
        for free in frees(p):
            points = points_of(rest | free, p | free)
            count = (points & uncovered).bit_count()
            if count > best:
                best, best_free, best_points = count, free, points
        chosen.append((rest | best_free, p | best_free))
        uncovered &= ~best_points
    return CoverResult(tuple(chosen), len(chosen))


class CoverReport(FrozenRecord):
    """Outcome of the three cover checks of ``verify_cover`` or
    ``verify_multi``; violations are content, not errors.  Each verifier
    says what it puts in each field.  Literal positions count from the
    most significant variable."""

    __slots__ = ("missing", "off_conflicts", "removable_literals")

    def __init__(self, missing: tuple, off_conflicts: tuple, removable_literals: tuple) -> None:
        self._assign(missing, off_conflicts, removable_literals)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.off_conflicts or self.removable_literals)


def _joint(tag: int, tables: Sequence[int]) -> int:
    """OR of the tables of the outputs in ``tag``, bit j for output j."""
    points = 0
    for j in set_bits(tag):
        points |= tables[j]
    return points


class _TagTables(dict):
    """Per tag met so far, bit j meaning output j: its outputs, as
    ``set_bits`` lists them, and its joint ``_joint`` of ``off``, each
    built on the tag's first lookup."""

    def __init__(self, off: Sequence[int]) -> None:
        super().__init__()
        self.off = off

    def __missing__(self, tag: int) -> tuple[list[int], int]:
        entry = self[tag] = (set_bits(tag), _joint(tag, self.off))
        return entry


def _check_tables(
    items: Iterable[tuple[tuple[int, int], int]], on: Sequence[int], off: Sequence[int], n: int
) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int]]]:
    """The three checks of ``(pair, tag)`` items, bit j of a tag meaning
    output j, against per-output on and off tables; one output has one
    table each and every tag 1.  Each cube's points are ORed into its outputs'
    tables, ANDed with its tag's joint off table and tested against it
    by ``raisable_literals``.  Returns the uncovered on points per output,
    ``(index, off points)`` per conflict and ``(index, position)`` per
    raisable literal."""
    covered = [0] * len(on)
    per_tag = _TagTables(off)
    conflicts: list[tuple[int, int]] = []
    raised: list[tuple[int, int]] = []
    for i, ((left, right), tag) in enumerate(items):
        points = cube_points(left, right)
        outputs, tag_off = per_tag[tag]
        for j in outputs:
            covered[j] |= points
        if points & tag_off:
            conflicts.append((i, points & tag_off))
        literals = raisable_literals(left, right, points, tag_off, n)
        if literals:
            raised.extend((i, pos) for pos in literals)
    return [table & ~hit for table, hit in zip(on, covered)], conflicts, raised


def verify_cover(
    cover: CoverResult | Sequence[tuple[int, int]], f: LogicFunction
) -> CoverReport:
    """Check coverage of the on-set, disjointness from the off-set, and
    primality of every cube by the literal-raising test.

    The cover is a ``CoverResult`` or its ``(left, right)`` pairs.
    ``missing`` lists the on-minterms no cube covers, as ``BitVec``s in
    ascending order; ``off_conflicts`` each ``(cube, off-cube)`` pair
    that intersects, the off-cube one of ``f.off_pairs``; and
    ``removable_literals`` each ``(cube, position)`` whose literal can be
    raised while the cube misses the off-set.  Raises ``ValueError`` for
    a pair that is not a cube over ``f.n`` inputs.  Up to ``TABLE_CAP``
    inputs the checks run in ``_check_tables``; above it the on-minterms
    and the off-cubes are sliced and queried.
    """
    pairs = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    n = f.n
    check_pairs(pairs, n)
    off = None
    if n <= TABLE_CAP:
        items = zip(pairs, repeat(1))
        (uncovered,), conflicts, raised = _check_tables(items, (f.on_table,), (f.off_table,), n)
        missing = set_bits(uncovered)
        hits = [i for i, _ in conflicts]
    else:
        on_values = expand_on_minterms(f)
        on = Slices.of_minterms(on_values, n)
        off = Slices(f.off_pairs, n)
        uncovered = (1 << on.count) - 1
        for left, right in pairs:
            uncovered &= ~on.meets(left, right)
        missing = mask_members(BitVec(on.count, uncovered), on_values)
        hits = [i for i, (left, right) in enumerate(pairs) if off.meets(left, right)]
        raised = [
            (i, n - 1 - pos)
            for i, (left, right) in enumerate(pairs)
            for pos in range(n)
            if (left ^ right) >> pos & 1 and not off.meets(left | 1 << pos, right | 1 << pos)
        ]
    off_conflicts = []
    if hits and off is None:
        off = Slices(f.off_pairs, n)
    for i in hits:
        met = BitVec(off.count, off.meets(*pairs[i]))
        off_conflicts.extend((pairs[i], z) for z in mask_members(met, f.off_pairs))
    return CoverReport(
        tuple(BitVec(n, v) for v in missing),
        tuple(off_conflicts),
        tuple((pairs[i], pos) for i, pos in raised),
    )
