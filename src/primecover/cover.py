"""Heuristic direct cover: pick an uncovered on-minterm, generate all of
its prime implicants, commit the best one, repeat until the on-set is
covered.

Origins are taken in canonical order: on-cubes in input order, each
cube's don't-care positions enumerated in binary order, duplicates kept
once at first occurrence.  Candidate scoring counts only minterms still
uncovered; ties break on the lexicographically smallest cube text, so a
given input always produces the same cover.

Up to ``TABLE_CAP`` inputs the cover loop and ``verify_cover`` run on
the function's 2^n-bit on and off truth tables: a candidate's mask is
its points on the on table, an off-set test is one AND, and a literal's
primality test one mirror shift and one AND.  Above the cap the on-set
is a sliced minterm list and the off-set a sliced cube list
(``bitcube.Slices``), queried one AND per literal.  Either way the
function is read as its ``(left, right)`` pairs and tables; its ``Cube``
tuples are read only to name the off-cubes a failed check meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .bitcube import (
    BitVec,
    Cube,
    Slices,
    cube_points,
    cube_text,
    free_subsets,
    raisable_literals,
    set_bits,
)
from .errors import EmptyOnset
# generate_spi stays importable here: perfbench/tracing.py wraps it by name
from .pi_gen import generate_spi, prime_pairs, table_primes  # noqa: F401
from .pla_io import TABLE_CAP, LogicFunction
from .reduced_offset import OffPairs

ON_EXPANSION_CAP = 1 << 20

T = TypeVar("T")


def expand_on_minterms(f: LogicFunction) -> list[int]:
    """The on-minterm values in canonical order, at most
    ``ON_EXPANSION_CAP`` of them.  Within a cube the minterms come in
    ascending order, as ``Cube.minterms`` gives them."""
    cap = ON_EXPANSION_CAP
    out: dict[int, None] = {}
    for left, right in f.on_pairs:
        free = left & right
        if not free:
            out[right] = None
        else:
            if 1 << free.bit_count() > cap:
                c = Cube(BitVec(f.n, left), BitVec(f.n, right))
                raise ValueError(
                    f"on-cube {cube_text(c)} alone expands past the cap of {cap} minterms"
                )
            base = right ^ free
            for sub in free_subsets(free):
                out[base | sub] = None
        if len(out) > cap:
            raise ValueError(f"on-set expands past the cap of {cap} minterms")
    return list(out)


def coverage_mask(pi: Cube, on_minterms: Sequence[BitVec]) -> BitVec:
    """Bit i set when the cube contains the i-th on-minterm (MSB is index 0)."""
    for m in on_minterms:
        if m.width != pi.width:
            raise ValueError(f"width mismatch: {pi.width} vs {m.width}")
    return Slices.of_minterms([m.value for m in on_minterms], pi.width).mask_of(pi)


def mask_members(mask: BitVec, items: Sequence[T]) -> list[T]:
    """The items whose index bit is set in ``mask`` (MSB is index 0), in order."""
    last = len(items) - 1
    return [items[last - i] for i in reversed(set_bits(mask.value))]


def _select_index(restricted: Sequence[int]) -> int:
    """Index of the candidate to commit, from its uncovered minterms: the
    first with the most of them.  A mask strictly containing every other
    one has strictly the most bits, so this is also the dominant one."""
    return max(range(len(restricted)), key=lambda i: restricted[i].bit_count())


@dataclass(frozen=True)
class CoverResult:
    cubes: tuple[Cube, ...]
    iterations: int


def direct_cover(f: LogicFunction, *, irredundant: bool = False) -> CoverResult:
    """Cover the whole on-set with prime implicants of the off-complement.

    Up to ``TABLE_CAP`` inputs each origin's primes are read from the
    off table by ``table_primes``, a candidate's mask is its points on
    the on table, and the uncovered on-minterms are a table too; above
    it every origin folds the listed off-cubes, and masks and the
    uncovered set index the on-minterm list.  Either way a mask holds
    the same on-minterms, so the counts compared are the same.  Raises
    ``InconsistentFunction`` when an on-minterm lies in an off-cube:
    every prime misses every off-cube, so that minterm stays uncovered
    until it is an origin, and the listed fold rejects it, naming the
    first off-cube that holds it.  Candidates are ``(left, right)``
    pairs in cube-text order, so the first of the best ones wins the
    tie-break.
    """
    if not f.on_pairs:
        raise EmptyOnset("the on-set is empty")
    n = f.n
    on_list = expand_on_minterms(f)
    # the listed off-cubes, converted on the first origin that folds them
    off = None
    if n <= TABLE_CAP:
        table = f.off_table
        on_table = uncovered = f.on_table
        # the bit of the i-th origin in a mask is its minterm value
        bit_of: Sequence[int] = on_list

        def mask_of(left: int, right: int) -> int:
            return cube_points(left, right) & on_table

    else:
        table = None
        width = len(on_list)
        uncovered = (1 << width) - 1
        bit_of = range(width - 1, -1, -1)
        mask_of = Slices.of_minterms(on_list, n).meets
    chosen: list[tuple[int, int]] = []
    chosen_masks: list[int] = []
    iterations = 0
    i = 0
    while uncovered:
        # the origin is the first on-minterm still uncovered
        while not uncovered >> bit_of[i] & 1:
            i += 1
        p = on_list[i]
        if table is None or table >> p & 1:
            if off is None:
                off = OffPairs(f.off_pairs)
            pis = prime_pairs(BitVec(n, p), off)
        else:
            pis = table_primes(p, table, n)
        masks = [mask_of(left, right) for left, right in pis]
        idx = _select_index([mask & uncovered for mask in masks])
        chosen.append(pis[idx])
        chosen_masks.append(masks[idx])
        uncovered &= ~masks[idx]
        iterations += 1
    if irredundant:
        keep = _irredundant_indices(chosen_masks)
        chosen = [chosen[i] for i in keep]
    return CoverResult(
        cubes=tuple(Cube(BitVec(n, left), BitVec(n, right)) for left, right in chosen),
        iterations=iterations,
    )


def _irredundant_indices(masks: Sequence[int]) -> list[int]:
    keep = list(range(len(masks)))
    for i in reversed(range(len(masks))):
        rest = 0
        for j in keep:
            if j != i:
                rest |= masks[j]
        if masks[i] & ~rest == 0:
            keep.remove(i)
    return keep


@dataclass(frozen=True)
class CoverReport:
    """Outcome of the three cover checks of ``verify_cover`` or
    ``verify_multi``; violations are content, not errors.  Each verifier
    says what it puts in each field.  Literal positions count from the
    most significant variable."""

    missing: tuple
    off_conflicts: tuple
    removable_literals: tuple

    @property
    def ok(self) -> bool:
        return not (self.missing or self.off_conflicts or self.removable_literals)


def verify_cover(cover: CoverResult | Sequence[Cube], f: LogicFunction) -> CoverReport:
    """Check coverage of the on-set, disjointness from the off-set, and
    primality of every cube by the literal-raising test.

    ``missing`` lists the on-minterms no cube covers, as ``BitVec``s in
    canonical order; ``off_conflicts`` each ``(cube, off-cube)`` pair
    that intersects; and ``removable_literals`` each ``(cube, position)``
    whose literal can be raised while the cube misses the off-set.

    Up to ``TABLE_CAP`` inputs the checks read the function's truth
    tables: the cubes' points are ORed against the on table, and each
    cube's points ANDed with the off table and with its mirror images
    (``raisable_literals``).  The on-minterm list is expanded only to
    list missing minterms, and the off-cubes sliced only to list those a
    cube meets.  Above the cap the on-minterms and the off-cubes are
    sliced and queried, one off-set query per cube and per raised
    literal.
    """
    cubes = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    n = f.n
    for c in cubes:
        if c.width != n:
            raise ValueError(f"width mismatch: {c.width} vs {n}")
    off_conflicts: list[tuple[Cube, Cube]] = []
    removable: list[tuple[Cube, int]] = []
    if n <= TABLE_CAP:
        off_table = f.off_table
        off = None
        covered = 0
        for c in cubes:
            left, right = c.left.value, c.right.value
            points = cube_points(left, right)
            covered |= points
            if points & off_table:
                if off is None:
                    off = Slices(f.off_pairs, n)
                off_conflicts.extend((c, z) for z in mask_members(off.mask_of(c), f.off))
            removable.extend(
                (c, pos) for pos in raisable_literals(left, right, points, off_table, n)
            )
        uncovered = f.on_table & ~covered
        missing = (
            [BitVec(n, v) for v in expand_on_minterms(f) if uncovered >> v & 1]
            if uncovered
            else []
        )
        return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
    on_values = expand_on_minterms(f)
    on = Slices.of_minterms(on_values, n)
    off = Slices(f.off_pairs, n)
    uncovered = (1 << on.count) - 1
    for c in cubes:
        uncovered &= ~on.meets(c.left.value, c.right.value)
    missing = [BitVec(n, v) for v in mask_members(BitVec(on.count, uncovered), on_values)]
    for c in cubes:
        left, right = c.left.value, c.right.value
        if off.meets(left, right):
            off_conflicts.extend((c, z) for z in mask_members(off.mask_of(c), f.off))
        spec = left ^ right
        for pos in range(n):
            bit = 1 << pos
            if spec & bit and not off.meets(left | bit, right | bit):
                removable.append((c, n - 1 - pos))
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
