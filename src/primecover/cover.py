"""Heuristic direct cover: pick an uncovered on-minterm, generate all of
its prime implicants, commit the best one, repeat until the on-set is
covered.

Origins are taken in canonical order: on-cubes in input order, each
cube's don't-care positions enumerated in binary order, duplicates kept
once at first occurrence.  Candidate scoring counts only minterms still
uncovered; ties break on the lexicographically smallest cube text, so a
given input always produces the same cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .bitcube import BitVec, Cube, Slices, cube_points, cube_text, free_subsets, set_bits
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
    for c in f.on:
        if c.count_minterms() > cap:
            raise ValueError(
                f"on-cube {cube_text(c)} alone expands past the cap of {cap} minterms"
            )
        free = c.dc_mask
        base = c.right.value ^ free
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

    Up to ``TABLE_CAP`` inputs the off-cubes are ORed into one 2^n-bit
    table and each origin's primes are read from it by ``table_primes``;
    above it every origin folds the listed off-cubes.  Raises
    ``InconsistentFunction`` when an on-minterm lies in an off-cube:
    every prime misses every off-cube, so that minterm stays uncovered
    until it is an origin, and the listed fold rejects it, naming the
    first off-cube that holds it.  Candidates are ``(left, right)``
    pairs in cube-text order, so the first of the best ones wins the
    tie-break.
    """
    if not f.on:
        raise EmptyOnset("the on-set is empty")
    n = f.n
    on_list = expand_on_minterms(f)
    on = Slices.of_minterms(on_list, n)
    listed = [(z.left.value, z.right.value) for z in f.off]
    off = OffPairs(listed)
    table = None
    if n <= TABLE_CAP:
        table = 0
        for left, right in listed:
            table |= cube_points(left, right)
    width = len(on_list)
    chosen: list[tuple[int, int]] = []
    chosen_masks: list[int] = []
    uncovered = (1 << width) - 1
    iterations = 0
    while uncovered:
        # the first uncovered origin is the highest set bit of ``uncovered``
        p = on_list[width - uncovered.bit_length()]
        if table is None or table >> p & 1:
            pis = prime_pairs(BitVec(n, p), off)
        else:
            pis = table_primes(p, table, n)
        masks = [on.meets(left, right) for left, right in pis]
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
    whose literal can be raised while the cube misses the off-set.  The
    on-set is queried as int values; only the missing minterms become
    ``BitVec``s."""
    cubes = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    for c in cubes:
        if c.width != f.n:
            raise ValueError(f"width mismatch: {c.width} vs {f.n}")
    on_values = expand_on_minterms(f)
    on = Slices.of_minterms(on_values, f.n)
    off = Slices([(z.left.value, z.right.value) for z in f.off], f.n)
    uncovered = (1 << on.count) - 1
    for c in cubes:
        uncovered &= ~on.meets(c.left.value, c.right.value)
    missing = [
        BitVec(f.n, v) for v in mask_members(BitVec(on.count, uncovered), on_values)
    ]
    off_conflicts: list[tuple[Cube, Cube]] = []
    removable: list[tuple[Cube, int]] = []
    for c in cubes:
        off_conflicts.extend((c, z) for z in mask_members(off.mask_of(c), f.off))
        left, right, spec = c.left.value, c.right.value, c.specified_mask
        for pos in range(c.width):
            bit = 1 << pos
            if spec & bit and not off.meets(left | bit, right | bit):
                removable.append((c, c.width - 1 - pos))
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))
