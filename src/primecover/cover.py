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

import time
from dataclasses import dataclass
from typing import Sequence, TypeVar

from .bitcube import BitVec, Cube, Slices, cube_points, cube_text, table_cover
from .errors import EmptyOnset
# generate_spi stays importable here: perfbench/tracing.py wraps it by name
from .pi_gen import generate_spi, prime_pairs  # noqa: F401
from .pla_io import DEFAULT_COMPLEMENT_CAP, LogicFunction
from .reduced_offset import OffPairs

DEFAULT_ON_EXPANSION_CAP = 1 << 20

T = TypeVar("T")


def expand_on_minterms(
    f: LogicFunction, cap: int = DEFAULT_ON_EXPANSION_CAP
) -> list[BitVec]:
    """The indexed on-minterm list in canonical order."""
    return [BitVec(f.n, v) for v in _on_values(f, cap)]


def _on_values(f: LogicFunction, cap: int) -> list[int]:
    """``expand_on_minterms`` as int values.  Within a cube the minterms
    come in ascending order: each next subset of the free positions is
    ``(sub - free) & free``."""
    out: dict[int, None] = {}
    for c in f.on:
        if c.count_minterms() > cap:
            raise ValueError(
                f"on-cube {cube_text(c)} alone expands past {cap} minterms; raise the cap"
            )
        if c.empty:
            continue
        free = c.dc_mask
        base = c.right.value ^ free
        sub = 0
        while True:
            out[base | sub] = None
            sub = (sub - free) & free
            if not sub:
                break
        if len(out) > cap:
            raise ValueError(f"on-set expands past {cap} minterms; raise the cap")
    return list(out)


def _on_slices(on_minterms: Sequence[BitVec], n: int) -> Slices:
    return Slices.of_minterms([m.value for m in on_minterms], n)


def coverage_mask(pi: Cube, on_minterms: Sequence[BitVec]) -> BitVec:
    """Bit i set when the cube contains the i-th on-minterm (MSB is index 0)."""
    return _on_slices(on_minterms, pi.width).mask_of(pi)


def mask_members(mask: BitVec, items: Sequence[T]) -> list[T]:
    """The items whose index bit is set in ``mask`` (MSB is index 0), in order."""
    width = len(items)
    out = []
    rest = mask.value
    while rest:
        top = rest.bit_length()
        out.append(items[width - top])
        rest ^= 1 << (top - 1)
    return out


def find_dominant(restricted: Sequence[int]) -> int | None:
    """Index of the mask strictly containing every other one, if any."""
    for i, r in enumerate(restricted):
        if all(
            (o | r) == r and o != r for j, o in enumerate(restricted) if j != i
        ):
            return i
    return None


def _select_index(restricted: Sequence[int], rank: Sequence) -> int:
    """Index of the candidate to commit, from its uncovered minterms:
    dominance first, then the most of them, then the smallest rank."""
    dom = find_dominant(restricted)
    if dom is not None:
        return dom
    return min(
        range(len(restricted)), key=lambda i: (-restricted[i].bit_count(), rank[i])
    )


def select_epi(
    candidates: Sequence[tuple[Cube, BitVec]], uncovered: BitVec
) -> Cube:
    """Pick the committed implicant: dominance first, then uncovered count,
    then lexicographically smallest cube text."""
    if not candidates:
        raise ValueError("no candidate implicants")
    restricted = [mask.value & uncovered.value for _, mask in candidates]
    rank = [cube_text(c) for c, _ in candidates]
    return candidates[_select_index(restricted, rank)][0]


@dataclass(frozen=True)
class CoverResult:
    cubes: tuple[Cube, ...]
    coverage: tuple[BitVec, ...]
    on_minterms: tuple[BitVec, ...]
    iterations: int
    elapsed_ms: float

    @property
    def covered_all(self) -> bool:
        total = 0
        for mask in self.coverage:
            total |= mask.value
        return total == (1 << len(self.on_minterms)) - 1


def _off_pairs(f: LogicFunction) -> OffPairs:
    """The off-set of ``f`` for its folds.  Up to the 2^n-table cap it is
    the ``table_cover`` of the off points, when that has fewer cubes than
    the list: the primes depend only on the points.  A listed empty cube
    keeps the list, so that the fold still rejects it."""
    listed = [(z.left.value, z.right.value) for z in f.off]
    if f.n <= DEFAULT_COMPLEMENT_CAP and not any(z.empty for z in f.off):
        points = 0
        for left, right in listed:
            points |= cube_points(left, right)
        compact = table_cover(points, f.n)
        if len(compact) < len(listed):
            listed = compact
    return OffPairs(listed, f.off)


def direct_cover(
    f: LogicFunction,
    *,
    irredundant: bool = False,
    on_expansion_cap: int = DEFAULT_ON_EXPANSION_CAP,
) -> CoverResult:
    """Cover the whole on-set with prime implicants of the off-complement.

    Raises ``InconsistentFunction`` when an on-minterm lies in an off-cube:
    every prime misses every off-cube, so that minterm stays uncovered
    until it is an origin, whose indicator fold rejects it.  Candidates
    are ``(left, right)`` pairs in cube-text order, so the first of the
    best ones wins the tie-break.
    """
    start = time.perf_counter()
    if not f.on:
        raise EmptyOnset("the on-set is empty")
    on_list = expand_on_minterms(f, on_expansion_cap)
    on = _on_slices(on_list, f.n)
    off = _off_pairs(f)
    width = len(on_list)
    chosen: list[tuple[int, int]] = []
    chosen_masks: list[int] = []
    uncovered = (1 << width) - 1
    iterations = 0
    while uncovered:
        # the first uncovered origin is the highest set bit of ``uncovered``
        origin = on_list[width - uncovered.bit_length()]
        pis = prime_pairs(origin, off)
        masks = [on.meets(left, right) for left, right in pis]
        idx = _select_index([mask & uncovered for mask in masks], range(len(pis)))
        chosen.append(pis[idx])
        chosen_masks.append(masks[idx])
        uncovered &= ~masks[idx]
        iterations += 1
    if irredundant:
        keep = _irredundant_indices(chosen_masks)
        chosen = [chosen[i] for i in keep]
        chosen_masks = [chosen_masks[i] for i in keep]
    n = f.n
    elapsed = (time.perf_counter() - start) * 1000.0
    return CoverResult(
        cubes=tuple(Cube(BitVec(n, left), BitVec(n, right)) for left, right in chosen),
        coverage=tuple(BitVec(width, mask) for mask in chosen_masks),
        on_minterms=tuple(on_list),
        iterations=iterations,
        elapsed_ms=elapsed,
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
    """Outcome of the three cover checks; violations are content, not errors."""

    missing: tuple[BitVec, ...]
    off_conflicts: tuple[tuple[Cube, Cube], ...]
    removable_literals: tuple[tuple[Cube, int], ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.off_conflicts or self.removable_literals)


def verify_cover(
    cover: CoverResult | Sequence[Cube],
    f: LogicFunction,
    *,
    on_expansion_cap: int = DEFAULT_ON_EXPANSION_CAP,
) -> CoverReport:
    """Check coverage of the on-set, disjointness from the off-set, and
    primality of every cube by the literal-raising test."""
    cubes = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    for c in cubes:
        if c.width != f.n:
            raise ValueError(f"width mismatch: {c.width} vs {f.n}")
    on_list = expand_on_minterms(f, on_expansion_cap)
    on = _on_slices(on_list, f.n)
    off = Slices([(z.left.value, z.right.value) for z in f.off], f.n)
    uncovered = (1 << on.count) - 1
    for c in cubes:
        uncovered &= ~on.meets(c.left.value, c.right.value)
    missing = mask_members(BitVec(on.count, uncovered), on_list)
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
