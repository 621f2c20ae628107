"""Reduced-offset machinery in difference-indicator form.

For a chosen on-minterm P, each off-cube Z reduces to the cube keeping
exactly the literals of Z that oppose P.  A single n-bit vector per
reduced cube suffices: bit i set means variable i appears there (with
the complement of p_i), bit i clear means the position is a don't care.
``generate_sdm`` folds a whole off-set into the absorption-minimal set
of such difference indicators without ever materialising the unreduced
offset; the fold runs on plain ints, and ``BitVec`` wraps only its
result.  An ``OffPairs`` off-set is converted to ints once for the folds
of many minterms, and its folds return plain ints.

Polarity runs opposite to cube size: more 1-bits means more literals and
a smaller cube, so vector s absorbs vector d exactly when the ones of s
are a subset of the ones of d.

``reduce_off_cube``, ``derive_rc`` and ``minimize_sr`` form a slower
reference path over explicit cubes, kept for cross-validation of the
vector path.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .bitcube import BitVec, Cube, cube_contains, minimal_ones, minterm_to_cube
from .errors import EmptyOffset, InconsistentFunction

log = logging.getLogger(__name__)


@dataclass
class DiSet:
    """Absorption-minimal difference indicators plus fold statistics.

    Elements are kept sorted ascending by value; the fold below scans in
    that order, which fixes the comparison counts deterministically.
    They are ``BitVec``s, or plain int values when the fold ran on an
    ``OffPairs`` off-set.
    """

    elements: list[BitVec] = field(default_factory=list)
    comparisons: int = 0
    absorptions: int = 0

    def __post_init__(self) -> None:
        self.elements = sorted(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def width(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no width")
        return self.elements[0].width

    def as_set(self) -> frozenset[BitVec]:
        return frozenset(self.elements)


class OffPairs:
    """An off-set converted once for the folds of many minterms.

    Built from ``(left, right)`` cube pair values, it keeps one
    ``(right, left ^ right)`` pair per cube, so that the indicator of the
    minterm of value p is ``(p ^ right) & spec``.  ``listed`` are the
    off-cubes as the caller gave them, with the same minterms; they are
    read only after a zero indicator, to raise what a fold over them
    raises.  An empty cube's pair is (0, 0), so its indicator is 0.
    """

    __slots__ = ("pairs", "listed")

    def __init__(
        self,
        cubes: "Iterable[tuple[int, int]]",
        listed: "Sequence[Cube | BitVec]" = (),
    ) -> None:
        self.pairs = [(right, left ^ right) for left, right in cubes]
        self.listed = listed

    def __len__(self) -> int:
        return len(self.pairs)


def _as_cube(z: Cube | BitVec) -> Cube:
    return minterm_to_cube(z) if isinstance(z, BitVec) else z


def _indicators(P: BitVec, off_cubes: "Iterable[Cube | BitVec]") -> Iterator[int]:
    """Difference indicator values of the off-cubes against ``P``, in order.

    Lazy, so an error surfaces at its off-cube after the earlier ones
    have been folded, exactly as a one-at-a-time fold would raise it.
    """
    p, width = P.value, P.width
    for z in off_cubes:
        if isinstance(z, BitVec):
            if z.width != width:
                raise ValueError(f"width mismatch: {width} vs {z.width}")
            d = p ^ z.value
        else:
            if z.empty:
                raise ValueError("difference indicator of an empty cube")
            left, right = z.left, z.right
            if left.width != width:
                raise ValueError(f"width mismatch: {width} vs {left.width}")
            d = (p ^ right.value) & (left.value ^ right.value)
        if not d:
            raise InconsistentFunction(
                f"minterm {P} is contained in off-cube {_as_cube(z)}"
            )
        yield d


def generate_di(P: BitVec, Z: Cube | BitVec) -> BitVec:
    """Difference indicator of the off-cube ``Z`` with respect to minterm ``P``.

    Bit i is set when variable i is specified in Z with a value different
    from p_i.  For a minterm Z this degenerates to plain XOR.  A zero
    result means P lies inside Z, which contradicts P being an on-minterm.
    """
    return BitVec(P.width, next(_indicators(P, (Z,))))


def _fold(elements: list[int], indicators: "Iterable[int]") -> tuple[int, int]:
    """Fold nonzero indicators into the ascending absorption-minimal
    ``elements``, in place; returns (comparisons, absorptions).

    Per indicator d the scan runs from the smallest element and stops at
    the first element absorbing d.  Each element examined counts as one
    comparison; every vector dropped (d itself, or each element d
    absorbs) counts as one absorption.
    """
    comparisons = absorptions = 0
    for d in indicators:
        examined = 0
        for s in elements:
            examined += 1
            if s & d == s:
                comparisons += examined
                absorptions += 1
                break
        else:
            comparisons += examined
            kept = [s for s in elements if s & d != d]
            absorptions += examined - len(kept)
            bisect.insort(kept, d)
            elements[:] = kept
    return comparisons, absorptions


def reform_sdm(S: DiSet, D: BitVec) -> DiSet:
    """Fold one difference indicator into the minimal set, in place.

    If some element absorbs ``D`` the set is unchanged; otherwise every
    element absorbed by ``D`` is removed and ``D`` is inserted.  Each
    element examined counts as one comparison; every vector dropped
    (including ``D`` itself) counts as one absorption.
    """
    if D.value == 0:
        raise ValueError("zero difference indicator")
    if S.elements and S.elements[0].width != D.width:
        raise ValueError(f"width mismatch: {S.elements[0].width} vs {D.width}")
    values = [s.value for s in S.elements]
    comparisons, absorptions = _fold(values, (D.value,))
    S.comparisons += comparisons
    S.absorptions += absorptions
    S.elements[:] = [BitVec(D.width, v) for v in values]
    return S


@dataclass(frozen=True)
class SdmStep:
    """One fold step, recorded when tracing."""

    index: int
    off_cube: Cube
    di: BitVec
    comparisons: int
    absorbed: int
    elements: tuple[BitVec, ...]


def generate_sdm(
    P: BitVec,
    off_cubes: "list[Cube | BitVec] | tuple[Cube | BitVec, ...] | OffPairs",
    *,
    trace: list[SdmStep] | None = None,
) -> DiSet:
    """Minimal difference-indicator set of ``P`` against the whole off-set.

    Seeds the all-ones sentinel, then folds one indicator per off-cube.
    Raises ``EmptyOffset`` for an empty off-set (the caller maps that to
    the universal cube) and propagates ``InconsistentFunction`` when P
    lies inside some off-cube.  An ``OffPairs`` off-set is folded without
    a trace and gives a set of int values.
    """
    prepared = isinstance(off_cubes, OffPairs)
    off = off_cubes if prepared else list(off_cubes)
    if not off:
        raise EmptyOffset("off-set is empty; every point is coverable by the universal cube")
    width = P.width
    elements = [(1 << width) - 1]
    if prepared:
        p = P.value
        comparisons, absorptions = _fold(elements, [(p ^ r) & s for r, s in off.pairs])
        # a zero indicator replaces every element and absorbs every later
        # one, so it leaves exactly the element 0
        if not elements[0]:
            for _ in _indicators(P, off.listed):
                pass
            raise InconsistentFunction(f"minterm {P} is contained in the off-set")
    elif trace is None:
        comparisons, absorptions = _fold(elements, _indicators(P, off))
    else:
        comparisons = absorptions = 0
        for j, (z, d) in enumerate(zip(off, _indicators(P, off)), start=1):
            step_comparisons, step_absorbed = _fold(elements, (d,))
            comparisons += step_comparisons
            absorptions += step_absorbed
            trace.append(
                SdmStep(
                    index=j,
                    off_cube=_as_cube(z),
                    di=BitVec(width, d),
                    comparisons=step_comparisons,
                    absorbed=step_absorbed,
                    elements=tuple(BitVec(width, e) for e in elements),
                )
            )
    log.debug(
        "di set width %d for %d inputs (empirical bound 2.5n = %.1f)",
        len(elements),
        width,
        2.5 * width,
    )
    if prepared:
        return DiSet(elements, comparisons, absorptions)
    return DiSet([BitVec(width, e) for e in elements], comparisons, absorptions)


def reduce_off_cube(P: BitVec, Z: Cube | BitVec) -> Cube:
    """Reference path: reduce one off-cube against ``P`` positionwise.

    Keeps z_i exactly where it is specified and opposes p_i; every other
    position becomes a don't care.  A fully-x result is legal here; the
    vector path rejects it instead.
    """
    Z = _as_cube(Z)
    if Z.empty:
        raise ValueError("cannot reduce an empty cube")
    if P.width != Z.width:
        raise ValueError(f"width mismatch: {P.width} vs {Z.width}")
    full = (1 << P.width) - 1
    kept = (P.value ^ Z.right.value) & Z.specified_mask
    drop = ~kept & full
    return Cube(
        BitVec(P.width, Z.left.value | drop),
        BitVec(P.width, Z.right.value | drop),
    )


def derive_rc(P: BitVec, D: BitVec) -> Cube:
    """Reference path: expand a difference indicator back into its reduced cube."""
    if P.width != D.width:
        raise ValueError(f"width mismatch: {P.width} vs {D.width}")
    inv = ~D
    return Cube(P | inv, ~P | inv)


def minimize_sr(cubes: "list[Cube] | tuple[Cube, ...]") -> list[Cube]:
    """Drop every cube contained in another one; duplicates keep the first.

    d lies in c exactly when the ones of c's ``left << n | right`` are a
    subset of d's, so the complements of those pairs go through the same
    absorption as literal-position vectors.
    """
    seq = list(cubes)
    if not seq:
        return []
    for c in seq:
        if c != seq[0]:
            # raises on mixed widths or an empty cube among distinct cubes
            cube_contains(seq[0], c)
    n = seq[0].width
    full = (1 << 2 * n) - 1
    by_key: dict[int, Cube] = {}
    for c in seq:
        by_key.setdefault(full ^ (c.left.value << n | c.right.value), c)
    return [by_key[k] for k in minimal_ones(list(by_key))]
