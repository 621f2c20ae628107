"""Reduced-offset machinery in difference-indicator form.

For a chosen on-minterm P, each off-cube Z reduces to the cube keeping
exactly the literals of Z that oppose P.  A single n-bit vector per
reduced cube suffices: bit i set means variable i appears there (with
the complement of p_i), bit i clear means the position is a don't care.
``generate_sdm`` folds a whole off-set into the absorption-minimal set
of such difference indicators without ever materialising the unreduced
offset.  The fold reads one form, an ``OffPairs`` of int pairs: a
listed off-set is converted in one pass, and only its result is wrapped
in ``BitVec``s; an ``OffPairs`` built once serves the folds of many
minterms, which return plain ints; a failure names cubes by their pairs.

Polarity runs opposite to cube size: more 1-bits means more literals and
a smaller cube, so vector s absorbs vector d exactly when the ones of s
are a subset of the ones of d.

``reduce_off_cube``, ``derive_rc`` and ``minimize_sr`` form a slower
reference path over explicit cubes, kept for cross-validation of the
vector path.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from .bitcube import (
    BitVec,
    Cube,
    Record,
    check_width,
    minimal_ones,
    minterm_to_cube,
    pair_text,
)
from .errors import EmptyOffset, InconsistentFunction


class DiSet(Record):
    """Absorption-minimal difference indicators plus fold statistics.

    Elements are kept sorted ascending by value; the fold below scans in
    that order, which fixes the comparison counts deterministically.
    They are ``BitVec``s, or plain int values when the fold ran on an
    ``OffPairs`` off-set.
    """

    __slots__ = ("elements", "comparisons", "absorptions")

    def __init__(
        self, elements: Iterable[BitVec] = (), comparisons: int = 0, absorptions: int = 0
    ) -> None:
        self.elements = sorted(elements)
        self.comparisons = comparisons
        self.absorptions = absorptions

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
    minterm of value p is ``(p ^ right) & spec``; the cube of a pair
    ``(r, s)`` is ``Cube(BitVec(n, s ^ r), BitVec(n, r))``.
    """

    __slots__ = ("pairs",)

    def __init__(self, cubes: "Iterable[tuple[int, int]]") -> None:
        self.pairs = [(right, left ^ right) for left, right in cubes]

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def listed(cls, P: BitVec, off_cubes: "Iterable[Cube | BitVec]") -> OffPairs:
        """A listed off-set of ``Cube``s and minterm ``BitVec``s, in one pass.

        The first off-cube of another width than ``P`` raises
        ``ValueError``, unless an earlier one holds P, which raises
        ``InconsistentFunction`` as the fold would.
        """
        width = P.width
        full = (1 << width) - 1
        off = cls(())
        pairs = off.pairs
        for z in off_cubes:
            if z.width != width:
                _raise_on_holder(P, pairs)
                check_width(width, z.width)
            if isinstance(z, BitVec):
                pairs.append((z.value, full))
            else:
                right = z.right.value
                pairs.append((right, z.left.value ^ right))
        return off


def _raise_on_holder(P: BitVec, pairs: "Iterable[tuple[int, int]]") -> None:
    """Raise ``InconsistentFunction`` naming the first off-cube of the
    ``(right, spec)`` pairs that holds ``P``, if one does."""
    for r, s in pairs:
        if not (P.value ^ r) & s:
            z = pair_text(s ^ r, r)
            raise InconsistentFunction(f"minterm {P} is contained in off-cube {z}")


def generate_di(P: BitVec, Z: Cube | BitVec) -> BitVec:
    """Difference indicator of the off-cube ``Z`` with respect to minterm ``P``.

    Bit i is set when variable i is specified in Z with a value different
    from p_i.  For a minterm Z this degenerates to plain XOR.  A zero
    result means P lies inside Z, which contradicts P being an on-minterm.
    """
    pairs = OffPairs.listed(P, (Z,)).pairs
    _raise_on_holder(P, pairs)
    (r, s), = pairs
    return BitVec(P.width, (P.value ^ r) & s)


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
    if S.elements:
        check_width(S.elements[0].width, D.width)
    values = [s.value for s in S.elements]
    comparisons, absorptions = _fold(values, (D.value,))
    S.comparisons += comparisons
    S.absorptions += absorptions
    S.elements[:] = [BitVec(D.width, v) for v in values]
    return S


def generate_sdm(
    P: BitVec,
    off_cubes: "list[Cube | BitVec] | tuple[Cube | BitVec, ...] | OffPairs",
) -> DiSet:
    """Minimal difference-indicator set of ``P`` against the whole off-set.

    Seeds the all-ones sentinel, then folds one indicator per off-cube.
    Raises ``EmptyOffset`` for an empty off-set (the caller maps that to
    the universal cube) and propagates ``InconsistentFunction`` when P
    lies inside some off-cube, naming the first such cube.  A listed
    off-set is read by ``OffPairs.listed`` and gives a set of ``BitVec``s;
    an ``OffPairs`` off-set gives a set of int values.
    """
    prepared = isinstance(off_cubes, OffPairs)
    off = off_cubes if prepared else OffPairs.listed(P, off_cubes)
    if not off:
        raise EmptyOffset("off-set is empty; every point is coverable by the universal cube")
    width, p = P.width, P.value
    elements = [(1 << width) - 1]
    comparisons, absorptions = _fold(elements, [(p ^ r) & s for r, s in off.pairs])
    # a zero indicator replaces every element and absorbs every later one,
    # so it leaves exactly the element 0
    if not elements[0]:
        _raise_on_holder(P, off.pairs)
    if not prepared:
        elements = [BitVec(width, e) for e in elements]
    return DiSet(elements, comparisons, absorptions)


def reduce_off_cube(P: BitVec, Z: Cube | BitVec) -> Cube:
    """Reference path: reduce one off-cube against ``P`` positionwise.

    Keeps z_i exactly where it is specified and opposes p_i; every other
    position becomes a don't care.  A fully-x result is legal here; the
    vector path rejects it instead.
    """
    if isinstance(Z, BitVec):
        Z = minterm_to_cube(Z)
    check_width(P.width, Z.width)
    full = (1 << P.width) - 1
    kept = (P.value ^ Z.right.value) & Z.specified_mask
    drop = ~kept & full
    return Cube(
        BitVec(P.width, Z.left.value | drop),
        BitVec(P.width, Z.right.value | drop),
    )


def derive_rc(P: BitVec, D: BitVec) -> Cube:
    """Reference path: expand a difference indicator back into its reduced cube."""
    check_width(P.width, D.width)
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
    n = seq[0].width
    full = (1 << 2 * n) - 1
    by_key: dict[int, Cube] = {}
    for c in seq:
        check_width(n, c.width)
        by_key.setdefault(full ^ (c.left.value << n | c.right.value), c)
    return [by_key[k] for k in minimal_ones(list(by_key))]
