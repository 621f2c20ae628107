"""Prime implicants covering one minterm, from its difference indicators.

Each minimal difference indicator is a clause: the disjunction of the
variables at its 1-positions.  Multiplying the clauses out and absorbing
redundant products yields one literal-position vector per prime
implicant; fixing the literal values from the minterm turns each vector
into the cube itself.  Absorption runs after every clause so the working
set stays small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitcube import BitVec, Cube, cube_text, minimal_ones
from .errors import EmptyOffset
from .reduced_offset import DiSet, generate_sdm


def generate_m(D: BitVec) -> list[BitVec]:
    """Split an indicator into its one-hot projections, lowest bit first."""
    if D.value == 0:
        raise ValueError("zero difference indicator has no clause")
    return [BitVec(D.width, b) for b in _clause_bits(D.value)]


def _clause_bits(d: int) -> list[int]:
    """One-hot projections of a nonzero indicator value, lowest bit first."""
    out: list[int] = []
    while d:
        rest = d & (d - 1)
        out.append(d ^ rest)
        d = rest
    return out


def minimize_n(vectors: Sequence[BitVec]) -> list[BitVec]:
    """Remove strict supersets (by ones) and later duplicates."""
    first = {v.value: v for v in reversed(vectors)}  # first object per value
    return [first[v] for v in minimal_ones([v.value for v in vectors])]


def cross_or(n_vectors: Sequence[BitVec], m_vectors: Sequence[BitVec]) -> list[BitVec]:
    """All pairwise ORs of the two sets, minimized; one expansion step."""
    if not n_vectors:
        raise ValueError("vector set must be seeded with the all-zeros vector")
    if not m_vectors:
        raise ValueError("clause set must be nonempty")
    products = [e | v for e in n_vectors for v in m_vectors]
    return minimize_n(products)


@dataclass(frozen=True)
class NStep:
    """One clause expansion, recorded when tracing."""

    di: BitVec
    clauses: tuple[BitVec, ...]
    vectors: tuple[BitVec, ...]


def generate_n(
    dis: Iterable[BitVec] | DiSet,
    *,
    trace: list[NStep] | None = None,
) -> list[BitVec]:
    """Fold every indicator's clause into the literal-position vectors."""
    seq = list(dis)
    if not seq:
        raise ValueError("need at least one difference indicator")
    if any(d.value == 0 for d in seq):
        raise ValueError("zero difference indicator")
    width = seq[0].width
    vectors = [0]
    for d in seq:
        if d.width != width:
            raise ValueError(f"width mismatch: {width} vs {d.width}")
        bits = _clause_bits(d.value)
        vectors = minimal_ones([e | b for e in vectors for b in bits])
        if trace is not None:
            trace.append(
                NStep(
                    di=d,
                    clauses=tuple(generate_m(d)),
                    vectors=tuple(BitVec(width, v) for v in vectors),
                )
            )
    return [BitVec(width, v) for v in vectors]


def vectors_to_pis(P: BitVec, vectors: Sequence[BitVec]) -> list[Cube]:
    """Materialise one cube per literal-position vector, values taken from P."""
    width, p = P.width, P.value
    full = (1 << width) - 1
    out: list[Cube] = []
    for e in vectors:
        if e.width != width:
            raise ValueError(f"width mismatch: {width} vs {e.width}")
        free = full ^ e.value
        out.append(Cube(BitVec(width, (full ^ p) | free), BitVec(width, p | free)))
    return out


def generate_spi(
    P: BitVec,
    off_cubes: Sequence[Cube | BitVec],
    *,
    trace: list | None = None,
) -> list[Cube]:
    """All prime implicants covering ``P``, sorted by cube text.

    The function minimized is the complement of the off-set; an empty
    off-set therefore yields the single universal cube.
    """
    try:
        sdm = generate_sdm(P, list(off_cubes), trace=trace)
    except EmptyOffset:
        return [Cube.universal(P.width)]
    vectors = generate_n(sdm.elements)
    return sorted(vectors_to_pis(P, vectors), key=cube_text)
