"""Prime implicants covering one minterm, from its difference indicators.

Each minimal difference indicator is a clause: the disjunction of the
variables at its 1-positions.  The minimal products of the clauses, the
minimal transversals of the indicators, are one literal-position vector
per prime implicant; fixing the literal values from the minterm turns
each vector into the cube itself.

The vectors are built one clause at a time by Berge's step for minimal
transversals (C. Berge, *Hypergraphs*, 1989).  A vector the clause
already hits stays as it is, since its products all contain it.  A
vector it misses is extended by each clause bit in turn, and an
extension is kept unless some hit vector lies inside it; the vectors
form an antichain and the missed ones hold no clause bit, so nothing
else can absorb it.  The working set thus stays absorption-minimal
without multiplying every vector out and absorbing the products.
``prime_pairs`` runs this expansion on int indicator values: it folds
an ``OffPairs`` off-set with ``generate_sdm`` and expands the
indicators, the path above the 16-input table cap.  ``generate_spi``
gives the primes as ``Cube``s for a listed off-set; ``generate_n``,
``cross_or`` and ``vectors_to_pis`` expose the expansion's steps on
``BitVec``s.

Up to the table cap ``prime_table`` finds the same primes without
indicators, from the off-set as one 2^n-bit truth table: 2n masked
shifts per minterm, the masks cached per input count, leave a table
indexed by free mask, bit F set when the cube through the minterm with
free positions F is prime; the first n alone, ``implicant_table``,
leave the implicants.  ``direct_cover`` and, through ``table_pairs``,
the multi-output origins read the primes; the multi-output lookahead
reads the implicants.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bitcube import BitVec, Cube, check_width, minimal_ones, set_bits
from .errors import EmptyOffset, InconsistentFunction
from .reduced_offset import DiSet, OffPairs, generate_sdm


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


def _expand(vectors: list[int], d: int) -> list[int]:
    """One clause expansion: the minimal products of the vectors with the
    one-hot bits of the indicator value ``d``, in product order.

    ``vectors`` is an antichain without duplicates, as every chain of
    expansions from ``[0]`` is.  A vector ``e`` that ``d`` hits is one of
    its own products, ``e | b`` for a clause bit ``b`` it holds, and its
    other products contain it.  A product ``e | b`` of a missed vector
    lies inside no hit vector, which would then contain ``e``, and inside
    no other product ``e' | b'`` of a missed vector, whose ``e'`` would
    then hold the clause bit ``b``; it is absorbed exactly when a hit
    vector lies inside it.  The result is therefore the list
    ``minimal_ones`` keeps of all products, in the same order, without
    building them.
    """
    hit = [e for e in vectors if e & d]
    if len(hit) == len(vectors):
        return vectors
    bits = _clause_bits(d)
    out: list[int] = []
    for e in vectors:
        if e & d:
            out.append(e)
            continue
        for b in bits:
            v = e | b
            for k in hit:
                if k & v == k:
                    break
            else:
                out.append(v)
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


def generate_n(dis: Iterable[BitVec] | DiSet) -> list[BitVec]:
    """Fold every indicator's clause into the literal-position vectors."""
    seq = list(dis)
    if not seq:
        raise ValueError("need at least one difference indicator")
    if any(d.value == 0 for d in seq):
        raise ValueError("zero difference indicator")
    width = seq[0].width
    vectors = [0]
    for d in seq:
        check_width(width, d.width)
        vectors = _expand(vectors, d.value)
    return [BitVec(width, v) for v in vectors]


def vectors_to_pis(P: BitVec, vectors: Sequence[BitVec]) -> list[Cube]:
    """Materialise one cube per literal-position vector, values taken from P."""
    width, p = P.width, P.value
    full = (1 << width) - 1
    out: list[Cube] = []
    for e in vectors:
        check_width(width, e.width)
        free = full ^ e.value
        out.append(Cube(BitVec(width, (full ^ p) | free), BitVec(width, p | free)))
    return out


def generate_spi(P: BitVec, off_cubes: Sequence[Cube | BitVec]) -> list[Cube]:
    """All prime implicants covering ``P``, sorted by cube text.

    The function minimized is the complement of the off-set; an empty
    off-set therefore yields the single universal cube.
    """
    width = P.width
    return [
        Cube(BitVec(width, left), BitVec(width, right))
        for left, right in prime_pairs(P, OffPairs.listed(P, off_cubes))
    ]


def prime_pairs(P: BitVec, off: OffPairs) -> list[tuple[int, int]]:
    """``generate_spi`` on ints: the primes covering ``P`` as ``(left,
    right)`` pair values, in the cube-text order of the primes; an empty
    off-set leaves the universal cube.

    The off-set's minimal difference indicators are expanded into one
    literal-position vector per prime.  Every prime holds P, so two
    primes differ only at positions where one keeps P's literal and the
    other is free; at the first of them from the left the literal, '0'
    or '1', sorts before 'x'.  Literal-position vectors in descending
    order therefore give the cube-text order.
    """
    try:
        indicators = generate_sdm(P, off).elements
    except EmptyOffset:
        indicators = []
    vectors = [0]
    for d in indicators:
        vectors = _expand(vectors, d)
    full = (1 << P.width) - 1
    p = P.value
    return [(full ^ (p & e), p | (full ^ e)) for e in sorted(vectors, reverse=True)]


class _Masks(dict):
    """Per input count n, built on first use: the 2^n-bit table of every
    value; per position i, 2^i and the table of the values with bit i
    clear; and per weight k, from n down to 0, the table of the values
    with k set bits, built a position at a time: a value with bit i set
    has one bit more than the value 2^i below it."""

    def __missing__(self, n: int) -> tuple[int, list[tuple[int, int]], list[int]]:
        size = 1 << n
        per_bit = []
        layers = [1]
        for i in range(n):
            step = 1 << i
            low = (1 << step) - 1
            period = 2 * step
            while period < size:
                low |= low << period
                period *= 2
            per_bit.append((step, low))
            layers = [a | b << step for a, b in zip(layers + [0], [0] + layers)]
        masks = self[n] = ((1 << size) - 1, per_bit, layers[::-1])
        return masks


_MASKS = _Masks()


def table_pairs(P: BitVec, off: int) -> list[tuple[int, int]]:
    """``prime_pairs`` for an off-set given as the 2^n-bit table ``off``
    (bit v set when the minterm of value v is off, n the width of ``P``),
    with no indicators, no fold and no clause expansion: the set bits of
    ``prime_table``, ascending, are the primes' free masks in cube-text
    order.  Raises ``InconsistentFunction`` when P is off, which leaves
    no prime.
    """
    p, n = P.value, P.width
    frees = set_bits(prime_table(p, off, n))
    if not frees:
        raise InconsistentFunction(f"minterm {P} is in the off table")
    rest = ((1 << n) - 1) ^ p
    return [(rest | free, p | free) for free in frees]


def implicant_table(p: int, off: int, n: int) -> int:
    """The implicants through the minterm of value ``p`` as a 2^n-bit
    table indexed by free mask: bit F is set when the cube through p with
    free positions F misses the off table ``off``; 0 when p is off.

    The cube misses the off-set when no off point z has ``p ^ z`` inside
    F.  One masked shift-OR per position, the sum-over-subsets pass
    (Yates, 1937), closes the off points, each relabelled ``p ^ z`` by a
    swap of the table's halves where p has a 1, up to their supersets.
    """
    everything, per_bit, _ = _MASKS[n]
    for step, low in per_bit:
        if p & step:
            h = (off >> step) & low
            off = h | ((off | h) & low) << step
        else:
            off |= (off & low) << step
    return everything ^ off


def prime_table(p: int, off: int, n: int) -> int:
    """The primes through the minterm of value ``p`` as a 2^n-bit table
    indexed by free mask, as ``implicant_table``; 0 when p is off.  The
    primes are the implicants no one more free position keeps clear of
    the off-set: one masked shift per position marks the masks one
    position below an implicant.
    """
    good = implicant_table(p, off, n)
    blocked = 0
    for step, low in _MASKS[n][1]:
        blocked |= (good >> step) & low
    return good & ~blocked
