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
``expand_pairs`` runs this expansion on int indicator values.  Two
readers give it the reduced off-set: ``prime_pairs`` folds an
``OffPairs`` off-set with ``generate_sdm``, and ``table_sdm`` reads it
from an off-set given as one 2^n-bit truth table, as the multi-output
origins do.  ``generate_spi`` gives the primes as ``Cube``s for a listed
off-set; ``generate_n``, ``cross_or`` and ``vectors_to_pis`` expose the
expansion's steps on ``BitVec``s.

``prime_corners`` finds the same primes without indicators, from the
truth table: 2n masked shift-ORs over the table per minterm, with the
masks cached per input count, leave one table with a bit set per prime.
Its first n close the off points away from the minterm, the pass
``table_sdm`` starts from too; its last n are the one-step sweep
``table_sdm`` ends with, taken towards the minterm.  ``direct_cover``
and the multi-output lookahead read the primes there, up to the
16-input table cap.
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
    off-set leaves the universal cube."""
    try:
        indicators = generate_sdm(P, off).elements
    except EmptyOffset:
        indicators = []
    return expand_pairs(P, indicators)


def expand_pairs(P: BitVec, indicators: Iterable[int]) -> list[tuple[int, int]]:
    """The primes covering ``P`` whose minimal difference indicators are
    the values ``indicators``, as ``(left, right)`` pair values in the
    cube-text order of the primes; no indicator leaves the universal cube.

    Every prime holds P, so two primes differ only at positions where one
    keeps P's literal and the other is free; at the first of them from
    the left the literal, '0' or '1', sorts before 'x'.  Literal-position
    vectors in descending order therefore give the cube-text order.
    """
    vectors = [0]
    for d in indicators:
        vectors = _expand(vectors, d)
    full = (1 << P.width) - 1
    p = P.value
    return [(full ^ (p & e), p | (full ^ e)) for e in sorted(vectors, reverse=True)]


# per input count n: the 2^n-bit table of every value, and for each
# position i, 2^i and the table of the values with bit i clear
_TABLE_MASKS: dict[int, tuple[int, list[tuple[int, int]]]] = {}


def _table_masks(n: int) -> tuple[int, list[tuple[int, int]]]:
    masks = _TABLE_MASKS.get(n)
    if masks is None:
        size = 1 << n
        everything = (1 << size) - 1
        per_bit = []
        for i in range(n):
            step = 1 << i
            low = (1 << step) - 1
            period = 2 * step
            while period < size:
                low |= low << period
                period *= 2
            per_bit.append((step, low))
        masks = _TABLE_MASKS[n] = (everything, per_bit)
    return masks


def _closed_away(p: int, off: int, per_bit: list[tuple[int, int]]) -> int:
    """The off table closed away from p, one masked shift-OR per position
    of ``per_bit`` (up where p has a 0, down where it has a 1): bit y is
    set when some off point z has ``p ^ z`` inside ``p ^ y``."""
    for step, low in per_bit:
        if p & step:
            off |= (off >> step) & low
        else:
            off |= (off & low) << step
    return off


def _stepped_away(t: int, p: int, per_bit: list[tuple[int, int]]) -> int:
    """The points one step farther from p than a point of the table
    ``t``, one masked shift per position of ``per_bit``.  A step nearer
    p is a step farther from ``p ^ full``."""
    out = 0
    for step, low in per_bit:
        if p & step:
            out |= (t >> step) & low
        else:
            out |= (t & low) << step
    return out


def table_sdm(P: BitVec, off: int) -> list[int]:
    """``generate_sdm(P, off).elements`` for an off-set given as the
    2^n-bit table ``off`` (bit v set when the minterm of value v is off,
    n the width of ``P``): the minimal difference indicators as ascending
    int values, with no off-cover and no fold; empty for an empty table.
    Raises ``InconsistentFunction`` when P is off.

    The closed points with no closed point one step nearer p are the
    minimal ones away from p.  Each is an off point, since closing only
    adds points farther from p than one already there, and ``p ^ y`` over
    them are exactly the indicators no other indicator lies inside.
    """
    p, n = P.value, P.width
    if off >> p & 1:
        raise InconsistentFunction(f"minterm {P} is in the off table")
    per_bit = _table_masks(n)[1]
    bad = _closed_away(p, off, per_bit)
    farther = _stepped_away(bad, p, per_bit)
    return sorted(p ^ y for y in set_bits(bad & ~farther))


def prime_corners(p: int, off: int, n: int) -> int:
    """The primes covering the minterm of value ``p`` as one 2^n-bit
    table: bit y is set when the cube through p with free positions
    ``p ^ y`` is prime, where bit v of ``off`` is set when the minterm
    of value v is off.  ``p`` must not be off.

    The cube through p with free positions F misses the off-set exactly
    when no off point y has ``p ^ y`` inside F.  Closing the off points
    away from p (``_closed_away``) leaves clear exactly the points y
    whose cube with free positions ``p ^ y`` misses the off-set.  The
    primes are the maximal ones, those from which every one-step move
    away from p lands on a closed point: one more masked shift per
    position.  This is the sum-over-subsets pass (Yates, 1937) on a
    2^n-bit int.
    """
    everything, per_bit = _table_masks(n)
    good = everything ^ _closed_away(p, off, per_bit)
    # the points one step nearer p than a clear point
    blocked = _stepped_away(good, p ^ ((1 << n) - 1), per_bit)
    return good & ~blocked
