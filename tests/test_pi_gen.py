import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primecover import (
    BitVec,
    Cube,
    LogicFunction,
    all_primes,
    cross_or,
    cube_contains,
    cube_text,
    generate_m,
    generate_n,
    generate_sdm,
    generate_spi,
    minimize_n,
    minterm_to_cube,
    vectors_to_pis,
)
from primecover.bitcube import pair_text, set_bits, table_cover
from primecover.errors import InconsistentFunction
from primecover.oracle import primes_containing
from primecover.pi_gen import _expand, prime_pairs, table_pairs
from primecover.reduced_offset import OffPairs
from helpers import (
    FIVE_VAR_OFF,
    bv,
    random_function,
    reference_intersects,
    reference_raise_literal,
    three_var_function,
)


def test_generate_m_examples():
    assert set(generate_m(bv("01100"))) == {bv("01000"), bv("00100")}
    assert set(generate_m(bv("10000"))) == {bv("10000")}
    assert set(generate_m(bv("00110"))) == {bv("00100"), bv("00010")}


def test_generate_m_rejects_zero():
    with pytest.raises(ValueError):
        generate_m(BitVec(5, 0))


def test_generate_m_reconstructs_source():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 16)
        d = BitVec(n, rng.randrange(1, 1 << n))
        hots = generate_m(d)
        assert len(hots) == d.popcount
        acc = 0
        for h in hots:
            assert h.popcount == 1
            assert acc & h.value == 0
            acc |= h.value
        assert acc == d.value


def test_minimize_n_examples():
    out = minimize_n([bv("11101"), bv("11011"), bv("10101"), bv("10111")])
    assert out == [bv("11011"), bv("10101")]
    assert minimize_n([bv("10000")]) == [bv("10000")]
    assert minimize_n([bv("10100"), bv("10100")]) == [bv("10100")]


def test_cross_or_examples():
    assert cross_or([bv("10000")], [bv("01000"), bv("00100")]) == [
        bv("11000"),
        bv("10100"),
    ]
    assert cross_or([bv("11001"), bv("10101")], [bv("00100"), bv("00010")]) == [
        bv("11011"),
        bv("10101"),
    ]
    assert cross_or([bv("00000")], [bv("10000")]) == [bv("10000")]


def test_cross_or_preconditions():
    with pytest.raises(ValueError):
        cross_or([], [bv("1")])
    with pytest.raises(ValueError):
        cross_or([bv("1")], [])


def test_generate_n_and_vectors_to_pis_preconditions():
    with pytest.raises(ValueError, match="^need at least one difference indicator$"):
        generate_n([])
    with pytest.raises(ValueError, match="^zero difference indicator$"):
        generate_n([BitVec(3, 0)])
    with pytest.raises(ValueError, match="^width mismatch: 3 vs 2$"):
        vectors_to_pis(bv("101"), [bv("100"), bv("01")])


def test_trace_steps_match_the_pipeline_expansion():
    """``primes --trace`` steps ``cross_or`` over each clause's one-hot
    vectors; after every clause it holds the vectors ``_expand`` holds, in
    the same order, for a fold's indicators and for arbitrary chains."""
    rng = random.Random(24)
    for _ in range(150):
        n = rng.randint(1, 9)
        f = random_function(rng, n)
        chains = [[BitVec(n, rng.randrange(1, 1 << n)) for _ in range(rng.randint(1, 8))]]
        if f.on and f.off:
            p = next(f.on[0].minterms())
            chains.append(generate_sdm(p, f.off).elements)
        for chain in chains:
            vectors, ints = [BitVec.zeros(n)], [0]
            for d in chain:
                vectors = cross_or(vectors, generate_m(d))
                ints = _expand(ints, d.value)
                assert [v.value for v in vectors] == ints


def test_generate_n_golden():
    out = generate_n([bv("10000"), bv("01100"), bv("00001"), bv("00110")])
    assert set(out) == {bv("11011"), bv("10101")}


def test_generate_n_single_clause():
    assert generate_n([bv("10000")]) == [bv("10000")]


def test_generate_n_three_var_algebra():
    # (a or b)(b or c) multiplies out to b + ac after absorption;
    # checked against brute-force expansion of the clause product
    out = generate_n([bv("110"), bv("011")])
    assert set(out) == {bv("010"), bv("101")}
    products = set()
    for pick in itertools.product([2, 1], [1, 0]):
        products.add((1 << pick[0]) | (1 << pick[1]))
    minimal = {
        p for p in products if not any(q != p and q & p == q for q in products)
    }
    assert {v.value for v in out} == minimal


def test_vectors_to_pis_examples():
    assert [cube_text(c) for c in vectors_to_pis(bv("11010"), [bv("11011"), bv("10101")])] == [
        "11x10",
        "1x0x0",
    ]
    assert {cube_text(c) for c in vectors_to_pis(bv("101"), [bv("110"), bv("101")])} == {
        "10x",
        "1x1",
    }
    assert [cube_text(c) for c in vectors_to_pis(bv("101"), [bv("111")])] == ["101"]


def test_generate_spi_golden_five_var():
    pis = generate_spi(bv("11010"), [bv(t) for t in FIVE_VAR_OFF])
    assert [cube_text(c) for c in pis] == ["11x10", "1x0x0"]


def test_generate_spi_three_var():
    pis = generate_spi(bv("001"), [bv("000"), bv("100"), bv("111")])
    assert [cube_text(c) for c in pis] == ["0x1", "x01"]


def test_generate_spi_empty_offset_gives_universal():
    assert generate_spi(bv("0110"), []) == [Cube.universal(4)]


def test_incomparability_after_every_cross():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(2, 8)
        vecs = [BitVec(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 6))]
        clause = [
            BitVec(n, 1 << p)
            for p in rng.sample(range(n), rng.randint(1, n))
        ]
        out = cross_or(minimize_n(vecs) or [BitVec.zeros(n)], clause)
        for i, a in enumerate(out):
            for j, b in enumerate(out):
                if i != j:
                    assert not (a.value & b.value == a.value)


def test_spi_soundness_direct_checks():
    rng = random.Random(22)
    for _ in range(60):
        f = random_function(rng, rng.randint(3, 6))
        for c in f.on[: 6]:
            p = next(c.minterms())
            for pi in generate_spi(p, f.off):
                assert cube_contains(pi, minterm_to_cube(p))
                assert not any(reference_intersects(pi, z) for z in f.off)
                for pos in range(f.n):
                    if pi.specified_mask >> pos & 1:
                        raised = reference_raise_literal(pi, pos)
                        assert any(reference_intersects(raised, z) for z in f.off)


def test_spi_matches_oracle_on_random_functions():
    rng = random.Random(23)
    for _ in range(40):
        f = random_function(rng, rng.randint(3, 5))
        primes = all_primes(f)
        for c in f.on:
            p = next(c.minterms())
            got = set(generate_spi(p, f.off))
            want = primes_containing(primes, p)
            assert got == want


def test_spi_matches_oracle_with_cube_offsets():
    f = three_var_function()
    primes = all_primes(f)
    for c in f.on:
        p = next(c.minterms())
        assert set(generate_spi(p, f.off)) == primes_containing(primes, p)


@st.composite
def tables_outside(draw) -> tuple[int, int, int]:
    """(off table, n, p) over 1-8 variables with p not in the table; the
    empty table and the table of every point but p are drawn as often as
    any random one."""
    n = draw(st.integers(min_value=1, max_value=8))
    full = (1 << (1 << n)) - 1
    p = draw(st.integers(0, (1 << n) - 1))
    points = draw(st.one_of(st.sampled_from((0, full)), st.integers(0, full)))
    return points & ~(1 << p), n, p


@example((0b0110, 2, 0))
@example((0b1000, 2, 1))
@settings(deadline=None)
@given(tables_outside())
def test_table_pairs_is_the_fold_of_the_tabled_off_set(case):
    """``table_pairs`` lists the primes the paper's fold of the table's
    cubes gives, in the same order; up to 6 inputs these are also the
    primes through P that the oracle lists, in cube-text order."""
    off, n, p = case
    P = BitVec(n, p)
    pairs = table_pairs(P, off)
    assert pairs == prime_pairs(P, OffPairs(table_cover(off, n)))
    if n <= 6:
        off_cubes = [minterm_to_cube(BitVec(n, v)) for v in set_bits(off)]
        f = LogicFunction(n, [minterm_to_cube(P)], off_cubes)
        want = sorted(cube_text(c) for c in primes_containing(all_primes(f), P))
        assert [pair_text(*pair) for pair in pairs] == want


def test_table_pairs_of_an_empty_and_of_a_full_table():
    for n in range(1, 7):
        full = (1 << n) - 1
        for p in (0, full, full // 3):
            P = BitVec(n, p)
            # nothing is off: the universal cube
            assert table_pairs(P, 0) == [(full, full)]
            # every point but p is off: p alone is prime
            rest = ((1 << (1 << n)) - 1) ^ (1 << p)
            assert table_pairs(P, rest) == [(full ^ p, p)]


def test_table_pairs_rejects_a_minterm_in_the_table():
    with pytest.raises(InconsistentFunction):
        table_pairs(bv("01"), 0b0010)
