import itertools
import random

import pytest

from primecover import (
    BitVec,
    Cube,
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
from primecover.oracle import primes_containing
from primecover.pi_gen import _expand
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
