import random

import pytest

from primecover import (
    BitVec,
    DiSet,
    EmptyOffset,
    InconsistentFunction,
    cube_contains,
    cube_text,
    derive_rc,
    generate_di,
    generate_sdm,
    minimize_sr,
    minterm_to_cube,
    reduce_off_cube,
    reform_sdm,
    text_cube,
)
from helpers import FIVE_VAR_OFF, bv, random_cube


def test_generate_di_minterm_examples():
    assert generate_di(bv("101"), bv("001")) == bv("100")
    assert generate_di(bv("11010"), bv("00001")) == bv("11011")


def test_generate_di_on_off_cubes():
    assert generate_di(bv("101"), text_cube("0x0")) == bv("101")
    with pytest.raises(InconsistentFunction):
        generate_di(bv("101"), text_cube("1x1"))


def test_generate_di_equals_plain_xor_on_minterms():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 8)
        p = BitVec(n, rng.randrange(1 << n))
        z = BitVec(n, rng.randrange(1 << n))
        if p == z:
            continue
        assert generate_di(p, z) == p ^ z


def test_reform_sdm_examples():
    s = DiSet([bv("11011"), bv("11110")])
    reform_sdm(s, bv("11100"))
    assert set(s) == {bv("11011"), bv("11100")}
    assert (s.comparisons, s.absorptions) == (2, 1)

    s = DiSet([bv("11011"), bv("11100")])
    reform_sdm(s, bv("10000"))
    assert set(s) == {bv("10000")}
    assert (s.comparisons, s.absorptions) == (2, 2)

    s = DiSet([bv("10000")])
    reform_sdm(s, bv("10101"))
    assert set(s) == {bv("10000")}
    assert (s.comparisons, s.absorptions) == (1, 1)


def test_reform_sdm_rejects_zero():
    with pytest.raises(ValueError):
        reform_sdm(DiSet([bv("100")]), BitVec(3, 0))


def test_golden_trace_totals_and_checkpoints():
    """Stepping reform_sdm over the golden off-set, as ``primes --trace``
    does, passes the worked example's checkpoints and ends at the set and
    counters of one generate_sdm call."""
    P = bv("11010")
    off = [bv(t) for t in FIVE_VAR_OFF]
    S = DiSet([BitVec.ones(5)])
    dis, kept, comparisons = [], [], []
    for z in off:
        before = S.comparisons
        dis.append(generate_di(P, z))
        reform_sdm(S, dis[-1])
        kept.append(set(S.elements))
        comparisons.append(S.comparisons - before)
    sdm = generate_sdm(P, off)
    assert sdm == S
    assert set(sdm) == {bv("10000"), bv("01100"), bv("00001"), bv("00110")}
    assert sdm.comparisons == 29
    assert sdm.absorptions == 13
    assert sum(comparisons) == 29
    # surviving sets at a few fold points
    assert kept[3] == {bv("10000")}
    assert kept[12] == {bv("00001"), bv("01100"), bv("10000")}
    assert kept[7] == {bv("01001"), bv("01110"), bv("10000")}
    assert dis[:4] == [bv("11011"), bv("11110"), bv("11100"), bv("10000")]


def test_generate_sdm_small_example():
    sdm = generate_sdm(bv("101"), [bv("001"), bv("110")])
    assert set(sdm) == {bv("100"), bv("011")}


def test_generate_sdm_empty_offset():
    with pytest.raises(EmptyOffset):
        generate_sdm(bv("101"), [])


def test_generate_sdm_inconsistent():
    with pytest.raises(InconsistentFunction):
        generate_sdm(bv("101"), [bv("000"), bv("101")])


def test_reduce_off_cube_examples():
    assert cube_text(reduce_off_cube(bv("001"), bv("000"))) == "xx0"
    assert cube_text(reduce_off_cube(bv("001"), bv("111"))) == "11x"
    assert cube_text(reduce_off_cube(bv("101"), bv("110"))) == "x10"
    with pytest.raises(ValueError, match="width mismatch: 3 vs 4"):
        reduce_off_cube(bv("101"), bv("1100"))


def test_derive_rc_examples():
    assert cube_text(derive_rc(bv("101"), bv("100"))) == "0xx"
    assert cube_text(derive_rc(bv("101"), bv("011"))) == "x10"
    assert cube_text(derive_rc(bv("101"), bv("111"))) == "010"
    with pytest.raises(ValueError, match="width mismatch: 3 vs 2"):
        derive_rc(bv("101"), bv("11"))


def test_minimize_sr_examples():
    out = minimize_sr([text_cube("xx0"), text_cube("1x0"), text_cube("11x")])
    assert {cube_text(c) for c in out} == {"xx0", "11x"}
    assert minimize_sr([text_cube("0xx")]) == [text_cube("0xx")]
    assert minimize_sr([text_cube("0xx"), text_cube("0xx")]) == [text_cube("0xx")]


def test_round_trip_derive_after_di_equals_direct_reduction():
    rng = random.Random(5)
    checked = 0
    while checked < 2000:
        n = rng.randint(2, 8)
        p = BitVec(n, rng.randrange(1 << n))
        z = random_cube(rng, n)
        if z.covers_value(p.value):
            continue
        assert derive_rc(p, generate_di(p, z)) == reduce_off_cube(p, z)
        checked += 1


def test_sdm_pairwise_incomparable():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(3, 7)
        p = BitVec(n, rng.randrange(1 << n))
        off = [
            BitVec(n, v)
            for v in rng.sample(range(1 << n), rng.randint(1, (1 << n) - 1))
            if v != p.value
        ]
        if not off:
            continue
        elements = list(generate_sdm(p, off))
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if i != j:
                    assert not (a.value & b.value == a.value)


def test_coverage_preserved_exhaustively_small():
    import itertools

    n = 3
    for r in range(1, 5):
        for off_values in itertools.combinations(range(1 << n), r):
            for pv in range(1 << n):
                if pv in off_values:
                    continue
                p = BitVec(n, pv)
                off = [BitVec(n, v) for v in off_values]
                sdm = generate_sdm(p, off)
                rcs = [derive_rc(p, d) for d in sdm]
                for z in off:
                    reduced = reduce_off_cube(p, z)
                    assert any(cube_contains(rc, reduced) for rc in rcs)


def test_coverage_preserved_sampled():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(4, 6)
        p = BitVec(n, rng.randrange(1 << n))
        off = []
        while len(off) < rng.randint(2, 10):
            z = random_cube(rng, n)
            if not z.covers_value(p.value):
                off.append(z)
        sdm = generate_sdm(p, off)
        rcs = [derive_rc(p, d) for d in sdm]
        for z in off:
            assert any(cube_contains(rc, reduce_off_cube(p, z)) for rc in rcs)


def test_sdm_is_permutation_insensitive_as_a_set():
    rng = random.Random(9)
    p = bv("11010")
    off = [bv(t) for t in FIVE_VAR_OFF]
    baseline = set(generate_sdm(p, off))
    for _ in range(20):
        shuffled = off[:]
        rng.shuffle(shuffled)
        assert set(generate_sdm(p, shuffled)) == baseline


def test_sdm_from_off_cubes_matches_minterm_expansion():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(3, 6)
        p = BitVec(n, rng.randrange(1 << n))
        cubes = []
        while len(cubes) < rng.randint(1, 5):
            z = random_cube(rng, n)
            if not z.covers_value(p.value):
                cubes.append(z)
        expanded = [m for z in cubes for m in z.minterms()]
        assert set(generate_sdm(p, cubes)) == set(generate_sdm(p, expanded))


def test_di_set_orders_elements_ascending():
    s = generate_sdm(bv("11010"), [bv(t) for t in FIVE_VAR_OFF])
    assert s.elements == sorted(s.elements)
    assert minterm_to_cube(bv("11010")).width == s.elements[0].width
