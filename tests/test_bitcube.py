import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import BitVec, Cube, cube_contains, cube_text, minterm_to_cube, text_cube
from primecover.bitcube import cube_points, raisable_literals, set_bits, table_cover
from helpers import (
    bv,
    enumerate_all_cubes,
    reference_intersects,
    reference_raise_literal,
    reference_table_cover,
)


def test_minterm_to_cube_examples():
    assert minterm_to_cube(bv("11010")) == Cube(bv("00101"), bv("11010"))
    assert minterm_to_cube(bv("000")) == Cube(bv("111"), bv("000"))
    assert minterm_to_cube(bv("101")) == Cube(bv("010"), bv("101"))


def test_cube_contains_examples():
    assert cube_contains(text_cube("xx0"), text_cube("1x0"))
    assert cube_contains(text_cube("1x0x0"), minterm_to_cube(bv("11010")))
    assert not cube_contains(text_cube("0x1"), minterm_to_cube(bv("111")))


def test_cube_intersects_examples():
    assert not reference_intersects(text_cube("0xx"), text_cube("11x"))
    assert reference_intersects(text_cube("xx0"), text_cube("11x"))
    for c in (text_cube("x1x0"), text_cube("0000"), text_cube("xxxx")):
        assert reference_intersects(c, c)


def _minterm_set(c):
    return {m.value for m in c.minterms()}


def test_containment_and_intersection_match_enumeration_exhaustive():
    cubes = list(enumerate_all_cubes(3))
    for c in cubes:
        for d in cubes:
            assert cube_contains(c, d) == (_minterm_set(d) <= _minterm_set(c))
            assert reference_intersects(c, d) == bool(_minterm_set(c) & _minterm_set(d))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_containment_and_intersection_match_enumeration_sampled(n):
    from helpers import random_cube

    rng = random.Random(n)
    for _ in range(400):
        c = random_cube(rng, n)
        d = random_cube(rng, n)
        assert cube_contains(c, d) == (_minterm_set(d) <= _minterm_set(c))
        assert reference_intersects(c, d) == bool(_minterm_set(c) & _minterm_set(d))


def test_cube_text_examples():
    assert cube_text(Cube(bv("111"), bv("011"))) == "0xx"
    assert cube_text(Cube(bv("11011"), bv("01110"))) == "0x1x0"
    assert text_cube("x") == Cube(BitVec(1, 1), BitVec(1, 1))


@pytest.mark.parametrize("text", ["0xx", "0x1x0", "x", "10x", "1x0x0", "0001x"])
def test_text_round_trip_is_identity(text):
    assert cube_text(text_cube(text)) == text


def test_text_cube_accepts_dash_alias():
    assert text_cube("1-0") == text_cube("1x0")


def test_text_cube_rejects_garbage():
    with pytest.raises(ValueError):
        text_cube("10z")
    with pytest.raises(ValueError):
        text_cube("")


def test_bitvec_text_round_trip_many_widths():
    rng = random.Random(3)
    for width in list(range(1, 65)) + [65, 100, 128]:
        for _ in range(5):
            v = BitVec(width, rng.randrange(1 << width))
            assert BitVec.from_text(v.to_text()) == v
            assert len(v.to_text()) == width


def test_bitvec_validation_and_ordering():
    with pytest.raises(ValueError):
        BitVec(3, 8)
    with pytest.raises(ValueError):
        BitVec(-1, 0)
    for text in ("", "10a", "1 0"):
        with pytest.raises(ValueError, match="not a bit string"):
            BitVec.from_text(text)
    with pytest.raises(ValueError, match="left/right width mismatch: 3 vs 2"):
        Cube(bv("111"), bv("11"))
    assert BitVec(3, 2) < BitVec(3, 5) < BitVec(4, 0)
    assert len({BitVec(3, 2), BitVec(3, 2), BitVec(4, 2)}) == 2


def test_bitvec_operators():
    a, b = bv("1100"), bv("1010")
    assert (a & b) == bv("1000")
    assert (a | b) == bv("1110")
    assert (a ^ b) == bv("0110")
    assert ~a == bv("0011")
    assert a.popcount == 2
    with pytest.raises(ValueError):
        a & bv("10100")


def test_every_cube_holds_a_minterm_exhaustive():
    """Each (left, right) pair over 1-4 variables builds a cube exactly
    when it has no 00 pair, and its minterm count, enumeration and
    membership test agree."""
    for n in range(1, 5):
        full = (1 << n) - 1
        for left in range(1 << n):
            for right in range(1 << n):
                l, r = BitVec(n, left), BitVec(n, right)
                if left | right != full:
                    with pytest.raises(ValueError, match="^a cube has no 00 bit pair$"):
                        Cube(l, r)
                    continue
                c = Cube(l, r)
                inside = [v for v in range(1 << n) if c.covers_value(v)]
                assert [m.value for m in sorted(c.minterms())] == inside
                assert c.count_minterms() == len(inside) >= 1
    with pytest.raises(TypeError):
        Cube(bv("000"), bv("000"), True)  # no third field


def test_covers_value_matches_the_cube_minterms_exhaustive():
    for n in range(1, 5):
        for c in enumerate_all_cubes(n):
            inside = _minterm_set(c)
            assert [c.covers_value(v) for v in range(1 << n)] == [
                v in inside for v in range(1 << n)
            ]


def test_cube_minterms_binary_order():
    c = text_cube("0x1x")
    assert [m.to_text() for m in c.minterms()] == ["0010", "0011", "0110", "0111"]
    assert c.count_minterms() == 4
    assert c.literal_count == 2


def test_raise_literal():
    c = text_cube("10x")
    assert cube_text(reference_raise_literal(c, 2)) == "x0x"
    with pytest.raises(ValueError):
        reference_raise_literal(c, 0)  # already a don't care
    # exhaustive: raising adds exactly the mirror image across the position
    for n in range(1, 5):
        for c in enumerate_all_cubes(n):
            for pos in range(n):
                if c.specified_mask >> pos & 1:
                    mirror = {v ^ 1 << pos for v in _minterm_set(c)}
                    raised = reference_raise_literal(c, pos)
                    assert _minterm_set(raised) == _minterm_set(c) | mirror


def test_cube_points_matches_the_cube_minterms_exhaustive():
    for n in range(1, 5):
        for c in enumerate_all_cubes(n):
            want = sum(1 << m.value for m in c.minterms())
            assert cube_points(c.left.value, c.right.value) == want


@st.composite
def truth_tables(draw) -> tuple[int, int]:
    """(points, n) over 1-8 variables; the empty and the full table are
    drawn as often as any random one."""
    n = draw(st.integers(min_value=1, max_value=8))
    full = (1 << (1 << n)) - 1
    points = draw(st.one_of(st.sampled_from((0, full)), st.integers(0, full)))
    return points, n


@settings(deadline=None)
@given(truth_tables())
def test_table_cover_covers_exactly_its_points(table):
    points, n = table
    union = 0
    for left, right in table_cover(points, n):
        c = Cube(BitVec(n, left), BitVec(n, right))  # rejects a 00 pair
        inside = sum(1 << m.value for m in c.minterms())
        assert inside & ~points == 0, cube_text(c)
        union |= inside
    assert union == points


def _check_table_cover(points, n):
    """``table_cover`` gives the reference's pairs, in its order, and each
    cube is prime in ``points``: no literal can be raised inside it."""
    cover = table_cover(points, n)
    assert cover == reference_table_cover(points, n)
    off = points ^ ((1 << (1 << n)) - 1)
    for left, right in cover:
        assert raisable_literals(left, right, cube_points(left, right), off, n) == []


@settings(deadline=None)
@given(truth_tables())
def test_table_cover_matches_the_reference_and_its_cubes_are_prime(table):
    _check_table_cover(*table)


def test_table_cover_matches_the_reference_and_its_cubes_are_prime_exhaustive():
    for n in range(1, 4):
        for points in range(1 << (1 << n)):
            _check_table_cover(points, n)


def test_table_cover_examples():
    def texts(points, n):
        return [cube_text(Cube(BitVec(n, l), BitVec(n, r))) for l, r in table_cover(points, n)]

    assert texts(0, 3) == []
    assert texts(0xFF, 3) == ["xxx"]
    # minterms 0, 1, 2, 3 and 5: the cube from 0 frees positions 0 and 1,
    # the one from 5 grows towards 1
    assert texts(0b101111, 3) == ["0xx", "x01"]


def wide_ints() -> st.SearchStrategy[int]:
    """Ints of up to 2^16 bits: 0, single bits, dense ints of any length
    and sparse ones with a few bits anywhere."""
    top = 1 << 16
    return st.one_of(
        st.just(0),
        st.integers(0, top - 1).map(lambda i: 1 << i),
        st.integers(1, top).flatmap(lambda k: st.integers(0, (1 << k) - 1)),
        st.lists(st.integers(0, top - 1), max_size=12).map(lambda vs: sum({1 << v for v in vs})),
    )


@settings(deadline=None)
@given(wide_ints())
def test_set_bits_match_the_bit_by_bit_scan(x):
    assert set_bits(x) == [i for i in range(x.bit_length()) if x >> i & 1]
