"""Property tests: the int-native fold, expansion and absorption against
the BitVec and product-then-absorb references in helpers."""

import random

from hypothesis import given
from hypothesis import strategies as st

from primecover import (
    BitVec,
    Cube,
    DiSet,
    cross_or,
    cube_text,
    generate_di,
    generate_n,
    generate_sdm,
    generate_spi,
    minimize_n,
    minimize_sr,
    reform_sdm,
    text_cube,
)
from primecover.bitcube import set_bits
from primecover.pi_gen import _expand, prime_corners, prime_pairs
from primecover.reduced_offset import OffPairs
from helpers import (
    reference_cross_or,
    reference_cube_text,
    reference_expand,
    reference_generate_di,
    reference_generate_n,
    reference_generate_sdm,
    reference_generate_spi,
    reference_minimize_n,
    reference_minimize_sr,
    reference_reform_sdm,
    reference_text_cube,
)

widths = st.integers(min_value=1, max_value=12)


def cubes(width: int) -> st.SearchStrategy[Cube]:
    return st.text(alphabet="01x", min_size=width, max_size=width).map(text_cube)


def minterms(width: int) -> st.SearchStrategy[BitVec]:
    return st.integers(0, (1 << width) - 1).map(lambda v: BitVec(width, v))


def indicators(width: int) -> st.SearchStrategy[BitVec]:
    return st.integers(1, (1 << width) - 1).map(lambda v: BitVec(width, v))


def off_items(width: int):
    return st.one_of(minterms(width), cubes(width))


def contains(z, p: BitVec) -> bool:
    return z == p if isinstance(z, BitVec) else z.covers_value(p.value)


def outcome(fn, *args, **kwargs):
    """The result of the call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # InconsistentFunction and EmptyOffset included
        return (type(exc), str(exc))


@given(st.data())
def test_generate_sdm_matches_reference(data):
    width = data.draw(widths)
    p = data.draw(minterms(width))
    off = data.draw(st.lists(off_items(width), max_size=40))
    off = [z for z in off if not contains(z, p)]
    got = outcome(generate_sdm, p, off)
    want = outcome(reference_generate_sdm, p, off)
    assert got == want  # elements, comparisons and absorptions


@given(st.data())
def test_generate_sdm_errors_match_reference(data):
    """Off-cubes containing P and other widths raise the same error at the
    same off-cube."""
    width = data.draw(widths)
    p = data.draw(minterms(width))
    other = data.draw(st.integers(1, 13).filter(lambda w: w != width))
    bad = st.one_of(
        minterms(other),
        cubes(other),
        st.just(Cube(~p, p)),
        st.just(Cube.universal(width)),
    )
    off = data.draw(st.lists(st.one_of(off_items(width), bad), min_size=1, max_size=20))
    got = outcome(generate_sdm, p, off)
    want = outcome(reference_generate_sdm, p, off)
    assert got == want
    for z in off:
        assert outcome(generate_di, p, z) == outcome(reference_generate_di, p, z)


@given(st.data())
def test_generate_sdm_on_off_pairs_matches_the_listed_fold(data):
    """Folded as int pairs, an off-set gives the listed fold's values and
    counters, and raises what it raises: at the first off-cube holding P."""
    width = data.draw(widths)
    p = data.draw(minterms(width))
    extra = st.just(Cube(~p, p))
    off = data.draw(st.lists(st.one_of(cubes(width), extra), max_size=20))
    pairs = OffPairs([(z.left.value, z.right.value) for z in off])
    got = outcome(generate_sdm, p, pairs)
    want = outcome(generate_sdm, p, off)
    if isinstance(want, DiSet):
        want = DiSet([e.value for e in want], want.comparisons, want.absorptions)
    assert got == want


@given(st.data())
def test_generate_spi_matches_reference(data):
    """The same primes in the same order, also for an empty off-set, and
    the same error on an off-cube holding P or of another width."""
    width = data.draw(widths)
    p = data.draw(minterms(width))
    other = data.draw(st.integers(1, 13).filter(lambda w: w != width))
    bad = st.one_of(
        minterms(other),
        cubes(other),
        st.just(Cube(~p, p)),
    )
    off = data.draw(st.lists(off_items(width), max_size=30))
    off = [z for z in off if not contains(z, p)]
    assert generate_spi(p, off) == reference_generate_spi(p, off)
    if data.draw(st.booleans()):
        off.insert(data.draw(st.integers(0, len(off))), data.draw(bad))
        got = outcome(generate_spi, p, off)
        want = outcome(reference_generate_spi, p, off)
        assert isinstance(want, tuple) and got == want


@given(st.data())
def test_expand_chain_matches_products_then_absorption(data):
    """Berge's step gives the ordered vectors that multiplying out and
    absorbing every product gives, after every clause of a chain from
    [0]: also for repeated, nested, single-bit and all-ones clauses."""
    width = data.draw(st.integers(1, 16))
    full = (1 << width) - 1
    got = want = [0]
    seq: list[int] = []
    for _ in range(data.draw(st.integers(1, 12))):
        kinds = ("any", "bit", "all") + (("same", "inside", "around") if seq else ())
        kind = data.draw(st.sampled_from(kinds))
        if kind == "any":
            d = data.draw(st.integers(1, full))
        elif kind == "bit":
            d = 1 << data.draw(st.integers(0, width - 1))
        elif kind == "all":
            d = full
        else:
            prev = data.draw(st.sampled_from(seq))
            mask = data.draw(st.integers(0, full))
            if kind == "same":
                d = prev
            elif kind == "inside":
                d = prev & mask or prev & -prev
            else:
                d = prev | mask
        seq.append(d)
        got = _expand(got, d)
        want = reference_expand(want, d)
        assert got == want, seq


@given(st.data())
def test_prime_pairs_match_reference(data):
    """An ``OffPairs`` off-set gives the pairs of the reference primes, in
    their cube-text order, also when it is empty."""
    width = data.draw(widths)
    p = data.draw(minterms(width))
    off = data.draw(st.lists(cubes(width), max_size=30))
    off = [z for z in off if not contains(z, p)]
    pairs = OffPairs([(z.left.value, z.right.value) for z in off])
    want = [(c.left.value, c.right.value) for c in reference_generate_spi(p, off)]
    assert prime_pairs(p, pairs) == want


def listed_primes(n: int, p: int, off: int) -> list[tuple[int, int]]:
    """``prime_pairs`` of ``p`` over the off minterms of the table ``off``."""
    full = (1 << n) - 1
    points = [v for v in range(1 << n) if off >> v & 1]
    return prime_pairs(BitVec(n, p), OffPairs([(full ^ v, v) for v in points]))


def corners(p: int, primes: list[tuple[int, int]]) -> list[int]:
    """The corner p ^ free of each prime through ``p``, ascending."""
    return sorted(p ^ (left & right) for left, right in primes)


@given(st.data())
def test_table_primes_match_the_listed_fold(data):
    """The corners ``prime_corners`` sets on a truth table are p ^ free
    for exactly the fold's primes, for any off table without the origin,
    dense or sparse."""
    n = data.draw(st.integers(1, 10))
    p = data.draw(st.integers(0, (1 << n) - 1))
    sparse = st.lists(st.integers(0, (1 << n) - 1), max_size=12).map(
        lambda vs: sum({1 << v for v in vs})
    )
    table = data.draw(st.one_of(st.integers(0, (1 << (1 << n)) - 1), sparse))
    table &= ~(1 << p)
    listed = listed_primes(n, p, table)
    assert set_bits(prime_corners(p, table, n)) == corners(p, listed)


def test_table_primes_on_the_empty_and_the_fullest_tables():
    """No off point leaves the universal cube; every point but the origin
    leaves the origin's minterm."""
    for n in range(1, 7):
        full = (1 << n) - 1
        everything = (1 << (1 << n)) - 1
        for p in range(1 << n):
            assert listed_primes(n, p, 0) == [(full, full)]
            assert set_bits(prime_corners(p, 0, n)) == corners(p, [(full, full)])
            rest = everything ^ (1 << p)
            assert listed_primes(n, p, rest) == [(full ^ p, p)]
            assert set_bits(prime_corners(p, rest, n)) == corners(p, [(full ^ p, p)])


@given(st.data())
def test_reform_sdm_matches_reference(data):
    width = data.draw(widths)
    elements = data.draw(st.lists(indicators(width), max_size=12))
    d = data.draw(
        st.one_of(indicators(width), st.just(BitVec(width, 0)), indicators(width % 12 + 1))
    )
    got = DiSet(elements, comparisons=3, absorptions=1)
    want = DiSet(elements, comparisons=3, absorptions=1)
    assert outcome(reform_sdm, got, d) == outcome(reference_reform_sdm, want, d)
    assert got == want


@given(st.data())
def test_generate_n_matches_reference(data):
    width = data.draw(widths)
    dis = data.draw(st.lists(indicators(width), min_size=1, max_size=6))
    assert generate_n(dis) == reference_generate_n(dis)
    mixed = dis + data.draw(st.lists(indicators(width % 12 + 1), min_size=1, max_size=2))
    assert outcome(generate_n, mixed) == outcome(reference_generate_n, mixed)
    # the indicators of a fold, as the pipeline feeds them
    p = data.draw(minterms(width))
    off = data.draw(st.lists(off_items(width), min_size=1, max_size=30))
    off = [z for z in off if not contains(z, p)]
    if off:
        sdm = generate_sdm(p, off)
        assert generate_n(sdm.elements) == reference_generate_n(sdm.elements)


@given(st.data())
def test_cross_or_and_minimize_n_match_reference(data):
    width = data.draw(widths)
    vectors = data.draw(st.lists(minterms(width), max_size=12))
    clauses = data.draw(st.lists(minterms(width), max_size=6))
    assert minimize_n(vectors) == reference_minimize_n(vectors)
    assert outcome(cross_or, vectors, clauses) == outcome(reference_cross_or, vectors, clauses)


@given(st.data())
def test_minimize_sr_matches_reference(data):
    width = data.draw(widths)
    listed = data.draw(st.lists(cubes(width), max_size=12))
    listed += data.draw(st.lists(st.sampled_from(listed), max_size=4)) if listed else []
    listed = data.draw(st.permutations(listed))
    assert minimize_sr(listed) == reference_minimize_sr(listed)


@given(st.data())
def test_minimize_sr_rejects_mixed_widths(data):
    width = data.draw(widths)
    listed = data.draw(st.lists(cubes(width), min_size=1, max_size=6))
    odd = data.draw(cubes(width % 12 + 1))
    expected = f"width mismatch: {width} vs {odd.width}"
    assert outcome(minimize_sr, listed + [odd]) == (ValueError, expected)
    assert outcome(reference_minimize_sr, listed + [odd])[0] is ValueError


@given(st.integers(1, 69).flatmap(cubes))
def test_cube_text_matches_per_position_renderer(c):
    text = cube_text(c)
    assert text == reference_cube_text(c)
    assert text_cube(text) == c


# besides the cube characters: characters int() would accept in a
# base-2 literal (sign, underscore, space, a non-ASCII digit) and others
@given(st.text(alphabet="01x-01x-+_ \u0661z", max_size=40))
def test_text_cube_matches_per_character_parser(s):
    assert outcome(text_cube, s) == outcome(reference_text_cube, s)


def test_cube_text_past_the_decimal_digit_limit():
    rng = random.Random(3)
    c = text_cube("".join(rng.choice("01x") for _ in range(5000)))
    assert cube_text(c) == reference_cube_text(c)
