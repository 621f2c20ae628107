import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import (
    BitVec,
    Cube,
    EmptyOnset,
    InconsistentFunction,
    LogicFunction,
    TruthTable,
    coverage_mask,
    cube_text,
    direct_cover,
    equivalent,
    minimum_cover_size,
    minterm_to_cube,
    parse_pla,
    text_cube,
    verify_cover,
)
from primecover import cover
from primecover.cover import _select_index, expand_on_minterms, mask_members
from helpers import (
    bv,
    five_var_function,
    random_function,
    reference_direct_cover,
    reference_intersects,
    reference_raise_literal,
)


def test_coverage_mask_five_var():
    f = five_var_function()
    on = [BitVec(f.n, v) for v in expand_on_minterms(f)]
    mask = coverage_mask(text_cube("1x0x0"), on)
    assert {m.to_text() for m in mask_members(mask, on)} == {
        "10000",
        "10010",
        "11000",
        "11010",
    }


def test_coverage_mask_small():
    on = [bv("000"), bv("100"), bv("101"), bv("111")]
    mask = coverage_mask(text_cube("10x"), on)
    assert mask == bv("0110")
    assert {m.to_text() for m in mask_members(mask, on)} == {"100", "101"}


def test_coverage_mask_empty_list():
    assert coverage_mask(text_cube("10x"), []).width == 0


def test_coverage_mask_rejects_a_width_mismatch():
    on = [BitVec(5, 0b10000), bv("100"), bv("101")]
    with pytest.raises(ValueError, match="^width mismatch: 3 vs 5$"):
        coverage_mask(text_cube("10x"), on)


# Candidates arrive in cube-text order, as ``direct_cover`` builds them,
# so the first of the best candidates has the smallest cube text.


def test_select_epi_no_dominance_falls_to_lex():
    # "0x1" and "x01": counts tie, so the first candidate wins, in either order
    assert _select_index([0b0001100, 0b1001000]) == 0
    assert _select_index([0b1001000, 0b0001100]) == 0


def test_select_epi_count_wins():
    # "0000" before "x1x0": the second covers more, and here contains the first
    assert _select_index([0b0100, 0b1110]) == 1
    # with no mask containing the other, the count alone decides
    assert _select_index([0b0011, 0b1110]) == 1


def test_select_epi_single_candidate():
    assert _select_index([0b10]) == 0


def test_select_epi_counts_only_uncovered():
    # "000" and "111", masked with the uncovered minterms as direct_cover
    # does: restricted to the last minterm, "111" covers none and "000" dominates
    uncovered = 0b001
    masks = [0b001, 0b110]
    assert _select_index([mask & uncovered for mask in masks]) == 0
    assert _select_index(masks) == 1


def test_direct_cover_five_var():
    f = five_var_function()
    result = direct_cover(f)
    report = verify_cover(result, f)
    assert report.ok
    care = TruthTable.from_function(f)
    assert equivalent(list(result.cubes), list(f.on), care)
    assert minimum_cover_size(f) <= len(result.cubes) <= len(expand_on_minterms(f))
    assert result.iterations == len(result.cubes)


def test_direct_cover_everything_on():
    f = LogicFunction(3, tuple(minterm_to_cube(BitVec(3, v)) for v in range(8)), ())
    result = direct_cover(f)
    assert list(result.cubes) == [Cube.universal(3)]


def test_direct_cover_single_minterm():
    on = (minterm_to_cube(bv("101")),)
    off = tuple(minterm_to_cube(BitVec(3, v)) for v in range(8) if v != 0b101)
    result = direct_cover(LogicFunction(3, on, off))
    assert [cube_text(c) for c in result.cubes] == ["101"]


def test_direct_cover_rejects_bad_input():
    with pytest.raises(EmptyOnset):
        direct_cover(LogicFunction(2, (), (minterm_to_cube(bv("00")),)))
    overlapping = LogicFunction(
        2, (text_cube("1x"),), (minterm_to_cube(bv("11")),)
    )
    with pytest.raises(InconsistentFunction):
        direct_cover(overlapping)


def test_direct_cover_is_deterministic():
    rng = random.Random(50)
    for _ in range(20):
        f = random_function(rng, rng.randint(3, 6))
        first = direct_cover(f)
        second = direct_cover(f)
        assert first.cubes == second.cubes


def test_direct_cover_random_functions_verify_and_bounds():
    rng = random.Random(51)
    for _ in range(60):
        n = rng.randint(3, 7)
        f = random_function(rng, n)
        result = direct_cover(f)
        report = verify_cover(result, f)
        assert report.ok, (report.missing, report.off_conflicts, report.removable_literals)
        assert len(result.cubes) <= len(expand_on_minterms(f))
        if n <= 6:
            assert minimum_cover_size(f) <= len(result.cubes)


def test_direct_cover_handles_on_cubes_with_dont_cares():
    f = LogicFunction(
        4,
        (text_cube("1x1x"), text_cube("1x11"), text_cube("0000")),
        (text_cube("01xx"), minterm_to_cube(bv("0011"))),
    )
    result = direct_cover(f)
    assert verify_cover(result, f).ok
    # canonical origin order: row order, don't cares in binary order,
    # duplicates (all of 1x11) kept once at first occurrence
    assert expand_on_minterms(f) == [0b1010, 0b1011, 0b1110, 0b1111, 0b0000]


def test_verify_cover_flags_constructed_violations():
    f = five_var_function()
    good = direct_cover(f).cubes
    # enlarge one cube past the off-set boundary
    bad_cube = reference_raise_literal(good[0], good[0].specified_mask.bit_length() - 1)
    report = verify_cover([bad_cube, *good[1:]], f)
    assert report.off_conflicts
    # empty cover: every on-minterm is reported missing
    report = verify_cover([], f)
    assert len(report.missing) == 13
    assert not report.ok


def test_verify_cover_flags_non_prime_cube():
    f = LogicFunction(
        3,
        (minterm_to_cube(bv("000")), minterm_to_cube(bv("001"))),
        (minterm_to_cube(bv("111")),),
    )
    report = verify_cover([text_cube("00x")], f)
    assert report.ok is False
    assert report.removable_literals  # 00x can grow and still miss 111
    assert not report.missing
    assert not report.off_conflicts


def test_irredundant_sweep_drops_redundant_cubes():
    f = five_var_function()
    base = direct_cover(f)
    swept = direct_cover(f, irredundant=True)
    assert len(swept.cubes) <= len(base.cubes)
    assert verify_cover(swept, f).ok


def test_expansion_cap_guard(monkeypatch):
    monkeypatch.setattr(cover, "ON_EXPANSION_CAP", 10)
    f = LogicFunction(5, (Cube.universal(5),), ())
    halves = LogicFunction(5, (text_cube("0xxx0"), text_cube("1xxx0")), ())
    for check in (expand_on_minterms, lambda g: verify_cover([], g)):
        with pytest.raises(
            ValueError, match=r"^on-cube xxxxx alone expands past the cap of 10 minterms$"
        ):
            check(f)
        with pytest.raises(ValueError, match=r"^on-set expands past the cap of 10 minterms$"):
            check(halves)


def test_direct_cover_on_fd_file_with_cube_offset():
    # the derived off-set arrives as cubes, not minterms
    from primecover import all_primes, generate_spi
    from primecover.oracle import primes_containing

    text = ".i 4\n.o 1\n.type fd\n1--1 1\n0110 1\n0000 -\n.e\n"
    f = parse_pla(text)
    assert any(c.dc_mask for c in f.off)
    result = direct_cover(f)
    assert verify_cover(result, f).ok
    care = TruthTable.from_function(f)
    assert equivalent(list(result.cubes), list(f.on), care)
    primes = all_primes(f)
    for v in expand_on_minterms(f):
        m = BitVec(f.n, v)
        assert set(generate_spi(m, f.off)) == primes_containing(primes, m)


def test_direct_cover_medium_scale_cube_rows():
    from helpers import random_cube

    rng = random.Random(52)
    n = 12
    off = [random_cube(rng, n, dc_prob=0.25) for _ in range(200)]
    on = []
    while len(on) < 30:
        c = random_cube(rng, n, dc_prob=0.15)
        if not any(reference_intersects(c, z) for z in off):
            on.append(c)
    f = LogicFunction(n, tuple(on), tuple(off))
    started = time.perf_counter()
    result = direct_cover(f)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = verify_cover(result, f)
    assert report.ok
    assert elapsed_ms < 5000


def count_pla(n: int, counts: set[int]) -> str:
    """The ``.type fd`` file of the symmetric function that is 1 where
    the number of ones is in ``counts``, one on line per minterm; the
    parser derives its off-set."""
    rows = [f"{v:0{n}b} 1" for v in range(1 << n) if bin(v).count("1") in counts]
    return "\n".join([f".i {n}", ".o 1", ".type fd", *rows, ".e"]) + "\n"


def test_direct_cover_of_a_dense_symmetric_function_below_the_table_cap():
    # count-{3,5,7}: every on-minterm's neighbours are off, so every prime
    # is a minterm; folding the derived off-cubes per origin takes seconds
    f = parse_pla(count_pla(12, {3, 5, 7}))
    result = direct_cover(f)
    assert len(result.cubes) == 1804
    assert sum(c.literal_count for c in result.cubes) == 21648
    assert verify_cover(result, f).ok


def test_direct_cover_above_the_table_cap_folds_the_listed_off_cubes():
    from helpers import random_cube

    rng = random.Random(53)
    n = 17
    on = [random_cube(rng, n, dc_prob=0.3) for _ in range(20)]
    off: list[Cube] = []
    while len(off) < 60:
        z = random_cube(rng, n, dc_prob=0.5)
        if not any(reference_intersects(c, z) for c in on):
            off.append(z)
    f = LogicFunction(n, tuple(on), tuple(off))
    result = direct_cover(f)
    assert result == reference_direct_cover(f)
    assert verify_cover(result, f).ok


# Up to the table cap direct_cover reads its primes from one off table,
# and folds the listed off-cubes only for an origin inside it; the
# reference folds the listed off-cubes through generate_spi per origin.


def cube_lists(n: int, max_size: int) -> st.SearchStrategy[list[Cube]]:
    """Cubes with don't cares, then some of them again (duplicates)."""
    cube = st.text(alphabet="01x", min_size=n, max_size=n).map(text_cube)
    listed = st.lists(cube, max_size=max_size)
    return listed.flatmap(
        lambda cs: st.lists(st.sampled_from(cs), max_size=3).map(lambda dup: cs + dup)
        if cs
        else st.just(cs)
    )


def minterm_lists(n: int) -> st.SearchStrategy[list[Cube]]:
    return st.lists(st.integers(0, (1 << n) - 1), max_size=1 << n).map(
        lambda vs: [minterm_to_cube(BitVec(n, v)) for v in vs]
    )


@st.composite
def consistent_functions(draw) -> LogicFunction:
    """On, off and dc cubes over 1-8 inputs with no on-point in the
    off-set; the off-set may be empty, overlap itself or repeat cubes."""
    n = draw(st.integers(1, 8))
    off = draw(st.permutations(draw(cube_lists(n, 6)) + draw(minterm_lists(n))))
    off_points = {m.value for z in off for m in z.minterms()}
    free = [v for v in range(1 << n) if v not in off_points]
    on = [
        c for c in draw(cube_lists(n, 8)) if not any(c.covers_value(v) for v in off_points)
    ]
    # an off-set of every point leaves the on-set empty, on both sides
    on = on or [minterm_to_cube(BitVec(n, v)) for v in free[:1]]
    dc = draw(cube_lists(n, 3))
    return LogicFunction(n, tuple(on), tuple(off), tuple(dc))


def outcome(fn, *args, **kwargs):
    """The cover, or the type and message of the error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # InconsistentFunction and EmptyOnset included
        return (type(exc), str(exc))


@settings(deadline=None)
@given(consistent_functions(), st.booleans())
def test_direct_cover_matches_the_listed_fold(f, irredundant):
    got = outcome(direct_cover, f, irredundant=irredundant)
    assert got == outcome(reference_direct_cover, f, irredundant=irredundant)


@settings(deadline=None)
@given(st.data())
def test_direct_cover_errors_match_the_listed_fold(data):
    """An on-minterm inside a listed off-cube raises the type and message
    the listed fold raises, at the first such off-cube."""
    n = data.draw(st.integers(1, 8))
    on = data.draw(cube_lists(n, 4).filter(bool))
    off = data.draw(cube_lists(n, 6)) + data.draw(minterm_lists(n))
    off = data.draw(st.permutations(off))
    f = LogicFunction(n, tuple(on), tuple(off))
    want = outcome(reference_direct_cover, f)
    assert outcome(direct_cover, f) == want


def test_direct_cover_error_messages():
    on = (text_cube("1x"),)
    # the off-set folds as the two cubes x1 and 1x; the message names the
    # first listed off-cube holding the origin 10
    off = (text_cube("01"), text_cube("11"), text_cube("x1"), text_cube("10"))
    with pytest.raises(
        InconsistentFunction, match="^minterm 10 is contained in off-cube 10$"
    ):
        direct_cover(LogicFunction(2, on, off))
    off = (text_cube("0x"), text_cube("1x"), text_cube("10"))
    with pytest.raises(
        InconsistentFunction, match="^minterm 10 is contained in off-cube 1x$"
    ):
        direct_cover(LogicFunction(2, on, off))
