import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import (
    BitVec,
    CoverResult,
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
    pair_text,
    parse_pla,
    TaggedCube,
    text_cube,
    verify_cover,
    verify_multi,
    write_pla,
)
from primecover import cover
from primecover.cover import expand_on_minterms, mask_members
from helpers import (
    as_cubes,
    bv,
    cube_pair,
    five_var_function,
    pairwise_verify_cover,
    random_function,
    reference_direct_cover,
    reference_intersects,
    reference_raise_literal,
    reference_validate,
    reference_verify_cover,
    three_var_function,
    tri_output_function,
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


def test_mask_members_rejects_a_mask_of_another_width():
    # one bit per item: a wider or narrower mask would misindex silently
    for mask in (BitVec(5, 0b10000), BitVec(2, 0b11)):
        with pytest.raises(ValueError, match=f"^width mismatch: {mask.width} vs 3$"):
            mask_members(mask, ["a", "b", "c"])
    assert mask_members(BitVec(3, 0b101), ["a", "b", "c"]) == ["a", "c"]


def test_coverage_mask_empty_list():
    assert coverage_mask(text_cube("10x"), []).width == 0
    assert str(coverage_mask(text_cube("10x"), [])) == ""


def test_coverage_mask_rejects_a_width_mismatch():
    on = [BitVec(5, 0b10000), bv("100"), bv("101")]
    with pytest.raises(ValueError, match="^width mismatch: 3 vs 5$"):
        coverage_mask(text_cube("10x"), on)


# Above the table cap ``direct_cover`` scores each origin's primes as
# ``prime_pairs`` lists them, in cube-text order.  Each case is a 3-input
# function whose rows lead with 14 zeros, so that it has 17 inputs: no
# off-row opposes a leading zero, so those positions are free in every
# prime, and each committed cube is 14 x's and a prime of the small function.


def assert_listed_cover(on: list[str], off: list[str], expected: list[str]) -> None:
    pad = "0" * 14
    f = LogicFunction(17, [text_cube(pad + t) for t in on], [text_cube(pad + t) for t in off])
    result = direct_cover(f)
    assert result == reference_direct_cover(f)
    assert [pair_text(*pair) for pair in result.cubes] == ["x" * 14 + t for t in expected]


def test_listed_greedy_count_wins():
    # origin 000: x00 covers 000 and 100, 0x0 only 000; x00 wins though
    # 0x0 comes first, and its mask contains 0x0's
    assert_listed_cover(["000", "100"], ["001", "110"], ["x00"])
    # origin 101: 1xx covers 101 and 100, xx1 also 011 and 001; with no
    # mask containing the other, the count alone decides
    assert_listed_cover(["101", "011", "100", "001"], ["000"], ["xx1", "1xx"])


def test_listed_greedy_tie_goes_to_cube_text_order():
    # origin 000: 00x and 0x0 cover two each; origin 010: 0x0 and x10 one each
    assert_listed_cover(["000", "001", "010"], ["100", "011"], ["00x", "0x0"])


def test_listed_greedy_counts_only_uncovered():
    # origin 000: 0xx and xx0 cover three each, and 0xx is first in cube
    # text; then origin 100: xx0 holds three on-minterms and x0x two, but
    # each holds only 100 uncovered, so the tie goes to x0x
    assert_listed_cover(["000", "010", "011", "100"], ["111"], ["0xx", "x0x"])


def test_listed_greedy_single_candidate():
    # every neighbour of 000 is off: its only prime is itself
    assert_listed_cover(["000"], ["001", "010", "100"], ["000"])


def test_table_branch_commits_the_smaller_cube_text_on_a_tie():
    """The first origin's two primes cover equally many uncovered
    on-minterms; the one first in cube-text order is committed, though
    the origin's corners come in the other order."""
    off = [text_cube("000"), text_cube("100")]
    f = LogicFunction(3, [text_cube(t) for t in ("011", "110", "101")], off)
    # origin 011, below it only don't cares: x1x (corner 110) and xx1
    # (corner 101) cover two each; then origin 101 has the one prime xx1
    assert [cube_text(c) for c in as_cubes(direct_cover(f).cubes, 3)] == ["x1x", "xx1"]


def test_direct_cover_five_var():
    f = five_var_function()
    result = direct_cover(f)
    report = verify_cover(result, f)
    assert report.ok
    care = TruthTable.from_function(f)
    assert equivalent(as_cubes(result.cubes, f.n), list(f.on), care)
    assert minimum_cover_size(f) <= len(result.cubes) <= len(expand_on_minterms(f))
    assert result.iterations == len(result.cubes)
    # direct_cover takes no options: a stale keyword raises, not ignored
    with pytest.raises(TypeError, match="irredundant"):
        direct_cover(f, irredundant=True)


def test_direct_cover_everything_on():
    f = LogicFunction(3, tuple(minterm_to_cube(BitVec(3, v)) for v in range(8)), ())
    result = direct_cover(f)
    assert as_cubes(result.cubes, 3) == [Cube.universal(3)]


def test_direct_cover_single_minterm():
    on = (minterm_to_cube(bv("101")),)
    off = tuple(minterm_to_cube(BitVec(3, v)) for v in range(8) if v != 0b101)
    result = direct_cover(LogicFunction(3, on, off))
    assert [cube_text(c) for c in as_cubes(result.cubes, 3)] == ["101"]


def test_direct_cover_rejects_bad_input():
    with pytest.raises(EmptyOnset):
        direct_cover(LogicFunction(2, (), (minterm_to_cube(bv("00")),)))
    # an overlapping function cannot be built, so direct_cover never meets one
    with pytest.raises(InconsistentFunction, match="^on-cube 1x intersects off-cube 11$"):
        LogicFunction(2, (text_cube("1x"),), (minterm_to_cube(bv("11")),))


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
    # origins ascend by value whatever the row order, and the points
    # two rows share (all of 1x11) come once
    assert expand_on_minterms(f) == [0b0000, 0b1010, 0b1011, 0b1110, 0b1111]


def test_verify_cover_flags_constructed_violations():
    f = five_var_function()
    good = direct_cover(f).cubes
    first = as_cubes(good, f.n)[0]
    # enlarge one cube past the off-set boundary
    bad_cube = reference_raise_literal(first, first.specified_mask.bit_length() - 1)
    report = verify_cover([cube_pair(bad_cube), *good[1:]], f)
    assert report.off_conflicts
    # empty cover: every on-minterm is reported missing
    report = verify_cover([], f)
    assert len(report.missing) == 13
    assert not report.ok
    with pytest.raises(ValueError, match=r"^\(0b111, 0b1110\) is not a cube over 5 inputs$"):
        verify_cover([*good, cube_pair(text_cube("1xx0"))], f)


@pytest.mark.parametrize(
    "bad, name",
    [
        ((0b100, 0b001), r"\(0b100, 0b1\)"),  # position 1 is a 00 pair
        ((0b1111, 0b0111), r"\(0b1111, 0b111\)"),  # bit 3 lies past 3 inputs
    ],
)
def test_pair_entries_refuse_a_pair_that_is_not_a_cube(bad, name):
    """Each public entry that reads a cover's pairs names the first pair
    that is not a cube over n inputs."""
    message = rf"^{name} is not a cube over 3 inputs$"
    f, g = three_var_function(), tri_output_function()
    for check in (
        lambda: verify_cover([bad], f),
        lambda: verify_cover(CoverResult((bad,), 1), f),
        lambda: verify_multi([TaggedCube(bad, 0b1)], g),
        lambda: write_pla([bad], 3),
        lambda: write_pla([TaggedCube(bad, 0b1)], 3, outputs=3),
    ):
        with pytest.raises(ValueError, match=message):
            check()


def test_verify_cover_flags_non_prime_cube():
    f = LogicFunction(
        3,
        (minterm_to_cube(bv("000")), minterm_to_cube(bv("001"))),
        (minterm_to_cube(bv("111")),),
    )
    report = verify_cover([cube_pair(text_cube("00x"))], f)
    assert report.ok is False
    assert report.removable_literals  # 00x can grow and still miss 111
    assert not report.missing
    assert not report.off_conflicts


def test_expansion_cap_guard(monkeypatch):
    """``expand_on_minterms`` is capped at every width; ``direct_cover``
    and ``verify_cover`` expand the on-set only above the table cap."""
    monkeypatch.setattr(cover, "ON_EXPANSION_CAP", 10)
    small = [expand_on_minterms]
    large = [expand_on_minterms, direct_cover, lambda g: verify_cover([], g)]
    for pad, checks in (("", small), ("0" * 12, large)):
        n = len(pad) + 5
        f = LogicFunction(n, (text_cube(pad + "xxxxx"),), ())
        halves = LogicFunction(n, (text_cube(pad + "0xxx0"), text_cube(pad + "1xxx0")), ())
        for check in checks:
            with pytest.raises(
                ValueError, match=rf"^on-cube {pad}xxxxx alone expands past the cap of 10 minterms$"
            ):
                check(f)
            with pytest.raises(ValueError, match=r"^on-set expands past the cap of 10 minterms$"):
                check(halves)
        if not pad:
            # the table regime lists the 16 missing points past the cap
            assert len(verify_cover([], halves).missing) == 16


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
    assert equivalent(as_cubes(result.cubes, f.n), list(f.on), care)
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
    assert sum(c.literal_count for c in as_cubes(result.cubes, f.n)) == 21648
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
# above it from a fold of the listed off-cubes; the reference folds the
# listed off-cubes through generate_spi per origin.


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


@pytest.mark.parametrize("cap", [cover.TABLE_CAP, 0], ids=["table", "listed"])
@settings(deadline=None)
@given(consistent_functions())
def test_direct_cover_matches_the_listed_fold(cap, f):
    """Both regimes of the one greedy loop cover as the reference does:
    with the table cap at 0 every function is covered as one above it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover, "TABLE_CAP", cap)
        got = outcome(direct_cover, f)
    assert got == outcome(reference_direct_cover, f)


@pytest.mark.parametrize("pad", [0, 14], ids=["table", "listed"])
@settings(deadline=None)
@given(st.data())
def test_a_cover_depends_only_on_the_on_and_off_points(pad, data):
    """Listing a function's on-rows in another order, or one on-row as its
    minterms, leaves the cover's PLA text byte for byte as it was.  With
    14 leading zeros on every row the function has 17 inputs and is
    covered above the table cap."""
    f = data.draw(consistent_functions().filter(lambda f: f.on))
    k = data.draw(st.integers(0, len(f.on) - 1))
    split = data.draw(st.permutations([minterm_to_cube(m) for m in f.on[k].minterms()]))
    variants = [
        list(f.on),
        data.draw(st.permutations(f.on)),
        [*f.on[:k], *split, *f.on[k + 1 :]],
    ]
    n = f.n + pad

    def padded(cubes) -> tuple[Cube, ...]:
        return tuple(text_cube("0" * pad + cube_text(c)) for c in cubes)

    texts = {
        write_pla(direct_cover(LogicFunction(n, padded(on), padded(f.off), padded(f.dc))).cubes, n)
        for on in variants
    }
    assert len(texts) == 1


@settings(deadline=None)
@given(st.data())
def test_direct_cover_errors_match_the_listed_fold(data):
    """An on-minterm inside a listed off-cube makes building the function
    raise the pairwise check's type and message, at the first on-cube
    meeting an off-cube and the first off-cube it meets, so direct_cover
    never meets one; a function that builds is covered as the listed
    fold covers it."""
    n = data.draw(st.integers(1, 8))
    on = data.draw(cube_lists(n, 4).filter(bool))
    off = data.draw(cube_lists(n, 6)) + data.draw(minterm_lists(n))
    off = data.draw(st.permutations(off))
    want = outcome(reference_validate, on, off)
    got = outcome(LogicFunction, n, tuple(on), tuple(off))
    if want is None:
        assert outcome(direct_cover, got) == outcome(reference_direct_cover, got)
    else:
        assert got == want


def test_direct_cover_error_messages():
    """Building the function names the first on-cube meeting an off-cube
    and the first listed off-cube it meets; the fold's own message, for a
    minterm inside an off-cube, is checked by the generate_sdm and
    generate_spi tests and by the CLI's primes exit 3."""
    on = (text_cube("1x"),)
    off = (text_cube("01"), text_cube("11"), text_cube("x1"), text_cube("10"))
    with pytest.raises(InconsistentFunction, match="^on-cube 1x intersects off-cube 11$"):
        LogicFunction(2, on, off)
    off = (text_cube("0x"), text_cube("1x"), text_cube("10"))
    with pytest.raises(InconsistentFunction, match="^on-cube 1x intersects off-cube 1x$"):
        LogicFunction(2, on, off)


def test_direct_cover_expands_into_dont_care_rows():
    # the first cube, 00xx, is chosen for the on-points 0001 and 0011 and
    # takes in the don't-care points 0000 and 0010; the next two cubes
    # cover those on-points as well, and the greedy loop keeps all three
    f = parse_pla(".i 4\n.o 1\n.type fd\n0-01 1\n00-- -\n-011 1\n.e\n")
    assert [cube_text(c) for c in as_cubes(direct_cover(f).cubes, 4)] == ["00xx", "0x01", "x011"]


def narrowed(c: Cube, pos: int, value: bool) -> Cube:
    """``c`` with its free bit position ``pos`` fixed to ``value``."""
    bit = 1 << pos
    return Cube(
        BitVec(c.width, c.left.value & ~bit if value else c.left.value),
        BitVec(c.width, c.right.value if value else c.right.value & ~bit),
    )


def assert_same_report(cubes: list[Cube], f: LogicFunction) -> None:
    cover_ = [cube_pair(c) for c in cubes]
    got, want = verify_cover(cover_, f), reference_verify_cover(cover_, f)
    assert got.missing == want.missing
    assert got.off_conflicts == want.off_conflicts
    assert got.removable_literals == want.removable_literals


@settings(deadline=None)
@given(st.data())
def test_verify_cover_reads_the_listed_report_from_the_tables(data):
    """Up to the table cap verify_cover reads the truth tables; its report
    equals the listed one field for field and in order: on the direct
    cover, with a cube dropped, with a cube narrowed off a prime, with the
    universal cube added, and on random covers."""
    n = data.draw(st.integers(1, 10))
    minterms = st.lists(st.integers(0, (1 << n) - 1), max_size=12).map(
        lambda vs: [minterm_to_cube(BitVec(n, v)) for v in vs]
    )
    off = data.draw(st.permutations(data.draw(cube_lists(n, 6)) + data.draw(minterms)))
    on = data.draw(cube_lists(n, 6))
    on = [c for c in on if not any(reference_intersects(c, z) for z in off)]
    f = LogicFunction(n, tuple(on), tuple(off), tuple(data.draw(cube_lists(n, 2))))
    universal = Cube.universal(n)
    covers = [[universal], data.draw(cube_lists(n, 6)), data.draw(cube_lists(n, 6))]
    if on:
        good = as_cubes(direct_cover(f).cubes, n)
        k = data.draw(st.integers(0, len(good) - 1))
        covers += [good, good[:k] + good[k + 1 :], good + [universal]]
        free = [p for p in range(n) if good[k].dc_mask >> p & 1]
        if free:
            c = narrowed(good[k], data.draw(st.sampled_from(free)), data.draw(st.booleans()))
            covers.append(good[:k] + [c] + good[k + 1 :])
    for cover_ in covers:
        assert_same_report(cover_, f)


def test_verify_cover_above_the_table_cap_lists_the_same_report():
    from helpers import random_cube

    rng = random.Random(71)
    n = 17
    on = [random_cube(rng, n, dc_prob=0.3) for _ in range(12)]
    off: list[Cube] = []
    while len(off) < 40:
        z = random_cube(rng, n, dc_prob=0.5)
        if not any(reference_intersects(c, z) for c in on):
            off.append(z)
    f = LogicFunction(n, tuple(on), tuple(off))
    good = as_cubes(direct_cover(f).cubes, n)
    k = next(i for i, c in enumerate(good) if c.dc_mask)
    pos = (good[k].dc_mask & -good[k].dc_mask).bit_length() - 1
    covers = [
        good,
        good[1:],
        good[:k] + [narrowed(good[k], pos, True)] + good[k + 1 :],
        good + [Cube.universal(n)],
    ]
    for cubes in covers:
        assert_same_report(cubes, f)
        cover_ = [cube_pair(c) for c in cubes]
        assert verify_cover(cover_, f) == pairwise_verify_cover(cover_, f)
    assert verify_cover(direct_cover(f), f).ok
    assert not any(verify_cover([cube_pair(c) for c in cubes], f).ok for cubes in covers[1:])
