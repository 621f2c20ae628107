import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primecover import (
    BitVec,
    EmptyOnset,
    MultiFunction,
    coverage_mask,
    cube_text,
    edsa_minimize,
    generate_sdm,
    generate_spi,
    minterm_to_cube,
    parse_pla,
    subfunction_off,
    text_cube,
)
from primecover.bitcube import Cube, check_items, set_bits, table_cover, tagged_text
from primecover.multi_output import _best_pi, _lightest, verify_multi
from primecover.pla_io import _scan
from helpers import (
    TRI_OUTPUT_COVER,
    as_cubes,
    bv,
    cube_pair,
    multi_function,
    pair_cube,
    reference_best_pi,
    reference_edsa_minimize,
    reference_intersects,
    reference_subfunction_off,
    reference_verify_multi,
    rows_of,
    tagged_cube,
    tri_output_function,
)


def cubes_for(cover, n: int, j: int) -> list[Cube]:
    """The cubes of a tagged cover whose tag holds output j."""
    return [text_cube(text) for text, tag in as_cubes(cover, n) if j in tag]


def test_subfunction_off_examples():
    f = tri_output_function()
    assert {cube_text(c) for c in subfunction_off(frozenset({0}), f)} == {
        "001",
        "010",
        "011",
        "110",
    }
    assert {cube_text(c) for c in subfunction_off(frozenset({2, 0}), f)} == {
        "001",
        "010",
        "011",
        "100",
        "110",
    }
    g = multi_function(2, 2, [("11", (1, 1))])
    off = {cube_text(c) for c in subfunction_off(frozenset({0, 1}), g)}
    assert "11" not in off and len(off) == 3
    with pytest.raises(ValueError, match="^empty output tag$"):
        subfunction_off(frozenset(), f)


def test_subfunction_off_rejects_an_output_outside_the_function():
    f = multi_function(2, 2, [("11", (1, 1))])
    with pytest.raises(ValueError, match="^output 5 is outside the 2 outputs$"):
        subfunction_off(frozenset({5}), f)
    with pytest.raises(ValueError, match="^output -1 is outside the 2 outputs$"):
        subfunction_off(frozenset({0, -1}), f)


def test_golden_tagged_cover():
    cover = edsa_minimize(tri_output_function())
    assert set(as_cubes(cover, 3)) == {(t, tag) for t, tag in TRI_OUTPUT_COVER}
    assert len(cover) == 5


def test_golden_intermediate_sets():
    f = tri_output_function()
    # joint off-sets drive each sub-function
    off_y0 = subfunction_off(frozenset({0}), f)
    sdm = generate_sdm(bv("100"), off_y0)
    assert set(sdm) == {bv("101"), bv("010")}
    assert {cube_text(c) for c in generate_spi(bv("100"), off_y0)} == {"10x", "x00"}

    off_y20 = subfunction_off(frozenset({2, 0}), f)
    assert set(generate_sdm(bv("000"), off_y20)) == {
        bv("001"),
        bv("010"),
        bv("100"),
    }
    assert set(generate_sdm(bv("101"), off_y20)) == {bv("001"), bv("100")}
    assert [cube_text(c) for c in generate_spi(bv("000"), off_y20)] == ["000"]
    assert [cube_text(c) for c in generate_spi(bv("101"), off_y20)] == ["1x1"]

    off_y2 = subfunction_off(frozenset({2}), f)
    assert {cube_text(c) for c in off_y2} == {"011", "100"}
    assert set(generate_sdm(bv("000"), off_y2)) == {bv("011"), bv("100")}
    assert {cube_text(c) for c in generate_spi(bv("000"), off_y2)} == {"00x", "0x0"}

    off_y21 = subfunction_off(frozenset({2, 1}), f)
    assert {cube_text(c) for c in off_y21} == {"000", "011", "100", "101", "111"}
    assert set(generate_sdm(bv("001"), off_y21)) == {
        bv("001"),
        bv("010"),
        bv("100"),
    }
    assert set(generate_sdm(bv("010"), off_y21)) == {bv("001"), bv("010")}
    assert [cube_text(c) for c in generate_spi(bv("001"), off_y21)] == ["001"]
    assert [cube_text(c) for c in generate_spi(bv("010"), off_y21)] == ["x10"]

    # neighbor pairs seen during the run
    on_y0 = [bv("000"), bv("100"), bv("101"), bv("111")]
    n1 = coverage_mask(text_cube("10x"), on_y0) ^ coverage_mask(text_cube("x00"), on_y0)
    from primecover.cover import mask_members

    assert {m.to_text() for m in mask_members(n1, on_y0)} == {"000", "101"}
    on_y2 = [bv("000"), bv("001"), bv("010"), bv("110")]
    n2 = coverage_mask(text_cube("00x"), on_y2) ^ coverage_mask(text_cube("0x0"), on_y2)
    assert {m.to_text() for m in mask_members(n2, on_y2)} == {"001", "010"}


def test_per_output_agreement_with_truth_table():
    f = tri_output_function()
    cover = edsa_minimize(f)
    for j in range(3):
        cubes = cubes_for(cover, f.n, j)
        for v in range(1 << f.n):
            got = any(c.covers_value(v) for c in cubes)
            if f.on[j] >> v & 1:
                assert got, (v, j)
            elif f.off[j] >> v & 1:
                assert not got, (v, j)


def test_no_cube_touches_an_off_minterm_of_its_tag():
    f = tri_output_function()
    for text, tag in as_cubes(edsa_minimize(f), f.n):
        for z in subfunction_off(tag, f):
            assert not reference_intersects(text_cube(text), z)


def test_identical_output_columns_share_cubes():
    rng = random.Random(61)
    for _ in range(10):
        n = 3
        col = [rng.choice([0, 1]) for _ in range(1 << n)]
        if not any(col) or all(col):
            continue
        rows = [(BitVec(n, v), (col[v], col[v])) for v in range(1 << n)]
        f = multi_function(n, 2, rows)
        cover = edsa_minimize(f)
        assert all(tag == frozenset({0, 1}) for _, tag in as_cubes(cover, n))
        for j in range(2):
            cubes = cubes_for(cover, n, j)
            for v in range(1 << n):
                got = any(c.covers_value(v) for c in cubes)
                assert got == (col[v] == 1)


def test_random_multi_functions_cover_correctly():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        rows = []
        for v in range(1 << n):
            vals = tuple(
                1 if rng.random() < 0.4 else (0 if rng.random() < 0.8 else None)
                for _ in range(m)
            )
            rows.append((BitVec(n, v), vals))
        f = multi_function(n, m, rows)
        if not any(v == 1 for _, vals in rows for v in vals):
            continue
        cover = edsa_minimize(f)
        for j in range(m):
            cubes = cubes_for(cover, n, j)
            for mv, values in rows:
                got = any(c.covers_value(mv.value) for c in cubes)
                if values[j] == 1:
                    assert got
                elif values[j] == 0:
                    assert not got


def test_constructor_rejects_malformed_tables():
    MultiFunction(2, 2, (0b0001, 0b1000), (0b0010, 0))
    with pytest.raises(ValueError, match="output 0 has minterms both on and don't care"):
        MultiFunction(2, 2, (0b0001, 0), (0b0011, 0))
    with pytest.raises(ValueError, match="1 dc tables, expected 2"):
        MultiFunction(2, 2, (0b0001, 0), (0,))
    with pytest.raises(ValueError, match="3 on tables, expected 2"):
        MultiFunction(2, 2, (0, 0, 0), (0, 0))
    with pytest.raises(ValueError, match=r"on table of output 1 has bits outside its 2\^2 minterms"):
        MultiFunction(2, 2, (0b0001, 0b10000), (0, 0))
    with pytest.raises(ValueError, match=r"dc table of output 0 has bits outside its 2\^2 minterms"):
        MultiFunction(2, 2, (0, 0), (-1, 0))
    with pytest.raises(ValueError, match="at least 2 outputs, not 1; a single output is a LogicFunction"):
        MultiFunction(3, 1, (1,), (0,))
    with pytest.raises(ValueError, match="at least 1 input, not 0"):
        MultiFunction(0, 2, (0, 0), (0, 0))


def test_golden_cover_survives_pla_round_trip():
    from primecover import parse_pla, write_pla

    f = tri_output_function()
    cover = edsa_minimize(f)
    text = write_pla(cover, f.n, outputs=f.m)
    back = parse_pla(text)
    got = {
        (cube_text(pair_cube(f.n, pair)), out)
        for out, pairs in _scan(text).groups.items()
        for pair in pairs
    }
    want = {
        (text, "".join("1" if j in tag else "0" for j in range(f.m)))
        for text, tag in as_cubes(cover, f.n)
    }
    assert got == want
    # parsed rows give back exactly the per-output on-sets of the source table
    for j in range(f.m):
        for m, values in rows_of(f):
            if values[j] is None:
                continue
            assert (back.on[j] >> m.value & 1) == (values[j] == 1)


@st.composite
def multi_functions(draw) -> MultiFunction:
    """Tables over 1-6 inputs and 2-4 outputs, each (minterm, output)
    value drawn on its own."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=2, max_value=4))
    value = st.sampled_from((1, 0, None))
    rows = [(BitVec(n, v), tuple(draw(value) for _ in range(m))) for v in range(1 << n)]
    return multi_function(n, m, rows)


def minimized(minimize, f):
    try:
        return minimize(f)
    except EmptyOnset:
        return EmptyOnset


@settings(deadline=None)
@given(multi_functions())
def test_edsa_minimize_matches_reference(f):
    assert minimized(edsa_minimize, f) == minimized(reference_edsa_minimize, f)


@st.composite
def multi_pla_tables(draw) -> str:
    """Multi-output PLA texts of type fr or fd over 1-6 inputs and 2-4
    outputs: at most one line per minterm, its output part drawn from
    {0, 1, -}, so an unlisted minterm is a don't care under fr and off
    under fd."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=2, max_value=4))
    type_ = draw(st.sampled_from(("fr", "fd")))
    outputs = st.text("01-", min_size=m, max_size=m)
    body = [f"{v:0{n}b} {draw(outputs)}" for v in range(1 << n) if draw(st.booleans())]
    return "\n".join([f".i {n}", f".o {m}", f".type {type_}", *body, ".e"]) + "\n"


@settings(deadline=None)
@given(multi_pla_tables())
def test_edsa_minimize_commits_each_item_once(text):
    """The cover is the commit list as it stands: committing an item
    clears its points from its tag's tables, so no ``(pair, tag)`` item
    is committed twice, and each is a cube over n inputs tagged with one
    or more of the m outputs."""
    f = parse_pla(text)
    cover = minimized(edsa_minimize, f)
    if cover is EmptyOnset:
        assert not any(f.on)
        return
    assert len(set(cover)) == len(cover)
    check_items(cover, f.n, f.m)


@contextmanager
def folding_raises():
    """Every binding of ``generate_sdm`` and ``table_cover`` in the
    library's modules raises while the block runs."""

    def fold(*args, **kwargs):
        raise AssertionError("the multi-output path folded an off-set")

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name == "primecover" or name.startswith("primecover."):
                for attr in ("generate_sdm", "table_cover"):
                    if attr in vars(module):
                        patch.setattr(module, attr, fold)
        yield


def test_the_golden_cover_folds_nothing():
    f = tri_output_function()
    want = reference_edsa_minimize(f)
    with folding_raises():
        assert edsa_minimize(f) == want


@settings(deadline=None)
@given(multi_functions())
def test_edsa_minimize_folds_nothing(f):
    want = minimized(reference_edsa_minimize, f)
    with folding_raises():
        assert minimized(edsa_minimize, f) == want


def test_lookahead_runs_when_two_candidates_share_the_union():
    # output 0 is on at 011 and 110, output 1 at 000 and 100; the origin
    # 000 (tag {1}) has the primes 0xx, x0x and xx0 against the off point
    # 111, and of the minterms {000, 100} still to be covered for output 1
    # x0x and xx0 both cover the union, so neither dominates
    f = MultiFunction(3, 2, (0b01001000, 0b00010001), (0b00100010, 0b01101110))
    off = subfunction_off(frozenset({1}), f)
    assert [cube_text(c) for c in generate_spi(bv("000"), off)] == ["0xx", "x0x", "xx0"]
    cover = edsa_minimize(f)
    assert cover == reference_edsa_minimize(f)
    # lookahead commits 0xx, stranding 100, and that neighbour's x0x with it
    assert [tagged_text(*item) for item in cover][:2] == ["0xx_{1}", "x0x_{1}"]


def test_lookahead_commits_the_lowest_of_the_stranded_neighbours_that_tie():
    # output 0 is on at 000, 100 and 110 and off at 101; output 1 is on at
    # 000, 010, 011 and 110 and off at 001, 100 and 111.  The origin 010
    # (tag {1}) has the primes 01x, 0x0 and x10, each covering two of the
    # four minterms of output 1 and stranding two of the neighbours 000,
    # 011 and 110, whose best primes 0x0, 01x and x10 have two literals
    # each: the three candidates tie and the first, 01x, wins
    f = MultiFunction(3, 2, (0b01010001, 0b01001101), (0b10001110, 0b00100000))
    cover = edsa_minimize(f)
    assert cover == reference_edsa_minimize(f)
    # 01x strands 000 and 110 at two literals, and the lower, 000,
    # commits its 0x0 with its tag {0, 1}
    assert [tagged_text(*item) for item in cover] == ["01x_{1}", "0x0_{0,1}", "xx0_{0}", "x10_{1}"]


def test_lookahead_ties_with_no_stranded_neighbour_go_to_the_first_candidate():
    # output 0 is on at 000, 100 and 111 and a don't care at 010; output 1
    # is on at 001, 010, 100, 101 and 110.  After x00_{0}, x01_{1} and
    # x10_{1} the origin 100 (tag {1}) is the last minterm of output 1:
    # its primes 10x and 1x0 both cover just it, so neither dominates,
    # neither strands a neighbour, and the first, 10x, wins
    f = MultiFunction(3, 2, (0b10010001, 0b01110110), (0b00000100, 0))
    cover = edsa_minimize(f)
    assert cover == reference_edsa_minimize(f)
    assert [tagged_text(*item) for item in cover] == ["x00_{0}", "x01_{1}", "x10_{1}", "10x_{1}", "111_{0}"]


def minterms_of(table: int, n: int) -> list[Cube]:
    """The minterm cubes of the values set in a 2^n-bit table."""
    return [minterm_to_cube(BitVec(n, v)) for v in set_bits(table)]


@st.composite
def joint_off_tables(draw) -> tuple[int, int, list[int]]:
    """Width n in 1-10, a 2^n-bit off table, dense or sparse, and the
    minterms to check: every one up to 7 inputs, up to eight drawn ones
    above."""
    n = draw(st.integers(min_value=1, max_value=10))
    sparse = st.lists(st.integers(0, (1 << n) - 1), max_size=12).map(
        lambda vs: sum({1 << v for v in vs})
    )
    off = draw(st.one_of(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1), sparse))
    if n <= 7:
        return n, off, list(range(1 << n))
    return n, off, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))


# an empty off table: every minterm's best prime is the universal cube
@example((1, 0, [0, 1]))
@example((7, 0, list(range(128))))
@example((10, 0, [0, 1023]))
@settings(deadline=None)
@given(joint_off_tables())
def test_best_pi_matches_reference(case):
    n, off, values = case
    off_cubes = minterms_of(off, n)
    for v in values:
        if not off >> v & 1:
            count, pair = _best_pi(v, off, n)
            want = reference_best_pi(BitVec(n, v), off_cubes)
            assert pair_cube(n, pair) == want
            assert count == want.literal_count


def test_best_pi_ties_go_to_the_smaller_free_mask():
    # through 0000 clear of the off points 0011, 0101, 1001 and 1010 the
    # primes are 000x, 0xx0 and xx00; the last two tie on two literals,
    # and 0xx0, whose free mask 0110 is the smaller, is first in text
    off = sum(1 << int(t, 2) for t in ("0011", "0101", "1001", "1010"))
    off_cubes = minterms_of(off, 4)
    assert [cube_text(c) for c in generate_spi(bv("0000"), off_cubes)] == ["000x", "0xx0", "xx00"]
    count, pair = _best_pi(0, off, 4)
    assert (count, cube_text(pair_cube(4, pair))) == (2, "0xx0")
    assert pair_cube(4, pair) == reference_best_pi(bv("0000"), off_cubes)


def test_best_pi_ties_on_the_heaviest_layer_at_ten_inputs():
    # every two-bit point but 0000000011 and 1100000000 is off, so the
    # implicants through 0000000000 with most free positions are the two
    # cubes free at those bits, both in the two-bit layer: the lower free
    # mask, 00000000xx, is first in text
    pairs = [1 << i | 1 << j for i in range(10) for j in range(i)]
    off = sum(1 << v for v in pairs if v not in (0b11, 0b1100000000))
    count, pair = _best_pi(0, off, 10)
    assert (count, cube_text(pair_cube(10, pair))) == (8, "00000000xx")
    assert pair_cube(10, pair) == reference_best_pi(bv("0" * 10), minterms_of(off, 10))
    flipped = off ^ (1 << 0b11 | 1 << 0b101)  # 00000000xx off, 0000000x0x on
    assert cube_text(pair_cube(10, _best_pi(0, flipped, 10)[1])) == "0000000x0x"


@st.composite
def output_tables(draw) -> tuple[int, list[int]]:
    """Width and 2-8 tables over 0-8 inputs: drawn one by one, all
    equal, or all empty but one."""
    n = draw(st.integers(min_value=0, max_value=8))
    m = draw(st.integers(min_value=2, max_value=8))
    table = st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)
    shape = draw(st.sampled_from(("each", "equal", "one")))
    if shape == "each":
        return n, [draw(table) for _ in range(m)]
    if shape == "equal":
        return n, [draw(table)] * m
    live = [0] * m
    live[draw(st.integers(min_value=0, max_value=m - 1))] = draw(table)
    return n, live


@example((0, [0, 0]))
@example((8, [0] * 8))
# no minterm held by exactly one table: the levels are rebuilt, and the
# lightest is minterm 1 (two tables) before minterm 0 (three), then
# minterm 1 and 3 (two each) by value
@example((2, [0b011, 0b011, 0b001]))
@example((2, [0b1010, 0b1010, 0, 0]))
@given(output_tables())
def test_lightest_takes_the_fewest_tables_then_the_smallest_minterm(case):
    n, live = case
    weight = {v: sum(points >> v & 1 for points in live) for v in range(1 << n)}
    tagged = [v for v, w in weight.items() if w]
    want = min(tagged, key=lambda v: (weight[v], v)) if tagged else None
    assert _lightest(live) == want


@settings(deadline=None)
@given(st.data())
def test_subfunction_off_matches_reference(data):
    f = data.draw(multi_functions())
    tag = data.draw(st.frozensets(st.integers(0, f.m - 1), min_size=1))
    assert subfunction_off(tag, f) == reference_subfunction_off(tag, f)


@settings(deadline=None)
@given(st.data())
def test_off_cover_folds_like_the_minterm_off_set(data):
    f = data.draw(multi_functions())
    tag = data.draw(st.frozensets(st.integers(0, f.m - 1), min_size=1))
    off = subfunction_off(tag, f)
    points = sum(1 << c.right.value for c in off)
    on = [v for v in range(1 << f.n) if not points >> v & 1]
    assume(on)
    origin = BitVec(f.n, data.draw(st.sampled_from(on)))
    cover = [Cube(BitVec(f.n, left), BitVec(f.n, right)) for left, right in table_cover(points, f.n)]
    assert generate_spi(origin, cover) == generate_spi(origin, off)


def test_more_inputs_than_the_cap_are_rejected_before_any_table():
    # one on-minterm over 17 inputs; the tables it would need are 2^17 bits
    with pytest.raises(ValueError, match="cap of 16"):
        MultiFunction(17, 2, (1, 0), (0, 0))
    with pytest.raises(ValueError, match="cap of 16"):
        MultiFunction(17, 1, (1,), (0,))


def test_verify_multi_passes_the_golden_cover():
    f = tri_output_function()
    cover = edsa_minimize(f)
    report = verify_multi(cover, f)
    assert report.ok
    assert report == reference_verify_multi(cover, f)


def test_verify_multi_reports_a_corrupted_cover():
    f = tri_output_function()
    y0 = frozenset({0})
    x00 = cube_pair(text_cube("x00"))
    cover = [item for item in edsa_minimize(f) if item[0] != x00]
    # x00 on y0 was the only cover of 100; 1xx meets the y0 off point 110;
    # 011 is not prime for y1: 0x1 and 01x stay clear of the y1 off-set
    cover += [
        tagged_cube(text_cube("1xx"), y0),
        tagged_cube(text_cube("011"), frozenset({1})),
    ]
    report = verify_multi(cover, f)
    assert not report.ok
    assert report.off_conflicts == ((cover[-2], bv("110")),)
    assert report.removable_literals[-2:] == ((cover[-1], 2), (cover[-1], 1))
    assert report == reference_verify_multi(cover, f)
    dropped = [item for item in edsa_minimize(f) if item[0] != x00]
    assert verify_multi(dropped, f).missing == ((bv("000"), 0), (bv("100"), 0))
    with pytest.raises(ValueError, match=r"^\(0b1, 0b11\) is not a cube over 3 inputs$"):
        verify_multi([*dropped, tagged_cube(text_cube("1x"), y0)], f)


def test_verify_multi_rejects_a_tag_past_the_outputs():
    """A tag bit at or above m, or a negative tag, is refused with
    ``write_pla``'s wording, not read as output m - 1 or raised as an
    ``IndexError``."""
    f = tri_output_function()
    cover = edsa_minimize(f)
    for tag, message in (
        (-1, r"^10x_\{-1\} names an output outside the 3 outputs$"),
        (0b100001, r"^10x_\{0,5\} names an output outside the 3 outputs$"),
        (0b1000, r"^10x_\{3\} names an output outside the 3 outputs$"),
        (0, r"^10x_\{\} names no output$"),
    ):
        with pytest.raises(ValueError, match=message):
            verify_multi([*cover, (cube_pair(text_cube("10x")), tag)], f)


@st.composite
def tagged_cubes(draw, n: int, m: int) -> tuple[tuple[int, int], int]:
    text = "".join(draw(st.lists(st.sampled_from("01x"), min_size=n, max_size=n)))
    tag = draw(st.frozensets(st.integers(0, m - 1), min_size=1))
    return tagged_cube(text_cube(text), tag)


@settings(deadline=None)
@given(st.data())
def test_verify_multi_matches_reference(data):
    f = data.draw(multi_functions())
    cover = minimized(edsa_minimize, f)
    cover = [] if cover is EmptyOnset else cover
    kept = [item for item in cover if data.draw(st.booleans())]
    extra = data.draw(st.lists(tagged_cubes(f.n, f.m), max_size=3))
    mixed = kept + extra
    assert verify_multi(cover, f).ok
    assert verify_multi(mixed, f) == reference_verify_multi(mixed, f)
