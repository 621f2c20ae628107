import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import (
    BitVec,
    Cube,
    EmptyOnset,
    InconsistentFunction,
    LogicFunction,
    MultiFunction,
    PlaParseError,
    cube_text,
    edsa_minimize,
    parse_pla,
    text_cube,
    verify_multi,
    write_pla,
)
from primecover import pla_io
from primecover.bitcube import pair_text, table_cover
from primecover.pla_io import _RawPla, _scan, complement_cubes
from helpers import (
    TRI_OUTPUT_PLA,
    as_cubes,
    count_cubes,
    cube_pair,
    five_var_pla,
    pair_cube,
    random_cube,
    reference_complement,
    reference_intersects,
    reference_parse_multi,
    reference_parse_single,
    reference_table,
    reference_validate,
    tagged_cube,
)


def test_parse_five_var_fr_file():
    f = parse_pla(five_var_pla(), name="fivevar")
    assert isinstance(f, LogicFunction)
    assert f.n == 5
    assert len(f.on) == 13
    assert len(f.off) == 16
    assert f.dc == ()


def test_parse_tri_output_file():
    f = parse_pla(TRI_OUTPUT_PLA)
    assert isinstance(f, MultiFunction)
    assert f.m == 3 and f.n == 3
    # bit v of each table is minterm v; y0 is 1 at 000, 100, 101 and 111
    assert f.on == (0b10110001, 0b01001110, 0b11100111)
    assert f.dc == (0, 0, 0)
    assert f.off == (0b01001110, 0b10110001, 0b00011000)
    assert f.labels == ("y0", "y1", "y2")
    assert [on & 1 for on in f.on] == [1, 0, 1]  # minterm 000


def test_x_is_illegal_in_pla_input_part():
    with pytest.raises(PlaParseError, match=r"line 3: illegal input character 'x' \(use 0, 1 or -\)"):
        parse_pla(".i 3\n.o 1\n10x 1\n.e\n")
    with pytest.raises(PlaParseError, match="illegal input character '2'"):
        parse_pla(".i 3\n.o 1\n1-2 1\n.e\n")


def test_directive_errors():
    with pytest.raises(PlaParseError):
        parse_pla("000 1\n")  # cube line before .i/.o
    with pytest.raises(PlaParseError):
        parse_pla(".i 3\n.o 1\n.type zz\n000 1\n")
    with pytest.raises(PlaParseError):
        parse_pla(".i x\n.o 1\n")
    with pytest.raises(PlaParseError):
        parse_pla(".i 3\n.o 1\n.wat 4\n000 1\n")
    with pytest.raises(PlaParseError):
        parse_pla(".i 3\n.o 1\n0000 1\n")  # wrong input width
    with pytest.raises(PlaParseError):
        parse_pla(".i 3\n.o 2\n000 1\n")  # wrong output width
    with pytest.raises(PlaParseError):
        parse_pla(".i 3\n.o 1\n000 2\n")  # bad output char
    with pytest.raises(PlaParseError, match="line 4: .i after the first cube line"):
        parse_pla(".i 3\n.o 1\n1-1 1\n.i 2\n.e\n")
    # the type decides what the rows above it meant: under fr 00 would be off
    with pytest.raises(PlaParseError, match="^line 5: .type after the first cube line$"):
        parse_pla(".i 2\n.o 1\n00 0\n01 1\n.type fr\n.e\n")
    with pytest.raises(PlaParseError, match="^line 3: expected input and output parts$"):
        parse_pla(".i 3\n.o 1\n101\n.e\n")
    with pytest.raises(PlaParseError, match="^missing .i/.o declarations$"):
        parse_pla(".i 3\n.p 0\n.e\n")
    with pytest.raises(PlaParseError, match="line 1: .i -1 is below 1"):
        parse_pla(".i -1\n.o 1\n.e\n")
    with pytest.raises(PlaParseError, match="line 2: .o -3 is below 1"):
        parse_pla(".i 2\n.o -3\n.e\n")
    with pytest.raises(PlaParseError, match="line 2: .o 0 is below 1"):
        parse_pla(".i 2\n.o 0\n.e\n")
    with pytest.raises(PlaParseError, match="^line 3: .p -4 is below 0$"):
        parse_pla(".i 3\n.o 1\n.p -4\n1-1 1\n.e\n")
    assert parse_pla(".i 3\n.o 1\n.p 0\n.e\n").on == ()
    assert parse_pla(".i 3\n.o 1\n.ilb a b c\n101 1\n.e\n").on_pairs == ((0b010, 0b101),)
    with pytest.raises(PlaParseError, match=".ob names 1 outputs but .o declares 2"):
        parse_pla(".i 2\n.o 2\n.ob a\n.type fr\n01 11\n.e\n")
    with pytest.raises(PlaParseError, match=".ob names 0 outputs but .o declares 1"):
        parse_pla(".i 2\n.o 1\n.ob\n01 1\n.e\n")
    with pytest.raises(PlaParseError, match="^.ilb names 1 inputs but .i declares 2$"):
        parse_pla(".i 2\n.o 1\n.ilb a\n11 1\n.e\n")
    with pytest.raises(PlaParseError, match="^.ilb names 3 inputs but .i declares 2$"):
        parse_pla(".i 2\n.o 1\n.ilb a b c\n11 1\n.e\n")
    # .i, .o, .p and .type take exactly one value, and a count is ASCII
    # digits with an optional sign
    for line in (".i 2 3", ".o 1 2", ".p 1 9", ".type fr fd", ".i 1_0", ".i \u0662", ".p 1_0"):
        with pytest.raises(PlaParseError, match=f"^line 1: malformed directive '{re.escape(line)}'$"):
            parse_pla(f"{line}\n.i 2\n.o 1\n11 1\n.e\n")


def test_fd_complement_derives_off():
    text = ".i 3\n.o 1\n.type fd\n1-- 1\n001 -\n.e\n"
    f = parse_pla(text)
    on_off_dc = set()
    for group in (f.on, f.off, f.dc):
        for c in group:
            on_off_dc.update(m.value for m in c.minterms())
    assert on_off_dc == set(range(8))
    off_values = {m.value for c in f.off for m in c.minterms()}
    assert off_values == {0b000, 0b010, 0b011}


def test_fd_complement_cap_and_override():
    lines = [".i 17", ".o 1", ".type fd", "1" + "-" * 16 + " 1", ".e"]
    text = "\n".join(lines)
    with pytest.raises(PlaParseError, match=r"over 17 variables \(cap 16\); supply fr/fdr input$"):
        parse_pla(text)


def test_complement_is_exact_and_disjoint():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 10)
        cubes = [random_cube(rng, n) for _ in range(rng.randint(0, 5))]
        comp = complement_cubes(cubes, n)
        covered = set()
        for c in cubes:
            covered.update(m.value for m in c.minterms())
        comp_values: list[int] = []
        for c in comp:
            comp_values.extend(m.value for m in c.minterms())
        assert set(comp_values) == set(range(1 << n)) - covered


def _minterms(cubes) -> set[int]:
    return {m.value for c in cubes for m in c.minterms()}


@st.composite
def cube_lists(draw):
    """1-10 inputs and 0-6 cubes, each one random or universal."""
    n = draw(st.integers(min_value=1, max_value=10))
    cubes = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("random", "random", "random", "universal")))
        if kind == "universal":
            cubes.append(Cube.universal(n))
        else:
            cubes.append(text_cube(draw(st.text("01x", min_size=n, max_size=n))))
    return n, cubes


@settings(deadline=None)
@given(cube_lists())
def test_complement_matches_the_recursive_reference(case):
    n, cubes = case
    got = complement_cubes(cubes, n)
    assert all(c.width == n for c in got)
    want = reference_complement(cubes, n)
    assert _minterms(got) == _minterms(want)


def test_complement_at_the_table_cap():
    cubes = [text_cube("1" + "x" * 15), text_cube("01" + "x" * 13 + "0")]
    got = complement_cubes(cubes, 16)
    # maximal cubes of the complement table, which may overlap
    assert [cube_text(c) for c in got] == ["00" + "x" * 14, "0" + "x" * 14 + "1"]
    assert _minterms(got) == _minterms(reference_complement(cubes, 16))


def pair(text: str) -> tuple[int, int]:
    return cube_pair(text_cube(text))


def test_write_pla_examples():
    text = write_pla([pair("0x1"), pair("x01")], 3)
    assert "0-1 1" in text and "-01 1" in text and ".p 2" in text

    empty = write_pla([], 3)
    assert ".p 0" in empty

    tagged = write_pla([(pair("1x1"), 0b101)], 3, outputs=3)
    assert "1-1 101" in tagged


def test_write_pla_rejects_a_cube_of_another_width():
    # '.i 4' above '10- 1' would not parse back
    with pytest.raises(ValueError, match=r"^\(0b11, 0b101\) is not a cube over 4 inputs$"):
        write_pla([pair("10x")], 4)
    tagged = (pair("10x"), 0b1)
    with pytest.raises(ValueError, match=r"^\(0b11, 0b101\) is not a cube over 4 inputs$"):
        write_pla([tagged], 4, outputs=2)


def test_write_pla_rejects_a_tag_past_the_outputs():
    # output 3 of 3 would be written as a line on for no output
    tagged = (pair("10x"), 0b1001)
    with pytest.raises(ValueError, match=r"^10x_\{0,3\} names an output outside the 3 outputs$"):
        write_pla([tagged], 3, outputs=3)


def test_write_pla_rejects_labels_that_do_not_number_the_outputs():
    # '.o 1' under '.ob a b' would not parse back
    with pytest.raises(ValueError, match="^ob names 2 outputs but the cover has 1$"):
        write_pla([pair("10x")], 3, ob=("a", "b"))
    tagged = (pair("10x"), 0b1)
    with pytest.raises(ValueError, match="^ob names 1 outputs but the cover has 2$"):
        write_pla([tagged], 3, outputs=2, ob=("a",))
    # '.ob a b' names two outputs, '.ob ' none, and '.ob x#y' the one 'x'
    for label in ("a b", "", "x#y"):
        message = f"ob label {label!r} is empty or holds whitespace or '#'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_pla([pair("10x")], 3, ob=(label,))
    assert ".ob y\n" in write_pla([pair("10x")], 3, ob=("y",))


def test_write_pla_rejects_an_empty_tag():
    # the line '10- 00' would read back on for no output: the cube is lost
    tagged = (pair("10x"), 0)
    with pytest.raises(ValueError, match=r"^10x_\{\} names no output$"):
        write_pla([tagged], 3, outputs=2)


def test_write_pla_rejects_counts_parse_pla_cannot_read():
    # '.i 0' reads back as 'line 1: .i 0 is below 1', and '.o 0' likewise
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^the cover has {n} inputs; a PLA has at least 1$"):
            write_pla([], n)
    for outputs in (0, -2):
        message = f"^the cover has {outputs} outputs; a PLA has at least 1$"
        with pytest.raises(ValueError, match=message):
            write_pla([], 3, outputs=outputs)
    assert parse_pla(write_pla([pair("1")], 1)).n == 1


def test_write_pla_checks_every_pair_of_a_repeated_tag():
    # each tag's output part is built once, but every item's pair is
    # still checked, in order: the second item of tag {0} is 2 wide
    first = (pair("10x"), 0b01)
    narrow = (pair("10"), 0b01)
    message = r"^\(0b1, 0b10\) is not a cube over 3 inputs$"
    with pytest.raises(ValueError, match=message):
        write_pla([first, narrow], 3, outputs=2)
    # that pair comes before a tag past the outputs, and is the one named
    past = (pair("11x"), 0b100)
    with pytest.raises(ValueError, match=message):
        write_pla([first, narrow, past], 3, outputs=2)


def test_round_trip_single_output():
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(2, 10)
        cover = []
        seen = set()
        for _ in range(rng.randint(1, 8)):
            c = random_cube(rng, n)
            if cube_text(c) not in seen:
                seen.add(cube_text(c))
                cover.append(c)
        back = parse_pla(write_pla([cube_pair(c) for c in cover], n))
        assert list(back.on) == cover
        assert back.off == () and back.dc == ()


def test_round_trip_multi_output():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(2, 3)
        cover = []
        seen = set()
        for _ in range(rng.randint(1, 6)):
            c = random_cube(rng, n)
            tag = frozenset(
                j for j in range(m) if rng.random() < 0.6
            ) or frozenset({0})
            if (cube_text(c), tag) not in seen:
                seen.add((cube_text(c), tag))
                cover.append(tagged_cube(c, tag))
        got = {
            (cube_text(pair_cube(n, pair)), out)
            for out, pairs in _scan(write_pla(cover, n, outputs=m)).groups.items()
            for pair in pairs
        }
        want = {
            (text, "".join("1" if j in tag else "0" for j in range(m)))
            for text, tag in as_cubes(cover, n)
        }
        assert got == want


def test_fr_zero_rows_build_the_off_set():
    f = parse_pla(".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n")
    assert len(f.on) == 1 and len(f.off) == 1


def test_f_type_ignores_zero_rows():
    f = parse_pla(".i 2\n.o 1\n.type f\n11 1\n00 0\n.e\n")
    assert len(f.on) == 1
    off_values = {m.value for c in f.off for m in c.minterms()}
    assert off_values == {0b00, 0b01, 0b10}


def test_tilde_output_means_nothing():
    f = parse_pla(".i 2\n.o 1\n.type fr\n11 1\n00 ~\n.e\n")
    assert len(f.on) == 1 and len(f.off) == 0


def test_crlf_and_comments_accepted():
    text = ".i 2\r\n.o 1\r\n.type fr\r\n# comment\r\n11 1\r\n00 0\r\n.e\r\n"
    f = parse_pla(text)
    assert len(f.on) == 1 and len(f.off) == 1


def test_a_form_feed_does_not_end_a_comment():
    # only LF, CRLF and CR end a line: 'break' is not a cube line
    paged = ".i 2\n.o 1\n# page\fbreak\n01 1\n"
    assert parse_pla(paged + ".e\n") == parse_pla(".i 2\n.o 1\n01 1\n.e\n")
    with pytest.raises(PlaParseError, match="^line 5: illegal input character 'x' "):
        parse_pla(paged + "1x 1\n.e\n")


def test_consistency_check_rejects_overlap():
    with pytest.raises(InconsistentFunction):
        parse_pla(".i 2\n.o 1\n.type fr\n1- 1\n11 0\n.e\n")


def test_multi_conflict_rejected():
    with pytest.raises(InconsistentFunction):
        parse_pla(".i 2\n.o 2\n.type fr\n1- 10\n11 00\n.e\n")
    # the file meets the conflict at 11 first; the message names the lowest
    with pytest.raises(InconsistentFunction, match="minterm 01 is both on and off for output 1"):
        parse_pla(".i 2\n.o 2\n.type fr\n11 10\n01 01\n11 00\n01 00\n.e\n")


@st.composite
def multi_pla_texts(draw) -> str:
    """Multi-output PLA texts over 1-5 inputs and 2-4 outputs, of every
    type, with cube lines that may overlap."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=2, max_value=4))
    type_ = draw(st.sampled_from(("f", "fr", "fd", "fdr")))
    lines = draw(
        st.lists(
            st.tuples(
                st.text("01-", min_size=n, max_size=n),
                st.text("01-~", min_size=m, max_size=m),
            ),
            max_size=8,
        )
    )
    body = [f"{inputs} {outputs}" for inputs, outputs in lines]
    return "\n".join([f".i {n}", f".o {m}", f".type {type_}", *body, ".e"]) + "\n"


@settings(deadline=None)
@given(multi_pla_texts())
def test_multi_output_parse_matches_reference_and_minimizes(text):
    try:
        want = reference_parse_multi(text)
    except InconsistentFunction:
        with pytest.raises(InconsistentFunction):
            parse_pla(text)
        return
    f = parse_pla(text)
    assert (f.on, f.dc, f.labels) == (want.on, want.dc, want.labels)
    try:
        cover = edsa_minimize(f)
    except EmptyOnset:
        assert not any(f.on)
        return
    assert verify_multi(cover, f).ok
    lines = write_pla(cover, f.n, outputs=f.m).splitlines()
    assert [
        (text_cube(inputs), out)
        for inputs, out in (line.split() for line in lines if line[0] != ".")
    ] == [
        (text_cube(text), "".join("1" if j in tag else "0" for j in range(f.m)))
        for text, tag in as_cubes(cover, f.n)
    ]


@st.composite
def single_output_cases(draw) -> tuple[int, str, list[tuple[str, str]]]:
    """Single-output cube lines over 1-8 inputs, of every type or none
    (so fd), with lines that may overlap and leave points unlisted."""
    n = draw(st.integers(min_value=1, max_value=8))
    type_ = draw(st.sampled_from(("", "f", "fr", "fd", "fdr")))
    lines = draw(
        st.lists(
            st.tuples(st.text("01-", min_size=n, max_size=n), st.sampled_from("01-~")),
            max_size=8,
        )
    )
    return n, type_, lines


@settings(deadline=None)
@given(single_output_cases())
def test_one_output_and_the_same_output_doubled_read_the_same_tables(case):
    # a point no line lists is off under f/fd and a don't care under
    # fr/fdr, for one output and for two
    n, type_, lines = case

    def text(m: int) -> str:
        header = [f".i {n}", f".o {m}"] + ([f".type {type_}"] if type_ else [])
        return "\n".join([*header, *(f"{a} {b * m}" for a, b in lines), ".e"]) + "\n"

    try:
        f = parse_pla(text(1))
    except InconsistentFunction:
        with pytest.raises(InconsistentFunction):
            parse_pla(text(2))
        return
    g = parse_pla(text(2))
    assert g.on == (f.on_table,) * 2
    assert g.off == (f.off_table,) * 2


def test_one_output_parses_to_a_logic_function():
    # a MultiFunction has two or more outputs
    for type_ in ("f", "fr", "fd", "fdr"):
        f = parse_pla(f".i 2\n.o 1\n.type {type_}\n11 1\n.e\n")
        assert isinstance(f, LogicFunction)
        assert [cube_text(c) for c in f.on] == ["11"]


def test_truth_tables_up_to_the_cap():
    f = parse_pla(".i 2\n.o 1\n.type fr\n1- 1\n00 0\n.e\n")
    assert (f.on_table, f.off_table) == (0b1100, 0b0001)
    wide = parse_pla(".i 17\n.o 1\n.type fr\n1---------------- 1\n0---------------- 0\n.e\n")
    with pytest.raises(ValueError, match="17 inputs exceed the cap of 16"):
        wide.on_table


def test_value_defaults_to_zero_for_missing_rows():
    # a point no line lists is off under the default fd type ...
    f = parse_pla(".i 2\n.o 2\n11 11\n.e\n")
    assert (f.on, f.dc) == ((0b1000, 0b1000), (0, 0))
    # ... and a don't care under fr, as with one output
    f = parse_pla(".i 2\n.o 2\n.type fr\n11 11\n.e\n")
    assert (f.on, f.dc) == ((0b1000, 0b1000), (0b0111, 0b0111))


def test_logic_function_is_an_immutable_value():
    f = parse_pla(".i 2\n.o 1\n.type fr\n1- 1\n00 0\n.e\n", name="g")
    with pytest.raises(AttributeError, match="cannot assign to 'n'"):
        f.n = 3
    with pytest.raises(AttributeError, match="cannot delete 'name'"):
        del f.name
    namespace = {"LogicFunction": LogicFunction, "Cube": Cube, "BitVec": BitVec}
    assert eval(repr(f), namespace) == f
    assert f.__eq__("g") is NotImplemented and f != "g"
    # as .i 0 is a parse error, a function of no inputs is refused
    with pytest.raises(ValueError, match="at least 1 input, not 0"):
        LogicFunction(0, (), ())
    with pytest.raises(ValueError, match="^cube 1x does not have 3 variables$"):
        LogicFunction(3, (), (text_cube("1x"),))


def test_a_single_output_label_is_kept_outside_equality():
    text = ".i 2\n.o 1\n.ob y\n.type {}\n11 1\n00 0\n.e\n"
    for type_ in ("fr", "fd"):
        f = parse_pla(text.format(type_))
        assert f.labels == ("y",)
        built = LogicFunction(2, f.on, f.off, f.dc)
        assert built.labels == () and built == f and hash(built) == hash(f)
        assert repr(built) == repr(f)
    assert parse_pla(".i 2\n.o 1\n11 1\n.e\n").labels == ()


@settings(deadline=None)
@given(st.data())
def test_validate_names_the_clash_the_listed_scan_names(data):
    """An fr text with an off row meeting an on row: parsing raises the
    message of the pairwise scan, which names the first on-cube meeting
    an off-cube and the first off-cube it meets, although up to the
    table cap a consistent function is checked by one AND."""
    n = data.draw(st.integers(1, 10))
    part = st.text(alphabet="01-", min_size=n, max_size=n)
    rows = data.draw(st.lists(st.tuples(part, st.sampled_from("10-~")), max_size=10))
    on_part = data.draw(part)
    # raising some of its positions keeps the on row's points in the off row
    off_part = "".join(ch if data.draw(st.booleans()) else "-" for ch in on_part)
    for row in ((on_part, "1"), (off_part, "0")):
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    text = "\n".join([f".i {n}", ".o 1", ".type fr", *(f"{a} {b}" for a, b in rows), ".e"])
    on = tuple(text_cube(a) for a, b in rows if b == "1")
    off = tuple(text_cube(a) for a, b in rows if b == "0")
    with pytest.raises(InconsistentFunction) as want:
        reference_validate(on, off)
    with pytest.raises(InconsistentFunction) as got:
        parse_pla(text)
    assert str(got.value) == str(want.value)


def test_validate_names_a_clash_from_its_pairs(monkeypatch):
    """A 16-input fr file of 20 000 on and 20 000 off minterms and one 0
    row repeating an on row: the message names the two rows, and no
    row's ``Cube`` is built to name them."""
    rng = random.Random(28)
    values = rng.sample(range(1 << 16), 40_000)
    on, off = values[:20_000], values[20_000:]
    clash = f"{on[7]:016b}"
    rows = [f"{v:016b} 1" for v in on] + [f"{v:016b} 0" for v in off] + [f"{clash} 0"]
    text = "\n".join([".i 16", ".o 1", ".type fr", *rows, ".e"]) + "\n"
    built = count_cubes(monkeypatch)
    with pytest.raises(InconsistentFunction, match=f"^on-cube {clash} intersects off-cube {clash}$"):
        parse_pla(text)
    assert len(built) == 0


@st.composite
def single_pla_texts(draw) -> tuple[str, str]:
    """Single-output PLA texts over 1-10 inputs, of every type, and their
    type: rows with 1, 0, - and ~ outputs that may overlap, separated by
    spaces or tabs, between comments and blank lines, with LF or CRLF
    line ends.  Under fr/fdr no 0 row meets a 1 row."""
    n = draw(st.integers(min_value=1, max_value=10))
    type_ = draw(st.sampled_from(("f", "fr", "fd", "fdr")))
    rows = draw(
        st.lists(st.tuples(st.text("01-", min_size=n, max_size=n), st.sampled_from("10-~")))
    )
    if type_ in ("fr", "fdr"):
        on = [text_cube(a) for a, b in rows if b == "1"]
        rows = [
            (a, b)
            for a, b in rows
            if b != "0" or not any(reference_intersects(text_cube(a), c) for c in on)
        ]
    lines = [f".i {n}", ".o 1"]
    if type_ != "fd" or draw(st.booleans()):
        lines.append(f".type {type_}")
    for a, b in rows:
        sep = draw(st.sampled_from((" ", "\t", "   ", " \t ")))
        comment = draw(st.sampled_from(("", " # note", "#x")))
        lines.append(f"{a}{sep}{b}{comment}")
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(("", "# a comment line", "  "))))
    lines.append(".e")
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end, type_


def _assert_parses_as_the_reference(text: str, type_: str) -> None:
    want = reference_parse_single(text, name="g")
    f = parse_pla(text, name="g")
    n = want.n
    # the f/fd off-set is the table_cover of the complement, as complement_cubes gives it
    off = want.off if type_ in ("fr", "fdr") else tuple(complement_cubes(want.on + want.dc, n))
    built = LogicFunction(n, want.on, off, want.dc, name="g")
    # compared before any Cube view of the parsed function is read
    assert f == built and hash(f) == hash(built)
    assert (f.n, f.name, f.on, f.off, f.dc) == (n, "g", want.on, off, want.dc)
    assert reference_table(f.off) == reference_table(want.off)
    if n <= 16:
        assert f.on_table == reference_table(want.on)
        assert f.off_table == reference_table(want.off)
    else:
        for table in ("on_table", "off_table"):
            with pytest.raises(ValueError, match=f"^{n} inputs exceed the cap of 16 "):
                getattr(f, table)


@settings(deadline=None)
@given(single_pla_texts())
def test_single_output_parse_matches_the_line_by_line_reference(case):
    _assert_parses_as_the_reference(*case)


def test_single_output_parse_matches_the_reference_at_17_inputs():
    rng = random.Random(17)
    on = [cube_text(random_cube(rng, 17, 0.3)) for _ in range(12)]
    rows = [(a, "1") for a in on]
    while len(rows) < 60:
        z = random_cube(rng, 17, 0.5)
        if not any(reference_intersects(z, text_cube(a)) for a in on):
            rows.append((cube_text(z), rng.choice("0-~")))
    rng.shuffle(rows)
    body = [f"{a.replace('x', '-')} {b}" for a, b in rows]
    text = "\n".join([".i 17", ".o 1", ".type fr", "# wide", *body, ".e"]) + "\n"
    _assert_parses_as_the_reference(text, "fr")


def test_parsing_a_single_output_file_builds_no_cube(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Cube or BitVec was built")

    monkeypatch.setattr("primecover.pla_io.Cube", refuse)
    monkeypatch.setattr("primecover.pla_io.BitVec", refuse)
    for text in (five_var_pla(), ".i 4\n.o 1\n.type fd\n1--1 1\n0110 1\n0000 -\n.e\n"):
        f = parse_pla(text)
        assert f.on_pairs and f.on_table and f.off_table


def _after_minterm_rows(n: int, parts: str, bad: str, count: int = 300) -> tuple[str, int]:
    """An fr text of ``count`` valid minterm rows, their output parts from
    ``parts`` in turn, then the line ``bad``; and that line's number."""
    rng = random.Random(count)
    m = len(parts.split()[0])
    head = [f".i {n}", f".o {m}", ".type fr"]
    choices = parts.split()
    rows = [f"{rng.getrandbits(n):0{n}b} {choices[i % len(choices)]}" for i in range(count)]
    lines = head + rows + [bad, ".e"]
    return "\n".join(lines) + "\n", len(head) + count + 1


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0101 1", "input part '0101' is not 3 characters"),
        ("01 1", "input part '01' is not 3 characters"),
        ("01-- 1", "input part '01--' is not 3 characters"),
    ],
)
def test_input_width_error_after_many_rows(bad, message):
    text, lineno = _after_minterm_rows(3, "1 0 - ~", bad)
    with pytest.raises(PlaParseError, match=f"^line {lineno}: {re.escape(message)}$"):
        parse_pla(text)


@pytest.mark.parametrize(
    "parts, bad, message",
    [
        ("1 0", "010 11", "output part '11' is not 1 characters"),
        ("1 0", "010 1 1", "output part '11' is not 1 characters"),
        ("1 0", "010 -~", "output part '-~' is not 1 characters"),
        ("10 01 1- ~1", "010 1", "output part '1' is not 2 characters"),
        ("10 01 1- ~1", "010 1 0 1", "output part '101' is not 2 characters"),
    ],
)
def test_output_width_error_after_many_rows(parts, bad, message):
    text, lineno = _after_minterm_rows(3, parts, bad)
    with pytest.raises(PlaParseError, match=f"^line {lineno}: {re.escape(message)}$"):
        parse_pla(text)


@pytest.mark.parametrize(
    "bad, char",
    # int(part, 2) alone would read 0_1 as 1 and +01 as 1
    [("0_1 1", "_"), ("+01 1", "+"), ("1-_ 1", "_"), ("01x 1", "x")],
)
def test_illegal_input_character_after_many_rows(bad, char):
    text, lineno = _after_minterm_rows(3, "1 0", bad)
    message = f"illegal input character {char!r} (use 0, 1 or -)"
    with pytest.raises(PlaParseError, match=f"^line {lineno}: {re.escape(message)}$"):
        parse_pla(text)


@pytest.mark.parametrize(
    "parts, bad, char",
    [
        ("1", "010 2", "2"),
        ("1 0 - ~", "010 x", "x"),
        ("10 01 1- ~1", "010 1x", "x"),
        ("10 01 1- ~1", "010 1 2", "2"),
    ],
)
def test_illegal_output_character_after_legal_rows(parts, bad, char):
    # every earlier output part was legal and checked; this one is new
    text, lineno = _after_minterm_rows(3, parts, bad)
    message = f"illegal output character {char!r}"
    with pytest.raises(PlaParseError, match=f"^line {lineno}: {re.escape(message)}$"):
        parse_pla(text)


def _line_loop_scan(text: str) -> _RawPla:
    """``_scan`` with the block read declined, so every line goes through
    the per-line loop."""
    with mock.patch.object(pla_io, "_plain_body", return_value=None):
        return _scan(text)


def _read_as_block(text: str) -> bool:
    """Whether ``_scan`` reads the body of ``text`` as one block."""
    blocks = []
    plain_body = pla_io._plain_body

    def spy(*args):
        blocks.append(plain_body(*args))
        return blocks[-1]

    with mock.patch.object(pla_io, "_plain_body", spy):
        try:
            _scan(text)
        except PlaParseError:
            pass
    return any(block is not None for block in blocks)


@st.composite
def plain_pla_texts(draw) -> str:
    """Plain PLA texts: 1-10 inputs, 1-4 outputs, every type or none,
    input parts with '-', output parts with '-' and '~', each cube line
    its two parts and one space or tab, with or without a final .e or
    .end, with LF or CRLF line ends."""
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=4))
    lines = [f".i {n}", f".o {m}"]
    type_ = draw(st.sampled_from((None, "f", "fr", "fd", "fdr")))
    if type_:
        lines.append(f".type {type_}")
    rows = draw(
        st.lists(
            st.tuples(
                st.text("01-", min_size=n, max_size=n),
                st.sampled_from(" \t"),
                st.text("01-~", min_size=m, max_size=m),
            ),
            min_size=1,
            max_size=40,
        )
    )
    lines.append(f".p {len(rows)}")
    lines += ["".join(row) for row in rows]
    lines += draw(st.sampled_from(([], [".e"], [".end"])))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + draw(st.sampled_from(("", end)))


@settings(deadline=None)
@given(plain_pla_texts())
def test_block_read_matches_the_line_loop(text):
    assert _read_as_block(text)
    assert _scan(text) == _line_loop_scan(text)


def _per_row_pla(cover, n: int, outputs: int = 1, ob=()) -> str:
    """``write_pla``'s text with each row rendered by its own
    ``pair_text``."""
    if outputs == 1:
        rows = [(pair, "1") for pair in cover]
    else:
        parts = ["".join(str(tag >> j & 1) for j in range(outputs)) for _, tag in cover]
        rows = [(pair, part) for (pair, _), part in zip(cover, parts)]
    header = [f".i {n}", f".o {outputs}"] + ([".ob " + " ".join(ob)] if ob else [])
    header += [f".p {len(rows)}", ".type fr" if outputs == 1 else ".type fd"]
    body = "".join(f"{pair_text(*pair).replace('x', '-')} {out}\n" for pair, out in rows)
    return "\n".join(header) + "\n" + body + ".e\n"


@pytest.mark.parametrize("outputs", [1, 3])
def test_write_pla_renders_every_row_as_its_pair_text(outputs):
    rng = random.Random(40 + outputs)
    ob = tuple(f"y{j}" for j in range(outputs))
    for n in range(1, 17):
        for count in (0, 1, 2, 57):
            # minterms, the universal cube and cubes in between
            cubes = [random_cube(rng, n, rng.choice((0.0, 0.4, 1.0))) for _ in range(count)]
            pairs = [cube_pair(c) for c in cubes]
            cover = pairs if outputs == 1 else [(pair, rng.randint(1, 7)) for pair in pairs]
            want = _per_row_pla(cover, n, outputs)
            assert write_pla(cover, n, outputs=outputs) == want
            labelled = _per_row_pla(cover, n, outputs, ob)
            assert write_pla(cover, n, outputs=outputs, ob=ob) == labelled
            assert len(want.splitlines()) == 5 + count


def _outcome(text: str):
    """What ``parse_pla`` makes of ``text``: the function, or the type of
    the error it raises."""
    try:
        return parse_pla(text)
    except InconsistentFunction as exc:
        return type(exc)


@st.composite
def minterm_bodies(draw) -> tuple[int, int, str, list[tuple[int, str]]]:
    """1-8 inputs, 1-4 outputs, type fr or fd, and up to 40 rows, each a
    minterm value and an output part over {0, 1, -}."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=4))
    type_ = draw(st.sampled_from(("fr", "fd")))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), st.text("01-", min_size=m, max_size=m)),
            min_size=1,
            max_size=40,
        )
    )
    return n, m, type_, rows


@settings(deadline=None)
@given(minterm_bodies())
def test_a_minterm_body_reads_as_its_translated_and_merged_forms(case):
    """A plain body of minterms keeps its values; the same rows with one
    '-' row that says nothing, read by translation, give the same
    function, and the rows of each output part merged into '-' cubes the
    same tables."""
    n, m, type_, rows = case
    head = f".i {n}\n.o {m}\n.type {type_}\n"
    minterm_rows = [f"{v:0{n}b} {out}\n" for v, out in rows]
    text = head + "".join(minterm_rows)
    groups = _scan(text, minterms=True).groups.values()
    assert all(isinstance(g, pla_io._Minterms) for g in groups)
    translated = head + "".join(minterm_rows) + "-" * n + " " + "~" * m + "\n"
    groups = _scan(translated, minterms=True).groups.values()
    assert not any(isinstance(g, pla_io._Minterms) for g in groups)
    points: dict[str, int] = {}
    for v, out in rows:
        points[out] = points.get(out, 0) | 1 << v
    merged = head + "".join(
        f"{pair_text(*pair).replace('x', '-')} {out}\n"
        for out, table in points.items()
        for pair in table_cover(table, n)
    )
    got = _outcome(text)
    assert got == _outcome(translated)
    if got is InconsistentFunction:
        assert _outcome(merged) is InconsistentFunction
    elif m == 1:
        other = parse_pla(merged)
        assert (got.on_table, got.off_table) == (other.on_table, other.off_table)
        assert got.on_table == reference_table(got.on)
    else:
        assert got == parse_pla(merged)


def _groups(parts: dict[str, str]) -> dict[str, list[tuple[int, int]]]:
    """``_RawPla`` groups from the input parts of each output part."""
    return {
        out: [(c.left.value, c.right.value) for c in map(text_cube, ins.split())]
        for out, ins in parts.items()
    }


_HEAD = ".i 2\n.o 1\n.type fr\n"
_FR_11_00 = _RawPla(2, 1, "fr", _groups({"1": "11", "0": "00"}), ())


@pytest.mark.parametrize(
    "text, want",
    [
        # a comment, or a blank line
        (_HEAD + "11 1 # on\n00 0\n.e\n", _FR_11_00),
        (_HEAD + "11 1\n\n00 0\n.e\n", _FR_11_00),
        # an output part split by spaces
        (
            ".i 2\n.o 2\n11 1 0\n00 01\n.e\n",
            _RawPla(2, 2, "fd", _groups({"10": "11", "01": "00"}), ()),
        ),
        # .p or .ilb after a cube line
        (_HEAD + "11 1\n.p 2\n00 0\n.e\n", _FR_11_00),
        (_HEAD + "11 1\n.ilb a b\n00 0\n.e\n", _FR_11_00),
        # .e before the first cube line, or in mid-body with lines after it
        (_HEAD + ".e\n11 1\n00 0\n", _RawPla(2, 1, "fr", {}, ())),
        (_HEAD + "11 1\n.e\n00 0\n", _RawPla(2, 1, "fr", _groups({"1": "11"}), ())),
        # a directive with leading whitespace
        (_HEAD + "11 1\n  .ob y\n00 0\n.e\n", _RawPla(2, 1, "fr", _FR_11_00.groups, ("y",))),
        # a part padded by spaces or tabs
        (_HEAD + "  11 1\n00\t\t0\n.e\n", _FR_11_00),
    ],
)
def test_irregular_bodies_are_read_line_by_line(text, want):
    assert not _read_as_block(text)
    assert _scan(text) == want


@pytest.mark.parametrize(
    "text, message",
    [
        # a '.' or an 'x' in an input part
        (_HEAD + "11 1\n0. 0\n.e\n", "line 5: illegal input character '.' (use 0, 1 or -)"),
        (_HEAD + "x1 1\n00 0\n.e\n", "line 4: illegal input character 'x' (use 0, 1 or -)"),
        # a line of one token and one of three, two per line on average
        (".i 4\n.o 2\n0101 11 0011\n10\n.e\n", "line 3: output part '110011' is not 2 characters"),
        (".i 4\n.o 1\n0 1 01\n     1\n.e\n", "line 3: input part '0' is not 4 characters"),
        (".i 2\n.o 2\n 01  \n10 11\n.e\n", "line 3: expected input and output parts"),
        (".i 1\n.o 4\n0 11 1\n111111\n.e\n", "line 3: output part '111' is not 4 characters"),
        # a directive no PLA reader knows, in mid-body
        (_HEAD + "11 1\n.x 2\n00 0\n", "line 5: unknown directive '.x'"),
        # a '\x85' does not end its line, so the next fault keeps its number
        (".i 2\n.o 1\n01 1\x85\n1x 1\n.e\n", "line 4: illegal input character 'x' (use 0, 1 or -)"),
    ],
)
def test_irregular_bodies_raise_from_the_line_loop(text, message):
    assert not _read_as_block(text)
    with pytest.raises(PlaParseError, match=f"^{re.escape(message)}$"):
        _scan(text)


def test_crlf_line_ends_read_as_lf():
    """CRLF and CR line ends become LF before the body is read."""
    text = _HEAD + "11 1\n1- 1\n00 0\n.e\n"
    crlf, cr = text.replace("\n", "\r\n"), text.replace("\n", "\r")
    assert _read_as_block(text) and _read_as_block(crlf) and _read_as_block(cr)
    assert _scan(crlf) == _scan(cr) == _scan(text) == _line_loop_scan(crlf)
    assert _scan(text).groups == _groups({"1": "11 1-", "0": "00"})


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0x1 1", "illegal input character 'x' (use 0, 1 or -)"),
        ("0-2 0", "illegal input character '2' (use 0, 1 or -)"),
        ("010 2", "illegal output character '2'"),
        ("01 1", "input part '01' is not 3 characters"),
    ],
)
def test_a_fault_on_the_last_line_of_a_long_plain_body_is_named(bad, message):
    text, lineno = _after_minterm_rows(3, "1 0", bad, count=2000)
    # the body up to the bad line is plain
    assert _read_as_block(text.replace(f"\n{bad}\n", "\n"))
    assert not _read_as_block(text)
    with pytest.raises(PlaParseError, match=f"^line {lineno}: {re.escape(message)}$"):
        _scan(text)
