"""Property tests: the sliced set algebra against the pairwise references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import (
    Cube,
    InconsistentFunction,
    LogicFunction,
    coverage_mask,
    cube_intersects,
    direct_cover,
    text_cube,
    verify_cover,
)
from primecover.bitcube import BitVec, Slices
from helpers import reference_coverage_mask, reference_validate, reference_verify_cover

widths = st.integers(min_value=1, max_value=12)


def cubes(width: int, *, empty: bool = True) -> st.SearchStrategy[Cube]:
    """Cubes over ``width`` variables, with the universal (and, unless
    ``empty`` is false, the empty) cube drawn often."""
    drawn = st.text(alphabet="01x", min_size=width, max_size=width).map(text_cube)
    special = [Cube.universal(width)] + ([Cube.empty_cube(width)] if empty else [])
    return st.one_of(drawn, drawn, drawn, st.sampled_from(special))


def pairs(listed: list[Cube]) -> list[tuple[int, int]]:
    return [(c.left.value, c.right.value) for c in listed]


def validate_outcome(check) -> str | None:
    try:
        check()
    except InconsistentFunction as exc:
        return str(exc)
    return None


@given(st.data())
def test_meets_is_the_cube_intersects_index_set(data):
    width = data.draw(widths)
    listed = data.draw(st.lists(cubes(width), max_size=16))
    query = data.draw(cubes(width))
    expected = 0
    for c in listed:
        expected = expected << 1 | cube_intersects(c, query)
    sliced = Slices(pairs(listed), width)
    assert sliced.count == len(listed)
    assert sliced.meets(query.left.value, query.right.value) == expected


@given(st.data())
def test_coverage_mask_matches_pairwise(data):
    width = data.draw(widths)
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    on = [BitVec(width, v) for v in values]
    pi = data.draw(cubes(width))
    assert coverage_mask(pi, on) == reference_coverage_mask(pi, on)


@given(st.data())
def test_validate_matches_pairwise(data):
    width = data.draw(widths)
    on = data.draw(st.lists(cubes(width), max_size=8))
    off = data.draw(st.lists(cubes(width), max_size=8))
    f = LogicFunction(width, on, off)
    assert validate_outcome(f.validate) == validate_outcome(lambda: reference_validate(f))


@st.composite
def consistent_functions(draw) -> LogicFunction:
    width = draw(widths)
    on = draw(st.lists(cubes(width, empty=False), min_size=1, max_size=5))
    drawn_off = draw(st.lists(cubes(width, empty=False), max_size=8))
    off = [z for z in drawn_off if not any(cube_intersects(z, a) for a in on)]
    return LogicFunction(width, on, off)


@settings(deadline=None)
@given(st.data())
def test_verify_cover_matches_pairwise_on_injected_violations(data):
    f = data.draw(consistent_functions())
    good = list(direct_cover(f).cubes)
    assert verify_cover(good, f).ok
    k = data.draw(st.integers(0, len(good) - 1))
    c = good[k]
    covers = [good, good[:k] + good[k + 1 :]]  # a dropped cube
    specified = [p for p in range(f.n) if c.specified_mask >> p & 1]
    if specified:  # widened across a literal, into the off-set when there is one
        widened = c.raise_literal(data.draw(st.sampled_from(specified)))
        covers.append(good[:k] + [widened] + good[k + 1 :])
    free = [p for p in range(f.n) if c.dc_mask >> p & 1]
    if free:  # narrowed by a literal, so no longer prime
        bit = 1 << data.draw(st.sampled_from(free))
        value = data.draw(st.booleans())
        narrowed = Cube(
            BitVec(f.n, c.left.value & ~bit if value else c.left.value),
            BitVec(f.n, c.right.value if value else c.right.value & ~bit),
        )
        covers.append(good[:k] + [narrowed] + good[k + 1 :])
    covers.append(data.draw(st.lists(cubes(f.n), max_size=6)))
    for cover in covers:
        assert verify_cover(cover, f) == reference_verify_cover(cover, f)
