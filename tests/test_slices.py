"""Property tests: the sliced set algebra against the pairwise references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import (
    Cube,
    InconsistentFunction,
    LogicFunction,
    coverage_mask,
    direct_cover,
    text_cube,
    verify_cover,
)
from primecover.bitcube import BitVec, Slices
from primecover.oracle import TruthTable, equivalent
from helpers import (
    as_cubes,
    cube_pair,
    reference_coverage_mask,
    reference_intersects,
    reference_raise_literal,
    pairwise_verify_cover,
    reference_validate,
)

widths = st.integers(min_value=1, max_value=12)


def cubes(width: int) -> st.SearchStrategy[Cube]:
    """Cubes over ``width`` variables, with the universal cube drawn often."""
    drawn = st.text(alphabet="01x", min_size=width, max_size=width).map(text_cube)
    return st.one_of(drawn, drawn, drawn, st.just(Cube.universal(width)))


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
        expected = expected << 1 | reference_intersects(c, query)
    sliced = Slices(pairs(listed), width)
    assert sliced.count == len(listed)
    assert sliced.meets(query.left.value, query.right.value) == expected
    # an empty list meets nothing; the universal query meets every cube
    assert Slices([], width).meets(query.left.value, query.right.value) == 0
    full = (1 << width) - 1
    assert sliced.meets(full, full) == (1 << len(listed)) - 1


@given(st.data())
def test_coverage_mask_matches_pairwise(data):
    width = data.draw(widths)
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    on = [BitVec(width, v) for v in values]
    pi = data.draw(cubes(width))
    assert coverage_mask(pi, on) == reference_coverage_mask(pi, on)


@given(st.data())
def test_validate_matches_pairwise(data):
    """Building a function raises exactly when, and with the message
    that, the pairwise check raises."""
    width = data.draw(widths)
    on = data.draw(st.lists(cubes(width), max_size=8))
    off = data.draw(st.lists(cubes(width), max_size=8))
    assert validate_outcome(lambda: LogicFunction(width, on, off)) == validate_outcome(
        lambda: reference_validate(on, off)
    )


@settings(deadline=None)
@given(st.data())
def test_direct_cover_raises_inconsistent_exactly_when_validate_does(data):
    """Building a function raises exactly when the pairwise check does,
    and direct_cover raises no InconsistentFunction on any function that
    can be built: the drawn one, or the one without the off-cubes that
    meet its on-set."""
    width = data.draw(st.integers(min_value=1, max_value=6))
    on = data.draw(st.lists(cubes(width), min_size=1, max_size=5))
    off = data.draw(st.lists(cubes(width), max_size=8))
    kept = [z for z in off if not any(reference_intersects(z, a) for a in on)]
    for listed in (off, kept):
        want = validate_outcome(lambda: reference_validate(on, listed))
        assert validate_outcome(lambda: LogicFunction(width, on, listed)) == want
        if want is None:
            f = LogicFunction(width, on, listed)
            assert validate_outcome(lambda: direct_cover(f)) is None


@st.composite
def consistent_functions(draw) -> LogicFunction:
    width = draw(widths)
    on = draw(st.lists(cubes(width), min_size=1, max_size=5))
    drawn_off = draw(st.lists(cubes(width), max_size=8))
    off = [z for z in drawn_off if not any(reference_intersects(z, a) for a in on)]
    return LogicFunction(width, on, off)


@settings(deadline=None)
@given(st.data())
def test_verify_cover_matches_pairwise_on_injected_violations(data):
    f = data.draw(consistent_functions())
    assert verify_cover(direct_cover(f), f).ok
    good = as_cubes(direct_cover(f).cubes, f.n)
    k = data.draw(st.integers(0, len(good) - 1))
    c = good[k]
    covers = [good, good[:k] + good[k + 1 :]]  # a dropped cube
    specified = [p for p in range(f.n) if c.specified_mask >> p & 1]
    if specified:  # widened across a literal, into the off-set when there is one
        widened = reference_raise_literal(c, data.draw(st.sampled_from(specified)))
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
    care = TruthTable.from_function(f)
    for cover in covers:
        pairs = [cube_pair(c) for c in cover]
        report = verify_cover(pairs, f)
        assert report == pairwise_verify_cover(pairs, f)
        # for a consistent function the coverage and off-set checks decide
        # agreement on the care set, which the oracle tests minterm by minterm
        agrees = not report.missing and not report.off_conflicts
        assert equivalent(list(cover), list(f.on), care) == agrees
