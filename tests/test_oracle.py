import random
from types import SimpleNamespace

import pytest

from primecover import (
    BitVec,
    Cube,
    InconsistentFunction,
    LogicFunction,
    TruthTable,
    all_primes,
    cube_contains,
    cube_text,
    equivalent,
    minimum_cover_size,
    minterm_to_cube,
    text_cube,
)
from primecover.oracle import primes_containing
from helpers import (
    as_cubes,
    bv,
    five_var_function,
    naive_primes,
    random_function,
    three_var_function,
)


def test_three_var_primes_containing():
    primes = all_primes(three_var_function())
    got = primes_containing(primes, bv("001"))
    assert {cube_text(c) for c in got} == {"0x1", "x01"}


def test_five_var_primes_containing():
    primes = all_primes(five_var_function())
    got = primes_containing(primes, bv("11010"))
    assert {cube_text(c) for c in got} == {"11x10", "1x0x0"}


def test_universal_when_nothing_is_off():
    f = LogicFunction(3, tuple(minterm_to_cube(BitVec(3, v)) for v in range(8)), ())
    assert all_primes(f) == {Cube.universal(3)}


def test_primes_match_naive_enumeration():
    rng = random.Random(40)
    for _ in range(30):
        f = random_function(rng, rng.randint(2, 4))
        assert all_primes(f) == naive_primes(f)


def test_primes_pairwise_non_contained():
    rng = random.Random(41)
    for _ in range(20):
        primes = list(all_primes(random_function(rng, rng.randint(3, 5))))
        for i, a in enumerate(primes):
            for j, b in enumerate(primes):
                if i != j:
                    assert not cube_contains(a, b)


def test_guards():
    big = LogicFunction(15, (Cube.universal(15),), ())
    with pytest.raises(ValueError):
        all_primes(big)
    huge = LogicFunction(21, (Cube.universal(21),), ())
    with pytest.raises(ValueError):
        TruthTable.from_function(huge)
    seven = LogicFunction(7, (Cube.universal(7),), ())
    with pytest.raises(ValueError):
        minimum_cover_size(seven)
    # no LogicFunction can clash, so the oracle's own check reads a stand-in
    clash = SimpleNamespace(n=2, on=(text_cube("1x"),), off=(text_cube("11"),))
    with pytest.raises(InconsistentFunction, match="^minterm 11 is both on and off$"):
        TruthTable.from_function(clash)
    with pytest.raises(ValueError, match="^equivalence cap is 20 variables, got 21$"):
        equivalent([], [], TruthTable(21, ()))


def test_equivalent_examples():
    f = five_var_function()
    care = TruthTable.from_function(f)
    from primecover import direct_cover

    cover = as_cubes(direct_cover(f).cubes, f.n)
    assert equivalent(cover, list(f.on), care)
    assert equivalent(cover, cover, care)
    assert not equivalent(list(f.on[1:]), list(f.on), care)


def test_minimum_cover_size_known_cases():
    f = three_var_function()
    # on-set {001,010,011,101,110}: primes 0x1, x01, 01x, x10 cover it with 3
    assert minimum_cover_size(f) == 3
    g = LogicFunction(
        2,
        (minterm_to_cube(bv("00")),),
        tuple(minterm_to_cube(bv(t)) for t in ("01", "10", "11")),
    )
    assert minimum_cover_size(g) == 1
    assert minimum_cover_size(LogicFunction(3, (), (Cube.universal(3),))) == 0


def test_minimum_cover_size_vs_exhaustive_subsets():
    import itertools

    rng = random.Random(42)
    for _ in range(15):
        f = random_function(rng, 3)
        primes = sorted(all_primes(f), key=cube_text)
        on_values = [m.value for c in f.on for m in c.minterms()]
        best = None
        for r in range(1, len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                if all(any(q.covers_value(v) for q in combo) for v in on_values):
                    best = r
                    break
            if best is not None:
                break
        assert minimum_cover_size(f) == best
