"""Value semantics of the eight record classes, which share
``bitcube.Record``: equality within one class, hashing, ``repr``,
immutability, ``BitVec`` ordering, pickling and copying, and the
``__post_init__`` hook through which constructions are counted."""

import copy
import operator
import pickle

import pytest

from primecover import (
    BitVec,
    CoverReport,
    CoverResult,
    Cube,
    DiSet,
    MultiFunction,
    TruthTable,
    minterm_to_cube,
    text_cube,
)
from primecover.pla_io import _RawPla

# one record of each class and its repr, the text the dataclasses these
# classes replaced printed
RECORDS = [
    (BitVec(3, 5), "BitVec(width=3, value=5)"),
    (
        Cube(BitVec(3, 6), BitVec(3, 3)),
        "Cube(left=BitVec(width=3, value=6), right=BitVec(width=3, value=3))",
    ),
    (CoverResult(((6, 3), (7, 1)), 2), "CoverResult(cubes=((6, 3), (7, 1)), iterations=2)"),
    (
        CoverReport((5,), ((0, 8),), ((1, 2),)),
        "CoverReport(missing=(5,), off_conflicts=((0, 8),), removable_literals=((1, 2),))",
    ),
    (
        MultiFunction(2, 2, (1, 2), (0, 4), "f", ("a", "b")),
        "MultiFunction(n=2, m=2, on=(1, 2), dc=(0, 4), name='f', labels=('a', 'b'))",
    ),
    (
        _RawPla(2, 1, "fr", {"1": [(1, 2)]}, ("y",)),
        "_RawPla(n=2, m=1, type_='fr', groups={'1': [(1, 2)]}, ob=('y',))",
    ),
    (
        DiSet([BitVec(3, 5), BitVec(3, 1)], 4, 1),
        "DiSet(elements=[BitVec(width=3, value=1), BitVec(width=3, value=5)], "
        "comparisons=4, absorptions=1)",
    ),
    (TruthTable(1, (0, 2)), "TruthTable(n=1, values=(0, 2))"),
]
ALL = [r for r, _ in RECORDS]
MUTABLE = [r for r in ALL if isinstance(r, (DiSet, _RawPla))]
FROZEN = [r for r in ALL if r not in MUTABLE]


FIELDS = {
    BitVec: ("width", "value"),
    Cube: ("left", "right"),
    CoverResult: ("cubes", "iterations"),
    CoverReport: ("missing", "off_conflicts", "removable_literals"),
    MultiFunction: ("n", "m", "on", "dc", "name", "labels"),
    _RawPla: ("n", "m", "type_", "groups", "ob"),
    DiSet: ("elements", "comparisons", "absorptions"),
    TruthTable: ("n", "values"),
}


def _ids(records):
    return [type(r).__name__ for r in records]


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record, text", RECORDS, ids=_ids(ALL))
def test_repr_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", ALL, ids=_ids(ALL))
def test_equality_holds_within_one_class_only(record):
    twin = type(record)(*_values(record))
    assert twin == record and not twin != record
    for other in ALL:
        if other is not record:
            assert other != record
    assert record != _values(record)
    assert record != object()


def test_equal_fields_in_another_class_are_not_equal():
    assert BitVec(3, 5) != TruthTable(3, 5)


@pytest.mark.parametrize("record", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_by_value_and_refuse_assignment(record):
    twin = copy.deepcopy(record)
    assert twin is not record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 0
    assert record == twin


@pytest.mark.parametrize("record", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable_and_assignable(record):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    twin = copy.deepcopy(record)
    name = FIELDS[type(record)][0]
    setattr(twin, name, "changed")
    assert twin != record
    delattr(twin, name)
    with pytest.raises(AttributeError):
        getattr(twin, name)


def test_diset_sorts_its_elements_and_defaults_to_empty():
    assert DiSet().elements == [] and DiSet().comparisons == 0 == DiSet().absorptions
    assert DiSet((BitVec(2, 3), BitVec(2, 0))).elements == [BitVec(2, 0), BitVec(2, 3)]


def test_bitvec_order_is_width_then_value():
    vectors = [BitVec(3, 5), BitVec(2, 3), BitVec(3, 1), BitVec(1, 0), BitVec(2, 0)]
    assert sorted(vectors) == [
        BitVec(1, 0), BitVec(2, 0), BitVec(2, 3), BitVec(3, 1), BitVec(3, 5)
    ]
    a, b = BitVec(2, 3), BitVec(3, 0)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a < a or a > a or b < a or b <= a)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, 1)


def test_records_compare_unordered_apart_from_bitvec():
    with pytest.raises(TypeError):
        text_cube("0x") < text_cube("1x")


@pytest.mark.parametrize("record", ALL, ids=_ids(ALL))
def test_pickle_and_copy_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
        assert repr(back) == repr(record)
    for back in (copy.copy(record), copy.deepcopy(record)):
        assert type(back) is type(record) and back == record


def test_deepcopy_of_a_mutable_record_shares_nothing():
    record = _RawPla(2, 1, "fr", {"1": [(1, 2)]}, ("y",))
    twin = copy.deepcopy(record)
    twin.groups["1"].append((2, 1))
    assert record.groups == {"1": [(1, 2)]}


def test_unpickling_runs_the_checks():
    # a pickle is rebuilt through __init__, so bad fields still raise
    forged = pickle.dumps(BitVec(3, 5)).replace(b"K\x05", b"K\x08")
    with pytest.raises(ValueError, match="does not fit in 3 bits"):
        pickle.loads(forged)


@pytest.mark.parametrize("cls", [BitVec, Cube])
def test_post_init_patched_on_the_class_counts_every_construction(cls, monkeypatch):
    # perfbench/tracing.py and helpers.count_cubes count bitcube.bitvec_new
    # and bitcube.cube_new this way: the hook is looked up on the class,
    # in its own namespace, at each construction
    original = vars(cls)["__post_init__"]
    built = []

    def counted(obj):
        built.append(obj)
        original(obj)

    monkeypatch.setattr(cls, "__post_init__", counted)
    a = BitVec(3, 5)
    made = [
        a,
        BitVec.from_text("0110"),
        BitVec.zeros(2),
        ~a,
        a & BitVec(3, 3),
        Cube(BitVec(2, 3), BitVec(2, 1)),
        minterm_to_cube(BitVec(2, 2)),
        text_cube("1x0"),
        Cube.universal(4),
        pickle.loads(pickle.dumps(a)),
        copy.deepcopy(Cube(BitVec(1, 1), BitVec(1, 1))),
    ]
    assert all(type(x) in (BitVec, Cube) for x in made)
    assert [type(x) for x in built] == [cls] * len(built)
    assert len(built) == {BitVec: 19, Cube: 6}[cls]
    with pytest.raises(ValueError):
        cls(*((BitVec(3, 1), BitVec(3, 2)) if cls is Cube else (2, 4)))
    monkeypatch.undo()
    assert vars(cls)["__post_init__"] is original
