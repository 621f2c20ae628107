"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import primecover.bitcube as bitcube
import primecover.cover as cover
import primecover.multi_output as multi_output
import primecover.pi_gen as pi_gen
import primecover.pla_io as pla_io
from perfbench import bench, checker, corpus, tracing

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _case(workload: str, label: str) -> corpus.Case:
    return next(c for c in corpus.build(workload, 1) if c.name.endswith(label))


def _text(rows) -> str:
    return "\n".join(f"{i} {o}" for i, o in rows) + "\n"


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_identical_pla_bytes(workload):
    first = [c.text.encode() for c in corpus.build(workload, 7)]
    again = [c.text.encode() for c in corpus.build(workload, 7)]
    other = [c.text.encode() for c in corpus.build(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) >= 100


def test_checker_flags_a_dropped_and_a_widened_cube():
    # add3-s2's greedy cover is an exact minimum, so every cube is needed
    case = _case("fd-arith", "add3-s2")
    outcome = bench.run_case(case)
    assert bench.problems_of(case, outcome) == []
    rows = checker.cover_rows(outcome.text)
    for k in range(len(rows)):
        dropped = rows[:k] + rows[k + 1 :]
        assert checker.check_output(case, _text(dropped)), f"dropping cube {k} went unseen"
    for k, (inputs, outputs) in enumerate(rows):
        pos = next(p for p, ch in enumerate(inputs) if ch != "-")
        wider = inputs[:pos] + "-" + inputs[pos + 1 :]
        # every cube is prime, so raising a literal reaches into the off-set
        widened = rows[:k] + [(wider, outputs)] + rows[k + 1 :]
        assert checker.check_output(case, _text(widened)), f"widening cube {k} went unseen"


def test_checker_flags_a_broken_multi_output_cover():
    case = corpus.build("multi-random", 1)[0]
    outcome = bench.run_case(case)
    assert bench.problems_of(case, outcome) == []
    rows = checker.cover_rows(outcome.text)
    dropped = [checker.check_output(case, _text(rows[:k] + rows[k + 1 :])) for k in range(len(rows))]
    assert any(dropped)
    for k, (inputs, outputs) in enumerate(rows):
        pos = next(p for p, ch in enumerate(inputs) if ch != "-")
        wider = inputs[:pos] + "-" + inputs[pos + 1 :]
        # each cube is prime for the joint function of its tag
        widened = rows[:k] + [(wider, outputs)] + rows[k + 1 :]
        assert checker.check_output(case, _text(widened)), f"widening cube {k} went unseen"


def test_a_failed_verification_fails_the_function():
    case = _case("fd-arith", "add3-s2")
    outcome = bench.run_case(case)
    outcome.verified = False
    assert bench.problems_of(case, outcome) == ["verify_cover reports a violation"]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    cases = corpus.build(workload, 3)[:3]
    run = bench.traced_run if trace else bench.timed_run
    result = run(workload, 3, 0.0, cases)
    printed = json.loads(result.to_json())
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in printed["metrics"].values())


def _owners():
    return (pla_io, pi_gen, cover, multi_output, pla_io.LogicFunction, bitcube.BitVec, bitcube.Cube)


def _snapshot():
    return [dict(vars(owner)) for owner in _owners()]


def _assert_same(before):
    for owner, saved in zip(_owners(), before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        changed = [k for k in now if now[k] is not saved[k]]
        assert not changed, (owner, changed)


def test_wrappers_restore_every_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cover.direct_cover is not before[2]["direct_cover"]
        bench.run_case(_case("fd-arith", "add3-s2"))
        bench.run_case(corpus.build("multi-random", 1)[0])
    _assert_same(before)
    assert tracer.calls["cover.direct_cover"] == 1
    assert tracer.calls["multi_output.edsa_minimize"] == 1
    assert tracer.calls["bitcube.bitvec_new"] > 0


def test_wrappers_are_restored_on_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    _assert_same(before)
