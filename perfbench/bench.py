"""Passes over a corpus, untraced and traced, and the metrics they give.

Every function of a corpus goes through the library calls the
``minimize`` command makes: ``parse_pla`` -> ``direct_cover`` ->
``verify_cover`` -> ``write_pla`` for one output, ``parse_pla`` ->
``edsa_minimize`` -> ``write_pla`` for several.  The load is a closed
loop with one client: one process, one thread, one function at a time.
Calls go through module attributes so that the traced pass sees them.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Sequence

from primecover import cover, multi_output, pla_io

from . import calibrate, checker, tracing
from .corpus import Case

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "fn_p50_ms": "ms",
    "fn_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cubes": "count",
    "literals": "count",
    "cubes_over_min": "ratio",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Outcome:
    text: str = ""  # the PLA text written for the cover
    function: object = None  # the parsed single-output function
    verified: bool = True  # verify_cover(...).ok, single output only
    error: str = ""


def run_case(case: Case) -> Outcome:
    try:
        f = pla_io.parse_pla(case.text, name=case.name)
        if case.outputs == 1:
            result = cover.direct_cover(f)
            ok = cover.verify_cover(result, f).ok
            return Outcome(pla_io.write_pla(result.cubes, f.n), f, ok)
        tagged = multi_output.edsa_minimize(f)
        return Outcome(pla_io.write_pla(tagged, f.n, outputs=f.m))
    except Exception:  # noqa: BLE001  a failing function is counted, not fatal
        return Outcome(error=traceback.format_exc())


def problems_of(case: Case, outcome: Outcome) -> list[str]:
    """What is wrong with one function's outcome; empty when it is correct."""
    if outcome.error:
        return [outcome.error.strip().splitlines()[-1]]
    single = case.outputs == 1
    problems = checker.check_output(case, outcome.text, outcome.function if single else None)
    if not outcome.verified:
        problems.append("verify_cover reports a violation")
    return problems


@dataclass
class Pass:
    """One pass over a corpus.  Per function: its time in reference
    seconds (see ``calibrate``), the calibration factor that gave it, the
    cover digest and written PLA text, and, when checked, what is wrong."""

    times: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    problems: list[list[str]] | None = None

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def raw_wall(self) -> float:
        return sum(t / k for t, k in zip(self.times, self.factors))


def run_pass(cases: Sequence[Case], tracer=None, check: bool = False) -> Pass:
    """Time every function once, each between two calibration loops.

    Checking happens between functions, outside their timers, so that no
    parsed function outlives its turn and the peak memory does not depend
    on how many passes fit.
    """
    gc.collect()
    done = Pass(problems=[] if check else None)
    elapsed, loops = [], [calibrate.loop_seconds()]
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.fn = i
        t0 = perf_counter()
        outcome = run_case(case)
        elapsed.append(perf_counter() - t0)
        loops.append(calibrate.loop_seconds())
        done.texts.append(outcome.text)
        done.digests.append("" if outcome.error else checker.cover_digest(outcome.text))
        if check:
            done.problems.append(problems_of(case, outcome))
    done.factors = calibrate.scales(loops)
    done.times = [t * k for t, k in zip(elapsed, done.factors)]
    return done


def measure_setup(kind: str) -> float:
    """Median over fresh interpreters of import plus one warm-up per entry
    point, in reference seconds."""
    probe = HERE / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), kind],
            capture_output=True, text=True, check=True, timeout=60,
        )
        before, elapsed, after = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(elapsed * calibrate.scales([before, after])[0])
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_digests(workload: str) -> tuple[int, dict[str, str]]:
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return stored["seed"], stored["workloads"].get(workload, {})


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    digest_mismatches: int = 0
    digests_checked: int = 0
    problems: list[str] = field(default_factory=list)


def judge(workload: str, seed: int, cases: Sequence[Case], passes: Sequence[Pass]) -> Verdict:
    """Check the first pass's covers independently; every later pass must
    reproduce its digests; stored digests must match where they exist.

    Under the default seed every function must have a stored digest.
    """
    first = passes[0]
    default_seed, stored = load_digests(workload)
    v = Verdict(attempted=len(cases) * len(passes))
    for i, case in enumerate(cases):
        problems = first.problems[i]
        differing = sum(p.digests[i] != first.digests[i] for p in passes[1:])
        if problems:
            v.failed += len(passes)
        elif differing:
            v.failed += differing
            problems = [f"cover differs in {differing} later pass(es)"]
        v.problems += [f"{case.name}: {p}" for p in problems]
        want = stored.get(checker.input_digest(case.text))
        if want is None and seed == default_seed:
            want = "(none)"
        if want is not None:
            v.digests_checked += 1
            if want != first.digests[i]:
                v.digest_mismatches += 1
                v.problems.append(f"{case.name}: cover digest {first.digests[i]}, stored {want}")
    return v


def cover_size(texts: Sequence[str]) -> tuple[int, int]:
    """(cubes, literals) summed over all written covers."""
    cubes = literals = 0
    for text in texts:
        for inputs, _ in checker.cover_rows(text):
            cubes += 1
            literals += len(inputs) - inputs.count("-")
    return cubes, literals


def cubes_over_min(cases: Sequence[Case], first: Pass) -> float:
    """Geometric mean, over outputs of functions with n <= 10, of the cubes
    the cover spends on that output over the exact minimum for it alone."""
    cache = checker.MinimumCache(OUT / "minimum-cache.json")
    logs = []
    for case, text, problems in zip(cases, first.texts, first.problems):
        if case.n > checker.MINIMUM_MAX_VARS or problems:
            continue
        rows = checker.cover_rows(text)
        for j, column in enumerate(case.truth):
            least = cache.minimum(case.n, column)
            if least:
                used = sum(out[j] == "1" for _, out in rows)
                logs.append(math.log(used / least))
    cache.save()
    return math.exp(statistics.fmean(logs)) if logs else 0.0


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    functions: int
    passes: int
    verdict: Verdict
    metrics: dict[str, float]
    shares: dict[str, float] | None = None
    samples: int = 0
    raw_wall: float = 0.0  # median pass time in measured seconds

    def summary(self) -> list[str]:
        """Human-readable lines, printed before the JSON result."""
        v = self.verdict
        mode = "traced" if self.trace else "untraced"
        lines = [
            f"{self.workload} seed {self.seed}: {self.functions} functions, {self.passes} {mode} pass(es)",
            f"  times in reference seconds; median {mode} pass as measured: {self.raw_wall:.6g} s",
        ]
        if self.samples:
            lines.append(f"  per-function samples: {self.samples}, each a median over the passes")
        lines += [f"  {name:36s} {value:.6g} {unit_of(name)}" for name, value in self.metrics.items()]
        if self.shares:
            lines.append("  self-time share of traced wall: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in self.shares.items()
            ))
        lines.append(f"  failed_frac {v.failed / v.attempted:.6g} ({v.failed} of {v.attempted})")
        lines.append(
            f"  digest_mismatches {v.digest_mismatches} "
            f"({v.digests_checked} functions with a stored digest)"
        )
        lines += [f"  problem: {p}" for p in v.problems[:5]]
        return lines

    def to_json(self) -> str:
        v = self.verdict
        return json.dumps(
            {
                "correct": v.failed == 0 and v.digest_mismatches == 0,
                "attempted": v.attempted,
                "failed": v.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in self.metrics.items()
                },
            }
        )


def _kind(cases: Sequence[Case]) -> str:
    return "multi" if cases[0].outputs > 1 else "single"


def _keep_going(start: float, walls: Sequence[float], seconds: float) -> bool:
    """At least one pass; another only if it should end within ``seconds``."""
    return not walls or perf_counter() - start + statistics.fmean(walls) <= seconds


def timed_run(workload: str, seed: int, seconds: float, cases: Sequence[Case]) -> Result:
    """Untraced passes for about ``seconds``; the end-to-end metrics."""
    setup = measure_setup(_kind(cases))
    passes: list[Pass] = []
    start = perf_counter()
    while _keep_going(start, [p.wall for p in passes], seconds):
        passes.append(run_pass(cases, check=not passes))
    rss = peak_rss_mb()
    verdict = judge(workload, seed, cases, passes)
    # one sample per function: its median over the passes
    samples = [statistics.median(ts) * 1000.0 for ts in zip(*(p.times for p in passes))]
    cubes, literals = cover_size(passes[0].texts)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "fn_p50_ms": statistics.median(samples),
        "fn_p90_ms": statistics.quantiles(samples, n=10)[-1],
        "setup_s": setup,
        "peak_rss_mb": rss,
        "cubes": cubes,
        "literals": literals,
        "cubes_over_min": cubes_over_min(cases, passes[0]),
    }
    raw_wall = statistics.median(p.raw_wall for p in passes)
    return Result(workload, seed, False, len(cases), len(passes), verdict, metrics,
                  samples=len(samples), raw_wall=raw_wall)


def traced_run(workload: str, seed: int, seconds: float, cases: Sequence[Case]) -> Result:
    """Pairs of one untraced and one traced pass; the per-layer metrics.

    The traced covers must equal the untraced ones.  Spans of the last
    traced pass are written under ``out/``.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    shares: list[dict[str, float]] = []
    start = perf_counter()
    pair_walls: list[float] = []
    while _keep_going(start, pair_walls, seconds):
        plain.append(run_pass(cases, check=not plain))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced.append(run_pass(cases, tracer=tracer))
        wall = traced[-1].wall
        self_times = tracer.self_times(traced[-1].factors)
        layers.append(tracing.layer_metrics(tracer, self_times, wall))
        shares.append(tracing.layer_shares(self_times, wall))
        pair_walls.append(plain[-1].wall + wall)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
    verdict = judge(workload, seed, cases, plain + traced)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for p, t in zip(plain, traced)
    )
    share = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
    raw_wall = statistics.median(p.raw_wall for p in traced)
    return Result(workload, seed, True, len(cases), len(plain), verdict, metrics, share,
                  raw_wall=raw_wall)
