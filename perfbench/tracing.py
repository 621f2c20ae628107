"""Spans and counters recorded from outside the program.

``installed`` replaces, for the duration of a ``with`` block, the module
and class attributes through which each layer of ``primecover`` calls
the next, and puts every original back on exit, also on error.  Each
call becomes a span: name, start, end, parent span and the index of the
corpus function it belongs to.  Counters are read from arguments and
return values at the same boundaries.  ``BitVec``/``Cube`` constructions
are counted, not timed.

A span's self time is its duration minus that of its direct children;
the self times of all spans partition the traced time attributed to
the program.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import primecover.bitcube as bitcube
import primecover.cover as cover
import primecover.multi_output as multi_output
import primecover.pi_gen as pi_gen
import primecover.pla_io as pla_io

# (owner, attribute, span name, layer).  Each owner is where the caller
# resolves the name at call time, so wrapping it there is seen by callers.
TIMED = (
    (pla_io, "parse_pla", "pla_io.parse_pla", "pla_io"),
    (pla_io, "complement_cubes", "pla_io.complement_cubes", "pla_io"),
    (pla_io, "write_pla", "pla_io.write_pla", "pla_io"),
    (pla_io.LogicFunction, "validate", "pla_io.validate", "pla_io"),
    (pi_gen, "generate_sdm", "reduced_offset.generate_sdm", "reduced_offset"),
    (pi_gen, "generate_n", "pi_gen.generate_n", "pi_gen"),
    (pi_gen, "cross_or", "pi_gen.cross_or", "pi_gen"),
    (pi_gen, "vectors_to_pis", "pi_gen.vectors_to_pis", "pi_gen"),
    (cover, "generate_spi", "pi_gen.generate_spi", "pi_gen"),
    (cover, "coverage_mask", "cover.coverage_mask", "cover"),
    (cover, "expand_on_minterms", "cover.expand_on_minterms", "cover"),
    (cover, "direct_cover", "cover.direct_cover", "cover"),
    (cover, "verify_cover", "cover.verify_cover", "cover"),
    (multi_output, "generate_spi", "pi_gen.generate_spi", "pi_gen"),
    (multi_output, "coverage_mask", "cover.coverage_mask", "cover"),
    (multi_output, "subfunction_off", "multi_output.subfunction_off", "multi_output"),
    (multi_output, "edsa_minimize", "multi_output.edsa_minimize", "multi_output"),
)
COUNTED = (
    (bitcube.BitVec, "__post_init__", "bitcube.bitvec_new"),
    (bitcube.Cube, "__post_init__", "bitcube.cube_new"),
)
LAYERS = ("pla_io", "reduced_offset", "pi_gen", "cover", "multi_output")
LAYER_OF = {name: layer for _, _, name, layer in TIMED}


def _on_sdm(t, args, kwargs, result) -> None:
    t.counts["folds"] += 1
    t.counts["off_cubes_folded"] += len(args[1])
    t.counts["comparisons"] += result.comparisons
    t.counts["absorptions"] += result.absorptions
    t.widths.append(len(result))


def _on_cross_or(t, args, kwargs, result) -> None:
    t.counts["products"] += len(args[0]) * len(args[1])
    t.counts["products_kept"] += len(result)


def _on_subfunction_off(t, args, kwargs, result) -> None:
    t.tags.add((t.fn, frozenset(args[0])))
    t.counts["off_minterms_built"] += len(result)


AFTER = {
    "reduced_offset.generate_sdm": _on_sdm,
    "pi_gen.cross_or": _on_cross_or,
    "pi_gen.generate_spi": lambda t, a, k, r: t.primes.append(len(r)),
    "pla_io.complement_cubes": lambda t, a, k, r: t.counts.update(complement_out=len(r)),
    "cover.direct_cover": lambda t, a, k, r: t.counts.update(iterations=r.iterations),
    "multi_output.subfunction_off": _on_subfunction_off,
}


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.fn = -1
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.widths: list[int] = []
        self.primes: list[int] = []
        self.tags: set[tuple[int, frozenset[int]]] = set()
        self._stack: list[int] = []
        self._next = 0

    def timed(self, name: str, fn):
        after = AFTER.get(name)
        stack, spans, calls = self._stack, self.spans, self.calls

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.fn))
                calls[name] += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(obj):
            calls[name] += 1
            return fn(obj)

        return wrapper

    def self_times(self, factors) -> dict[str, float]:
        """Self time per span name, in reference seconds: each span is
        scaled by the calibration factor of the function it belongs to."""
        child = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, fn in self.spans:
            out[name] += (end - start - child[sid]) * factors[fn] / 1e9
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for sid, name, start, end, parent, fn in sorted(self.spans):
                out.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "fn": fn},
                    )
                    + "\n"
                )


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the block; restore the originals after."""
    saved = []
    try:
        for owner, attr, name, _ in TIMED:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.timed(name, original))
        for owner, attr, name in COUNTED:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.counted(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, st: dict[str, float], traced_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, from its self times ``st``.

    A layer that does not run in a workload reports 0 for its metrics.
    """
    c, calls = tracer.counts, tracer.calls
    widths, primes = tracer.widths, tracer.primes
    iterations = c["iterations"]
    return {
        "bitcube.bitvec_new": calls["bitcube.bitvec_new"],
        "bitcube.cube_new": calls["bitcube.cube_new"],
        "pla_io.parse_s": st["pla_io.parse_pla"],
        "pla_io.complement_s": st["pla_io.complement_cubes"],
        "pla_io.complement_out_cubes": c["complement_out"],
        "pla_io.validate_s": st["pla_io.validate"],
        "pla_io.validate_calls": calls["pla_io.validate"],
        "pla_io.write_s": st["pla_io.write_pla"],
        "reduced_offset.fold_s": st["reduced_offset.generate_sdm"],
        "reduced_offset.folds": c["folds"],
        "reduced_offset.off_cubes_folded": c["off_cubes_folded"],
        "reduced_offset.comparisons": c["comparisons"],
        "reduced_offset.absorptions": c["absorptions"],
        "reduced_offset.width_max": max(widths, default=0),
        "reduced_offset.width_mean": statistics.fmean(widths) if widths else 0.0,
        "reduced_offset.kept_ratio": _ratio(sum(widths), c["off_cubes_folded"]),
        "pi_gen.spi_s": st["pi_gen.generate_spi"],
        "pi_gen.expand_s": st["pi_gen.generate_n"] + st["pi_gen.cross_or"],
        "pi_gen.products": c["products"],
        "pi_gen.kept_ratio": _ratio(c["products_kept"], c["products"]),
        "pi_gen.to_cubes_s": st["pi_gen.vectors_to_pis"],
        "pi_gen.primes_mean": statistics.fmean(primes) if primes else 0.0,
        "pi_gen.primes_max": max(primes, default=0),
        "cover.direct_cover_self_s": st["cover.direct_cover"],
        "cover.expand_on_s": st["cover.expand_on_minterms"],
        "cover.coverage_mask_s": st["cover.coverage_mask"],
        "cover.coverage_mask_calls": calls["cover.coverage_mask"],
        "cover.iterations": iterations,
        # one coverage mask per scored candidate; only direct_cover commits
        "cover.commit_ratio": _ratio(iterations, calls["cover.coverage_mask"])
        if calls["cover.direct_cover"]
        else 0.0,
        "cover.verify_s": st["cover.verify_cover"],
        "multi_output.edsa_self_s": st["multi_output.edsa_minimize"],
        "multi_output.subfunction_off_s": st["multi_output.subfunction_off"],
        "multi_output.subfunction_off_calls": calls["multi_output.subfunction_off"],
        "multi_output.distinct_tags": len(tracer.tags),
        "multi_output.off_minterms_built": c["off_minterms_built"],
        "multi_output.spi_calls": calls["pi_gen.generate_spi"]
        if calls["multi_output.edsa_minimize"]
        else 0,
        "trace.unattributed_s": traced_wall - sum(st.values()),
    }


def layer_shares(st: dict[str, float], traced_wall: float) -> dict[str, float]:
    """Share of the traced wall time spent in each layer's own code."""
    shares: dict[str, float] = Counter()
    for name, seconds in st.items():
        shares[LAYER_OF[name]] += seconds / traced_wall
    return {layer: shares[layer] for layer in LAYERS}
