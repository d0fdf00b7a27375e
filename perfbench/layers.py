"""Per-layer tracing: timing shims around spingap's public functions.

``Shims`` replaces each listed function with a wrapper that records a
span (name, start, end, parent) in memory.  It patches the module
attribute, every alias that a ``from`` import left in another spingap
module, and the method ``FiniteKernel.detailed_balance_error``; leaving
the ``with`` block puts every original back.  Nothing under ``src/``
changes.

A layer's self time is the duration of its spans minus the part their
child spans cover.  The ``trace_sink`` callback that the CLI hands to
``run_estimate`` is timed by the ``run_estimate`` shim and billed to
``cli.trace_sink_s``, not to the sampler.  Counting states and nonzeros
after a chain is built is billed to the tracer itself, so it shows up
only in the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

from spingap.kernels import BirthDeathChain, FiniteKernel
from workloads import SAMPLER_LABELS

# (module, bucket, functions): the public functions that the workloads' CLI
# commands reach, grouped into the layers the metrics report
SHIMMED = (
    ("spingap.cli", "cli", ["main"]),
    ("spingap.verify", "verify", [
        "verify_ising_fast", "verify_ising_slow", "verify_warmup", "verify_beg_slow",
        "verify_beg_fast", "exact_gap_record", "chain_for"]),
    ("spingap.verify", "verify.fit", ["ols_fit"]),
    ("spingap.kernels", "kernels.build", [
        "signed_lumped_chain", "beg_lumped", "ising_lumped_bd", "metropolis_chain",
        "metropolize", "single_flip_proposal", "equi_energy_proposal",
        "small_world_proposal", "partition_by", "warmup_block_partition"]),
    ("spingap.kernels", "kernels.project", ["lumped_projection"]),
    ("spingap.spectral", "spectral.spectrum", ["spectrum"]),
    ("spingap.spectral", "spectral.cut", ["cut_bottleneck_log"]),
    ("spingap.models", "models", [
        "class_table", "enumerate_beg_classes", "enumerate_states", "log_weights_all",
        "beg_row_log_profile", "ising_magnetization_log_profile"]),
    ("spingap.sampling", "sampling", ["run_estimate"]),
)

# bucket -> per-layer self-time metric
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "verify": "verify.self_s",
    "verify.fit": "verify.fit_s",
    "kernels.build": "kernels.build_s",
    "kernels.project": "kernels.project_s",
    "kernels.detailed_balance": "kernels.detailed_balance_s",
    "spectral.spectrum": "spectral.spectrum_s",
    "spectral.cut": "spectral.cut_s",
    "models": "models.self_s",
    "sampling": "sampling.self_s",
}

COUNTS = ("kernels.chain_builds", "kernels.states", "kernels.nnz",
          "spectral.spectrum_calls", "spectral.max_dim", "spectral.dense_bytes")

ACCEPT_COMPONENTS = ("flip", "global", "orbit")

#: every per-layer metric a traced run reports, with its unit
UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    "cli.trace_sink_s": "s",
    "cli.bytes_written": "B",
    "verify.cells": "count",
    "verify.underflow_cells": "count",
    "kernels.chain_builds": "count",
    "kernels.states": "count",
    "kernels.nnz": "count",
    "spectral.spectrum_calls": "count",
    "spectral.max_dim": "count",
    "spectral.dense_bytes": "B",
    **{f"sampling.steps_per_s.{label}": "1/s" for label in SAMPLER_LABELS},
    **{f"sampling.accept.{comp}": "fraction" for comp in ACCEPT_COMPONENTS},
    "sampling.ops_per_step": "ops/step",
    "other.self_s": "s",
    "other.share": "fraction",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_NAME, _BUCKET, _START, _END, _PARENT, _COVERED = range(6)


class Tracer:
    """Spans and counts kept in memory for one run."""

    def __init__(self):
        self.spans = []   # [name, bucket, start, end, parent index, covered seconds]
        self.stack = []
        self.runs = []    # (label, steps, seconds without the sink, RunStats)
        self.begin_cycle()

    def begin_cycle(self) -> None:
        """Start the counts and the span range that ``summary`` reports."""
        self.first_span = len(self.spans)
        self.first_run = len(self.runs)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.sink_s = 0.0

    def open(self, name: str, bucket: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, bucket, perf_counter(), None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[_END] = end
        self.stack.pop()
        if span[_PARENT] is not None:
            self.spans[span[_PARENT]][_COVERED] += end - span[_START]
        return end - span[_START]

    def inside(self, bucket: str) -> bool:
        return any(self.spans[i][_BUCKET] == bucket for i in self.stack)

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the cycle since ``begin_cycle``; wall_s is its time."""
        out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        top = 0.0
        for s in self.spans[self.first_span:]:
            if s[_BUCKET] in SELF_TIME_METRICS:
                out[SELF_TIME_METRICS[s[_BUCKET]]] += s[_END] - s[_START] - s[_COVERED]
            if s[_PARENT] is None:
                top += s[_END] - s[_START]
        out["cli.trace_sink_s"] = self.sink_s
        out.update(self.counts)
        out["other.self_s"] = wall_s - top
        out["other.share"] = out["other.self_s"] / wall_s
        out.update(_sampling_metrics(self.runs[self.first_run:]))
        return out

    def dump(self) -> list:
        """Spans as [name, start, end, parent] for writing out."""
        return [[s[_NAME], s[_START], s[_END], s[_PARENT]] for s in self.spans]


def _sampling_metrics(runs: list) -> dict:
    out = {f"sampling.steps_per_s.{label}": 0.0 for label in SAMPLER_LABELS}
    for label, steps, seconds, _ in runs:
        out[f"sampling.steps_per_s.{label}"] = steps / seconds
    for comp in ACCEPT_COMPONENTS:
        proposed = sum(st.acceptance[comp]["proposed"] for *_, st in runs)
        accepted = sum(st.acceptance[comp]["accepted"] for *_, st in runs)
        out[f"sampling.accept.{comp}"] = accepted / proposed if proposed else 0.0
    steps = sum(st.steps for *_, st in runs)
    out["sampling.ops_per_step"] = sum(st.cost.ops for *_, st in runs) / steps if steps else 0.0
    return out


def _chain_size(chain) -> tuple:
    if isinstance(chain, BirthDeathChain):
        return chain.n, chain.n + int(np.count_nonzero(chain.up[:-1])
                                      + np.count_nonzero(chain.down[1:]))
    return chain.n, int(np.count_nonzero(chain.P))


def _timed(tracer: Tracer, name: str, bucket: str, fn):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        idx = tracer.open(name, bucket)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if bucket == "kernels.build" and isinstance(out, (FiniteKernel, BirthDeathChain)) \
                and not tracer.inside("kernels.build"):
            _count(tracer, "chain", out)
        elif bucket == "spectral.spectrum":
            _count(tracer, "spectrum", args[0])
        return out
    return shim


def _count(tracer: Tracer, what: str, chain) -> None:
    idx = tracer.open("trace.count", "trace")
    c = tracer.counts
    if what == "chain":
        n, nnz = _chain_size(chain)
        c["kernels.chain_builds"] += 1
        c["kernels.states"] += n
        c["kernels.nnz"] += nnz
    else:
        c["spectral.spectrum_calls"] += 1
        c["spectral.max_dim"] = max(c["spectral.max_dim"], chain.n)
        if isinstance(chain, FiniteKernel) and chain.n > 1:
            c["spectral.dense_bytes"] += 8 * chain.n * chain.n
    tracer.close(idx)


def _timed_run_estimate(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        inner = bound.arguments.get("trace_sink")
        sink_s = 0.0
        if inner is not None:
            def timed_sink(*a):
                nonlocal sink_s
                t = perf_counter()
                inner(*a)
                sink_s += perf_counter() - t
            bound.arguments["trace_sink"] = timed_sink
        idx = tracer.open("run_estimate", "sampling")
        try:
            stats = fn(*bound.args, **bound.kwargs)
        finally:
            seconds = tracer.close(idx)
            tracer.spans[idx][_COVERED] += sink_s
            tracer.sink_s += sink_s
        spec = bound.arguments["spec"]
        tracer.runs.append((f"{spec.kind}-n{spec.N}", stats.steps, seconds - sink_s, stats))
        return stats
    return shim


class Shims:
    """Context manager that installs the timing shims and removes them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "spingap" or name.startswith("spingap.")]
        for modname, bucket, names in SHIMMED:
            for name in names:
                orig = getattr(sys.modules[modname], name)
                if name == "run_estimate":
                    shim = _timed_run_estimate(self.tracer, orig)
                else:
                    shim = _timed(self.tracer, name, bucket, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self.undo.append((m, attr, orig))
                            setattr(m, attr, shim)
        orig = FiniteKernel.__dict__["detailed_balance_error"]
        self.undo.append((FiniteKernel, "detailed_balance_error", orig))
        FiniteKernel.detailed_balance_error = _timed(
            self.tracer, "detailed_balance_error", "kernels.detailed_balance", orig)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self.undo):
            setattr(owner, attr, orig)
        self.undo.clear()
        return False


def median_summary(summaries: list) -> dict:
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
