"""Span tracing of ttldelay's layers from outside the package.

Wrappers are installed on the public functions of each module, under the
names their callers look them up by (``ttldelay.cli.build_tree``, not only
``ttldelay.hierarchy.build_tree``), and removed again afterwards, so traced
and untraced operations can alternate in one process.  Spans stay in memory
until the run ends.  Counts derived from arguments and results (state
counts, computed bytes) are taken in a ``trace.count`` span, so the cost of
counting is not charged to any layer.
"""

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

from ttldelay import cli, distributions, hierarchy, map_algebra, simulator

ROOT = "bench.op"
COUNT = "trace.count"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


class Tracer:
    """Records nested spans; one operation id per traced operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index):
        if self.stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @contextmanager
    def operation(self, op_id):
        self.op = op_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self.op = None

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in _patch_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                with self.span(COUNT):
                    self.spans[index].counts.update(counter(args, kwargs, result))
            return result

        return traced


def self_times(spans):
    """Per span, its duration minus the time covered by its child spans.

    Spans come from one thread, so children never overlap each other and
    their union is their sum.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


# --- counters: each returns a dict of counts for one call -----------------

def _dense_bytes(n):
    """Computed bytes of one MAP's two dense float64 n x n matrices."""
    return 2 * n * n * 8


def _count_kron(args, kwargs, result):
    return {"states_out": result.size, "dense_bytes": _dense_bytes(result.size)}


def _count_steady(args, kwargs, result):
    m = args[0]
    return {
        "states": m.size,
        "nnz": int(np.count_nonzero((m.d0 != 0) | (m.d1 != 0))),
    }


def _count_line(args, kwargs, result):
    parent = args[0]
    children = args[1] if len(args) > 1 else kwargs["children"]
    return {"states_in": parent.size * children.size, "states_out": result.size}


def _count_lump(args, kwargs, result):
    return {"states_in": args[0].size, "blocks_out": result.map.size}


def _count_approx(args, kwargs, result):
    return {"fallbacks": len(result.fallbacks)}


def _count_draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _count_sim(args, kwargs, result):
    return {"requests": result.request_count}


def _count_outliers(args, kwargs, result):
    return {"kept": int(np.size(result)), "seen": int(np.size(args[0]))}


def _count_fit(args, kwargs, result):
    return {
        "iterations": len(result.log_likelihood_trace),
        "restarts": result.restarts_used,
        "loglik": result.log_likelihood,
    }


def _patch_points():
    """(owner, attribute, span name, counter) for every wrapped call site."""
    points = [
        (cli, "main", "cli.main", None),
        (cli, "build_tree", "hierarchy.build_tree", None),
        (cli, "hit_probability", "metrics.hit_probability", None),
        (cli, "hierarchy_approx", "approximation.hierarchy_approx", _count_approx),
        (cli, "simulate", "simulator.simulate", _count_sim),
        (cli, "remove_outliers", "trace_pipeline.remove_outliers", _count_outliers),
        (cli, "fit_ph_em", "trace_pipeline.fit_ph_em", _count_fit),
        (simulator, "simulate_trace", "simulator.simulate_trace", _count_sim),
        (hierarchy, "build_single_cache", "cache_builders.build", None),
        (hierarchy, "build_parent_cache", "cache_builders.build", None),
        (hierarchy, "kronecker_sum", "map_algebra.kronecker_sum", _count_kron),
        (map_algebra, "steady_state", "map_algebra.steady_state", _count_steady),
        (hierarchy, "level_superpose", "hierarchy.level_superpose", None),
        (hierarchy, "line_superpose", "hierarchy.line_superpose", _count_line),
        (hierarchy, "lump_symmetric_level", "lumping.lump_symmetric_level", _count_lump),
        (distributions, "sample_ph", "distributions.sample_ph", None),
    ]
    for cls in (
        distributions.Exponential,
        distributions.Erlang,
        distributions.Coxian,
        distributions.GeneralPH,
        distributions.Deterministic,
    ):
        points.append((cls, "sample", "distributions.sample", _count_draws))
    return points


# --- per-layer metrics ----------------------------------------------------

def _op_layers(items):
    """Aggregate (span, self time) pairs by name: calls, total, self, counts."""
    agg = {}
    for span, own in items:
        a = agg.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max": {}, "sum": {}})
        a["calls"] += 1
        a["s"] += span.end - span.start
        a["self_s"] += own
        for key, value in span.counts.items():
            a["sum"][key] = a["sum"].get(key, 0) + value
            a["max"][key] = max(a["max"].get(key, 0), value)
    return agg


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg):
    """The per-layer metric values of one traced operation."""

    def get(name):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max": {}, "sum": {}})

    kron = get("map_algebra.kronecker_sum")
    steady = get("map_algebra.steady_state")
    line = get("hierarchy.line_superpose")
    build = get("hierarchy.build_tree")
    lump = get("lumping.lump_symmetric_level")
    cache = get("cache_builders.build")
    hit = get("metrics.hit_probability")
    approx = get("approximation.hierarchy_approx")
    sample = get("distributions.sample")
    sample_ph = get("distributions.sample_ph")
    sim = get("simulator.simulate")
    replay = get("simulator.simulate_trace")
    outliers = get("trace_pipeline.remove_outliers")
    fit = get("trace_pipeline.fit_ph_em")
    iterations = fit["sum"].get("iterations", 0)
    return {
        "map_algebra.kronecker_sum.calls": kron["calls"],
        "map_algebra.kronecker_sum.self_s": kron["self_s"],
        "map_algebra.kronecker_sum.states_out": kron["max"].get("states_out", 0),
        "map_algebra.kronecker_sum.dense_bytes": kron["sum"].get("dense_bytes", 0),
        "map_algebra.steady_state.calls": steady["calls"],
        "map_algebra.steady_state.self_s": steady["self_s"],
        "map_algebra.steady_state.max_states": steady["max"].get("states", 0),
        "map_algebra.steady_state.nnz": steady["max"].get("nnz", 0),
        "hierarchy.line_superpose.calls": line["calls"],
        "hierarchy.line_superpose.self_s": line["self_s"],
        "hierarchy.line_superpose.states_in": line["max"].get("states_in", 0),
        "hierarchy.line_superpose.states_out": line["max"].get("states_out", 0),
        "hierarchy.line_superpose.kept_ratio": _ratio(
            line["sum"].get("states_out", 0), line["sum"].get("states_in", 0)
        ),
        "hierarchy.build_tree.calls": build["calls"],
        "hierarchy.build_tree.s": build["s"],
        "hierarchy.level_superpose.self_s": get("hierarchy.level_superpose")["self_s"],
        "lumping.lump_symmetric_level.calls": lump["calls"],
        "lumping.lump_symmetric_level.self_s": lump["self_s"],
        "lumping.lump_symmetric_level.states_in": lump["max"].get("states_in", 0),
        "lumping.lump_symmetric_level.blocks_out": lump["max"].get("blocks_out", 0),
        "lumping.lump_symmetric_level.blocks_per_state": _ratio(
            lump["sum"].get("blocks_out", 0), lump["sum"].get("states_in", 0)
        ),
        "cache_builders.build.calls": cache["calls"],
        "cache_builders.build.self_s": cache["self_s"],
        "metrics.hit_probability.calls": hit["calls"],
        "metrics.hit_probability.self_s": hit["self_s"],
        "cli.main.self_s": get("cli.main")["self_s"],
        "approximation.hierarchy_approx.calls": approx["calls"],
        "approximation.hierarchy_approx.s": approx["s"],
        "approximation.hierarchy_approx.fallbacks": approx["sum"].get("fallbacks", 0),
        "distributions.sample.calls": sample["calls"],
        "distributions.sample.draws": sample["sum"].get("draws", 0),
        "distributions.sample.s": sample["s"],
        "distributions.sample_ph.s": sample_ph["s"],
        "simulator.simulate.s": sim["s"],
        "simulator.simulate.requests": sim["sum"].get("requests", 0),
        "simulator.event_loop_s": sim["s"] + replay["s"] - sample["s"],
        "simulator.simulate_trace.s": replay["s"],
        "trace_pipeline.remove_outliers.s": outliers["s"],
        "trace_pipeline.remove_outliers.kept_ratio": _ratio(
            outliers["sum"].get("kept", 0), outliers["sum"].get("seen", 0)
        ),
        "trace_pipeline.fit_ph_em.s": fit["s"],
        "trace_pipeline.fit_ph_em.iterations": iterations,
        "trace_pipeline.fit_ph_em.restarts": fit["sum"].get("restarts", 0),
        "trace_pipeline.fit_ph_em.iter_s": _ratio(fit["s"], iterations),
        "trace_pipeline.fit_ph_em.loglik": fit["sum"].get("loglik", 0.0),
        "trace.count_s": get(COUNT)["s"],
        "trace.op_s": get(ROOT)["s"],
        "trace.self_sum_s": sum(a["self_s"] for a in agg.values()),
    }


def per_op_metrics(tracer):
    """Per-layer metrics of every traced operation, keyed by operation id."""
    groups = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        groups.setdefault(span.op, []).append((span, own))
    return {op: layer_metrics(_op_layers(items)) for op, items in groups.items()}


def median_metrics(per_op):
    """Median over traced operations of each per-layer metric."""
    ops = list(per_op.values())
    return {key: statistics.median(m[key] for m in ops) for key in ops[0]}
