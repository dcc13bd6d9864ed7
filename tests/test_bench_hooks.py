"""The benchmark's span tracer still finds the engine's layers.

``perfbench/tracer.py`` wraps functions by the names their callers look them
up under.  A rename in the engine or the simulator would silently empty a
per-layer metric, so this runs a traced ``analyze``, a traced ``simulate``
and a traced ``simulate_trace``, and checks the spans each must record.
"""

import sys
from pathlib import Path

import numpy as np

from ttldelay import cli, simulator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer as tracing  # noqa: E402

CONFIG = ROOT / "configs" / "binary_two_level_mmm.yaml"
SINGLE = ROOT / "configs" / "single_cache_mmm.yaml"

PH_TREE = """\
tree:
  id: root
  ttl: {kind: exponential, mean: 4.0}
  delay: {kind: erlang, phases: 2, mean: 1.0}
  children:
    - id: leaf
      ttl: {kind: exponential, mean: 2.0}
      delay: {kind: erlang, phases: 2, mean: 1.0}
      arrival: {kind: coxian, rates: [3.0, 1.0], continue_probs: [0.5]}
"""


def analyze(out):
    argv = ["analyze", "--config", str(CONFIG), "--lump", "on",
            "--sweep", "tau_delta=0:1:2", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


def test_traced_analyze_records_engine_spans(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(1):
        traced = analyze(tmp_path / "traced.csv")
    names = {span.name for span in tracer.spans}
    for layer in ("hierarchy.line_superpose", "lumping.lump_symmetric_level",
                  "cache_builders.build"):
        assert layer in names
    assert traced == analyze(tmp_path / "untraced.csv")


def simulate(config, out):
    argv = ["simulate", "--config", str(config), "--requests", "5000",
            "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


def traced_spans(run):
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(1):
        result = run()
    return tracer.spans, result


def test_traced_simulate_records_sampling_spans(tmp_path):
    config = tmp_path / "ph_tree.yaml"
    config.write_text(PH_TREE)
    spans, traced = traced_spans(lambda: simulate(config, tmp_path / "traced.csv"))
    names = {span.name for span in spans}
    assert {"distributions.sample", "distributions.sample_ph"} <= names
    (sim,) = [span for span in spans if span.name == "simulator.simulate"]
    assert sim.counts["requests"] == 4500
    assert traced == simulate(config, tmp_path / "untraced.csv")


def test_traced_simulate_trace_records_replay_spans():
    spec, _ = cli.load_config(SINGLE)
    timestamps = np.cumsum(np.random.default_rng(1).exponential(1.0, 2000))
    spans, traced = traced_spans(
        lambda: simulator.simulate_trace(timestamps, spec, seed=1)
    )
    names = {span.name for span in spans}
    assert {"simulator.simulate_trace", "distributions.sample"} <= names
    assert traced == simulator.simulate_trace(timestamps, spec, seed=1)
