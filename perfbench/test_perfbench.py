"""Self-test of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_subtract_children_and_sum_to_wall_time():
    t = tracing.Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 6.5, 10.0))
    with t.operation(7):
        with t.span("a"):
            pass
        with t.span("b"):
            pass
    assert [s.name for s in t.spans] == [tracing.ROOT, "a", "b"]
    assert [s.parent for s in t.spans] == [None, 0, 0]
    assert all(s.op == 7 for s in t.spans)
    assert tracing.self_times(t.spans) == [5.5, 2.0, 2.5]
    layers = tracing.per_op_metrics(t)[7]
    assert layers["trace.op_s"] == 10.0
    assert layers["trace.self_sum_s"] == 10.0


def test_counts_are_taken_outside_the_wrapped_span():
    t = tracing.Tracer(clock=fake_clock(*range(8)))
    double = t.wrap(lambda x: 2 * x, "layer", lambda args, kwargs, result: {"out": result})
    with t.operation(1):
        assert double(21) == 42
    names = [s.name for s in t.spans]
    assert names == [tracing.ROOT, "layer", tracing.COUNT]
    layer, count = t.spans[1], t.spans[2]
    assert layer.counts == {"out": 42}
    assert count.parent == 0  # charged to the caller's span, not to "layer"
    assert layer.end - layer.start == 1


def test_installed_wrappers_are_removed_afterwards():
    from ttldelay import cli, hierarchy

    before = (cli.main, hierarchy.kronecker_sum)
    with tracing.Tracer().installed():
        assert cli.main is not before[0]
    assert (cli.main, hierarchy.kronecker_sum) == before


def _sweep_with_csv(tmp_path, rows, reference):
    sweep = workloads.Sweep("t", "analyze", "p_hit_exact", [], "")
    sweep.out = tmp_path / "out.csv"
    sweep.out.write_text(
        "sweep_value,p_hit_exact\n" + "".join(f"{v},{p}\n" for v, p in rows)
    )
    sweep.reference = reference
    return sweep


def test_sweep_gate_trips_on_perturbed_reference(tmp_path):
    rows = [("0.5", "0.914827667"), ("1", "0.889629436")]
    ok = _sweep_with_csv(tmp_path, rows, {"0.5": 0.914827667, "1": 0.889629436})
    assert ok.check(0).failed == 0
    bad = _sweep_with_csv(tmp_path, rows, {"0.5": 0.914827667, "1": 0.889629436 + 2e-9})
    outcome = bad.check(0)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    missing = _sweep_with_csv(tmp_path, rows[:1], {"0.5": 0.914827667, "1": 0.889629436})
    assert missing.check(0).failed == 1
    assert ok.check(1).failed == 2


def test_simulation_gate_is_four_standard_errors():
    half = 1.96 * 0.001
    assert workloads._within_sigmas(0.5039, half, 0.5)
    assert not workloads._within_sigmas(0.5041, half, 0.5)
    assert not workloads._within_sigmas(0.5, 0.0, 0.5)


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    emitted = set(tracing.layer_metrics({}))
    assert emitted <= declared
    assert {w["name"] for w in spec["workloads"]} == set(workloads.all_workloads())


def test_normalised_time_drops_probe_time_and_scales_by_probe_speed():
    import calibrate

    sampler = calibrate.Sampler()
    ref = calibrate.REFERENCE_S
    sampler.samples = [(0.5, ref), (1.5, ref), (2.5, 2 * ref)]
    # Two probes inside [1, 3]: their 3 ref of time is taken out, and the
    # rest is scaled by their mean, 1.5 ref.
    seconds, probe_s = sampler.split(1.0, 3.0)
    assert probe_s == 1.5 * ref
    assert abs(seconds - (2.0 - 3 * ref)) < 1e-12
    assert abs(calibrate.scale(seconds, probe_s) - seconds / 1.5) < 1e-12
    assert abs(calibrate.scale(3.0, ref) - 3.0) < 1e-12


def test_sampler_runs_the_probe_while_running():
    import time

    import calibrate

    sampler = calibrate.Sampler(period_s=0.01)
    with sampler.running():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    count = len(sampler.samples)
    assert count >= 3
    time.sleep(0.03)
    assert len(sampler.samples) == count
