"""Benchmark of ttldelay: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One workload runs per process.  The run first times set-up (imports plus
input generation) in ``SETUP_PROBES`` fresh child processes, then sets the
workload up itself and repeats its operation until ``--seconds`` have passed.
Every operation's output is checked against pinned references.  Set-up and
untraced operation times are normalised to the host's speed with the probe
of ``calibrate.py``, sampled while they run.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate, and it carries the
per-layer metrics of the traced ones, the tracing overhead and, on
exact_wide, the capacity ladder.  The exit code is nonzero when any output
misses its reference.  Run records, spans included, go to ``.perfbench_out/``.
"""

import os

# BLAS threads are fixed before numpy is imported, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"
OUT = REPO / ".perfbench_out"
SETUP_PROBES = 3
WORKLOADS = ("exact_deep", "exact_wide", "approx_deep", "em_fit", "sim_ph", "sim_replay")
SETUP_DONE = "setup-done"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = REPO / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (REPO / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def setup_workload(name, seed, workdir):
    """Make the workload's inputs from the seed in ``workdir``."""
    import workloads

    workload = workloads.all_workloads()[name]
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(seed, workdir)
    return workload


def time_setup(args):
    """Median over fresh processes of process start to set-up done.

    Each probe process samples the host's speed while it sets up and
    reports the probes' total and mean time.  Returns the median normalised
    time and the raw samples.
    """
    samples = []
    normalised = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        lines = [l for l in proc.stdout.splitlines() if l.startswith(SETUP_DONE)]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        done, probe_sum, probe_mean = map(float, lines[-1].split()[1:])
        samples.append(done - start)
        normalised.append(calibrate.scale(samples[-1] - probe_sum, probe_mean))
    return statistics.median(normalised), samples


def measure(workload, args, tracer=None):
    """Repeat the operation until the time is up; alternate tracing if asked.

    The host's speed is sampled during every untraced operation.  Returns
    untraced and traced wall times (probe time taken out of the untraced
    ones), the untraced times normalised to the host's speed, the mean
    probe time during each, the outcome tally and the last outcome.
    """
    sampler = calibrate.Sampler()
    calibrate.warm_up()
    times = {False: [], True: []}
    normalised = []
    probe_times = []
    attempted = failed = 0
    notes = []
    last = None
    deadline = time.monotonic() + args.seconds
    n = 0
    while n == 0 or time.monotonic() < deadline or (tracer and not times[True]):
        traced = tracer is not None and n % 2 == 1
        try:
            if traced:
                with tracer.installed(), tracer.operation(n):
                    start = time.perf_counter()
                    result = workload.op()
                    elapsed = time.perf_counter() - start
            else:
                with sampler.running():
                    start = time.perf_counter()
                    result = workload.op()
                    end = time.perf_counter()
                elapsed, probe_s = sampler.split(start, end)
                normalised.append(calibrate.scale(elapsed, probe_s))
                probe_times.append(probe_s)
        except Exception:  # a crash fails the operation, not the harness
            notes.append(traceback.format_exc(limit=3))
            attempted += workload.ops
            failed += workload.ops
            break
        times[traced].append(elapsed)
        last = workload.check(result)
        attempted += last.attempted
        failed += last.failed
        notes.extend(last.notes)
        n += 1
    return times, normalised, probe_times, attempted, failed, notes, last


def run_workload(args):
    setup_s, setup_samples = time_setup(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = setup_workload(args.workload, args.seed, workdir)
        env = environment()
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        times, normalised, probe_times, attempted, failed, notes, last = measure(
            workload, args, tracer
        )
        if not times[False] or (tracer and not times[True]):
            print("".join(notes), file=sys.stderr)
            return 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "setup_samples_s": setup_samples,
            "untraced_op_s": times[False],
            "normalised_op_s": normalised,
            "probe_s": probe_times,
            "traced_op_s": times[True],
            "attempted": attempted,
            "failed": failed,
            "notes": notes,
        }
        print("env " + json.dumps(env))
        print(f"workload {args.workload} seed {args.seed}: {len(times[False])} untraced and "
              f"{len(times[True])} traced operations, {failed} of {attempted} ops failed")
        for note in notes:
            print("miss: " + note.rstrip())
        wall_s = statistics.median(times[False])
        host_slowdown = statistics.median(probe_times) / calibrate.REFERENCE_S
        if args.trace:
            metrics, extra = traced_metrics(workload, tracer, times, workdir)
            metrics["host.slowdown"] = host_slowdown
            record.update(extra)
        else:
            op_s = statistics.median(normalised)
            metrics = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": peak_rss_mb}
            print(f"op_s {op_s:.6g} s normalised; wall time {wall_s:.6g} s on this host, "
                  f"whose probe ran {host_slowdown:.3f} x its reference time")
            if last is not None:
                for name, value, unit in workload.summary(wall_s, last):
                    print(f"{name} {value:.6g} {unit} (wall time)")
            print(f"peak_rss_mb {peak_rss_mb:.6g} MB")
            print(f"ops_failed {failed} count (of {attempted} attempted)")
        record["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_metrics(workload, tracer, times, workdir):
    import capacity
    import tracer as tracing

    layers = tracing.median_metrics(tracing.per_op_metrics(tracer))
    untraced = statistics.median(times[False])
    traced = statistics.median(times[True])
    layers["trace.untraced_op_s"] = untraced
    layers["trace.overhead_s"] = traced - untraced
    cases = capacity.run_ladder(workdir) if getattr(workload, "capacity", False) else []
    outcomes = [c["outcome"] for c in cases]
    layers["capacity.attempted"] = len(cases)
    layers["capacity.solved"] = outcomes.count("solved")
    layers["capacity.memory_error"] = outcomes.count("memory_error")
    layers["capacity.capacity_error"] = outcomes.count("capacity_error")
    layers["capacity.timeout"] = outcomes.count("timeout")
    for case in cases:
        print(f"capacity {case['case']}: {case['outcome']} in {case['seconds']:.2f} s")
    print(f"trace overhead {traced - untraced:+.4f} s per operation "
          f"(traced {traced:.4f} s, untraced {untraced:.4f} s); self times sum to "
          f"{layers['trace.self_sum_s']:.4f} s of {layers['trace.op_s']:.4f} s traced")
    extra = {"capacity_cases": cases, "spans": [s.as_dict() for s in tracer.spans]}
    return layers, extra


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        status = status or proc.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ttldelay").is_dir() or not (REPO / "configs").is_dir():
        print(f"error: no ttldelay sources under {REPO}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workdir = WORK / f"probe-{os.getpid()}"
        sampler = calibrate.Sampler(clock=time.monotonic)
        try:
            with sampler.running():
                setup_workload(args.workload, args.seed, workdir)
                done = time.monotonic()
            probes = [s for t, s in sampler.samples if t < done]
            mean = statistics.mean(probes) if probes else calibrate.probe_seconds()
            print(f"{SETUP_DONE} {done!r} {sum(probes)!r} {mean!r}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
