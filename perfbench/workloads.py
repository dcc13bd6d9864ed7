"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup`` (untimed, but
counted in set-up time), runs one timed operation in ``op`` through
``ttldelay.cli.main`` or the public simulator entry point, and checks that
operation's output against pinned references in ``check``.  An operation
counts as one or more *ops* for the correctness tally: one per sweep point,
fit, simulate call or replay.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from ttldelay import cli, simulator

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
REFERENCES = json.loads((HERE / "references.json").read_text())

# Tolerance of the exact and approximate sweeps: one unit in the ninth
# significant digit the CSV prints, so a rounding flip still passes.
SWEEP_TOL = 1e-9
# Simulation estimates must lie within this many standard errors of the
# exact value; the CSV's 95 % half width is 1.96 standard errors.
SIM_SIGMAS = 4.0
FIT_MEAN_RTOL = 1e-3
# The gap sample of the EM fit is drawn once from this seed; the workload
# seed only permutes the gaps.  The number of EM iterations depends on the
# sample, so a fresh sample per seed would make the amount of work, and
# with it the fit time, vary from seed to seed.  The fit does not depend on
# the order of the gaps.
EM_SAMPLE_SEED = 0
EM_GAPS = 2000
# Operation sizes of the simulators: short enough that one run repeats each
# operation about ten times, so its median holds still on a noisy host.
SIM_REQUESTS = 25_000
REPLAY_TIMESTAMPS = 150_000


def _exp(mean):
    return {"kind": "exponential", "mean": mean}


def _erlang2(mean):
    return {"kind": "erlang", "phases": 2, "mean": mean}


COXIAN_ARRIVAL = {"kind": "coxian", "rates": [1.5, 0.75], "continue_probs": [0.5]}


def _leaf(node_id, ttl_mean, delay, arrival):
    return {"id": node_id, "ttl": _exp(ttl_mean), "delay": delay, "arrival": arrival}


def _inner(node_id, ttl_mean, delay, children):
    return {"id": node_id, "ttl": _exp(ttl_mean), "delay": delay, "children": children}


def flat_tree(k):
    """k identical Poisson leaves (rate 1, TTL mean 2) under one root (TTL 4)."""
    leaves = [_leaf(f"leaf{i}", 2.0, _exp(1.0), _exp(1.0)) for i in range(k)]
    return {"reference_interarrival": 1.0, "tree": _inner("root", 4.0, _exp(1.0), leaves)}


def ternary_tree():
    """3-ary depth-2 tree, 13 caches, TTL means 2 / 4 / 6 from leaves up."""
    mids = [
        _inner(
            f"mid{m}",
            4.0,
            _exp(1.0),
            [_leaf(f"leaf{m}{i}", 2.0, _exp(1.0), _exp(1.0)) for i in range(3)],
        )
        for m in range(3)
    ]
    return {"reference_interarrival": 1.0, "tree": _inner("root", 6.0, _exp(1.0), mids)}


def coxian_three_level_tree():
    """The three-level binary example tree with Coxian-2 leaf arrivals."""
    mids = [
        _inner(
            f"mid{m}",
            4.0,
            _erlang2(1.0),
            [_leaf(f"leaf{m}{i}", 2.0, _erlang2(1.0), COXIAN_ARRIVAL) for i in range(2)],
        )
        for m in range(2)
    ]
    return {"reference_interarrival": 1.0, "tree": _inner("root", 6.0, _erlang2(1.0), mids)}


def sim_tree():
    """Two-level binary tree, Coxian-2 leaf arrivals, Erlang-2 delays of mean 1."""
    leaves = [_leaf(f"leaf{i}", 2.0, _erlang2(1.0), COXIAN_ARRIVAL) for i in (1, 2)]
    return {"tree": _inner("root", 4.0, _erlang2(1.0), leaves)}


def replay_cache():
    """One cache, TTL mean 2, exponential delay of mean 0.5, Erlang-2 input."""
    arrival = {"kind": "erlang", "phases": 2, "mean": 1.0}
    return {"tree": _leaf("cache", 2.0, _exp(0.5), arrival)}


def write_config(path, doc):
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


@dataclass
class Outcome:
    """Tally of one checked operation."""

    attempted: int
    failed: int = 0
    notes: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _within_sigmas(estimate, half_width, exact):
    se = half_width / 1.96
    return se > 0 and abs(estimate - exact) <= SIM_SIGMAS * se


class Sweep:
    """One ``analyze`` or ``approx`` sweep; the seed picks a pinned window."""

    def __init__(self, name, command, column, extra, config, capacity=False):
        self.name = name
        self.command = command
        self.column = column
        self.extra = extra
        self.config = config  # repo-relative path, or a tree builder
        self.capacity = capacity  # traced runs also climb the capacity ladder

    def setup(self, seed, workdir):
        windows = REFERENCES[self.name]
        window = windows[seed % len(windows)]
        if callable(self.config):
            path = write_config(workdir / "tree.yaml", self.config())
        else:
            path = REPO / self.config
        cli.load_config(path)
        self.reference = {k: float(v) for k, v in window["p"].items()}
        self.ops = len(self.reference)
        self.out = workdir / "out.csv"
        self.argv = [
            self.command,
            "--config", str(path),
            "--sweep", window["sweep"],
            *self.extra,
            "--out", str(self.out),
        ]

    def op(self):
        return cli.main(self.argv)

    def check(self, rc):
        outcome = Outcome(attempted=len(self.reference))
        if rc != 0:
            outcome.failed = len(self.reference)
            outcome.notes.append(f"{self.command} exited {rc}")
            return outcome
        got = {row["sweep_value"]: float(row[self.column]) for row in _read_csv(self.out)}
        for value, ref in self.reference.items():
            p = got.get(value)
            if p is None or not abs(p - ref) <= SWEEP_TOL:
                outcome.failed += 1
                outcome.notes.append(f"tau_delta={value}: {self.column} {p} != {ref}")
        return outcome

    def summary(self, op_s, outcome):
        return [(f"{self.command}_s", op_s, "s")]


class EmFit:
    """fit-trace --phases 3 on 2,000 Gamma(2, 0.5) gaps."""

    name = "em_fit"
    ops = 1

    def setup(self, seed, workdir):
        gaps = np.random.default_rng(EM_SAMPLE_SEED).gamma(2.0, 0.5, EM_GAPS)
        gaps = np.random.default_rng(seed).permutation(gaps)
        trace = workdir / "trace.txt"
        np.savetxt(trace, np.concatenate([[0.0], np.cumsum(gaps)]), fmt="%.17g")
        self.out = workdir / "fit.yaml"
        self.argv = ["fit-trace", "--trace", str(trace), "--phases", "3", "--out", str(self.out)]

    def op(self):
        return cli.main(self.argv)

    def check(self, rc):
        outcome = Outcome(attempted=1)
        if rc != 0:
            outcome.failed = 1
            outcome.notes.append(f"fit-trace exited {rc}")
            return outcome
        doc = yaml.safe_load(self.out.read_text())
        mean = doc["empirical_mean"]
        n = doc["sample_count_after"]
        loglik = doc["log_likelihood"]
        exp_loglik = -n * (math.log(mean) + 1.0)  # exponential MLE
        outcome.values = {
            "fit_loglik": loglik,
            "exp_mle_loglik": exp_loglik,
            "em_iterations": len(doc["log_likelihood_trace"]),
        }
        if not abs(doc["fitted_mean"] - mean) <= FIT_MEAN_RTOL * mean:
            outcome.failed = 1
            outcome.notes.append(f"fitted mean {doc['fitted_mean']} vs empirical {mean}")
        elif not loglik >= exp_loglik:
            outcome.failed = 1
            outcome.notes.append(f"loglik {loglik} below exponential MLE {exp_loglik}")
        return outcome

    def summary(self, op_s, outcome):
        return [
            ("fit_s", op_s, "s"),
            ("fit_loglik", outcome.values.get("fit_loglik", math.nan), "nats"),
            ("em_iterations", outcome.values.get("em_iterations", 0), "count"),
        ]


class SimPh:
    """simulate on a two-level tree with Coxian-2 arrivals and Erlang-2 delays."""

    name = "sim_ph"
    ops = 1
    exact = REFERENCES["sim_ph"]["p_exact"]

    def setup(self, seed, workdir):
        path = write_config(workdir / "tree.yaml", sim_tree())
        cli.load_config(path)
        self.out = workdir / "sim.csv"
        self.argv = [
            "simulate", "--config", str(path), "--requests", str(SIM_REQUESTS),
            "--seed", str(seed), "--out", str(self.out),
        ]

    def op(self):
        return cli.main(self.argv)

    def check(self, rc):
        outcome = Outcome(attempted=1)
        if rc != 0:
            outcome.failed = 1
            outcome.notes.append(f"simulate exited {rc}")
            return outcome
        row = _read_csv(self.out)[0]
        p, half = float(row["p_hit_sim"]), float(row["ci_half_width"])
        if not _within_sigmas(p, half, self.exact):
            outcome.failed = 1
            outcome.notes.append(f"p_hit_sim {p} +- {half} misses exact {self.exact}")
        return outcome

    def summary(self, op_s, outcome):
        return [("sim_requests_per_s", SIM_REQUESTS / op_s, "req/s")]


class SimReplay:
    """simulate_trace of Gamma(2, 0.5) timestamps on one exponential cache."""

    name = "sim_replay"
    ops = 1
    exact = REFERENCES["sim_replay"]["p_exact"]

    def setup(self, seed, workdir):
        gaps = np.random.default_rng(seed).gamma(2.0, 0.5, REPLAY_TIMESTAMPS)
        trace = workdir / "trace.txt"
        np.savetxt(trace, np.cumsum(gaps), fmt="%.17g")
        self.timestamps = np.loadtxt(trace)
        self.spec, _ = cli.load_config(write_config(workdir / "cache.yaml", replay_cache()))
        self.seed = seed

    def op(self):
        return simulator.simulate_trace(self.timestamps, self.spec, seed=self.seed)

    def check(self, est):
        outcome = Outcome(attempted=1)
        if not _within_sigmas(est.p_hit, est.half_width_95, self.exact):
            outcome.failed = 1
            outcome.notes.append(
                f"replay p_hit {est.p_hit} +- {est.half_width_95} misses exact {self.exact}"
            )
        return outcome

    def summary(self, op_s, outcome):
        return [("replay_requests_per_s", REPLAY_TIMESTAMPS / op_s, "req/s")]


def all_workloads():
    """Every workload by name; why each was chosen is in BENCHMARK.json."""
    deep = "configs/binary_three_level_mme2.yaml"
    return {
        w.name: w
        for w in (
            Sweep("exact_deep", "analyze", "p_hit_exact", ["--lump", "off"], deep),
            Sweep(
                "exact_wide", "analyze", "p_hit_exact", ["--lump", "on"],
                lambda: flat_tree(8), capacity=True,
            ),
            Sweep("approx_deep", "approx", "p_hit_approx", [], deep),
            EmFit(),
            SimPh(),
            SimReplay(),
        )
    }
