"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three assertions are expected to stay red on this implementation; they pin
externally supplied reference values for the delayed-hierarchy experiment
that are inconsistent with the normative simulator semantics (see the
README's expected-red note).  Everything else must be green.
"""

import math
import os
import time

import numpy as np
import pytest

from ttldelay import trace_pipeline
from ttldelay.approximation import (
    hierarchy_approx,
    hit_prob_single_approx,
    lst_L,
    lst_of_ph,
    miss_lst_no_delay,
    miss_lst_with_delay,
)
from ttldelay.distributions import Erlang, Exponential
from ttldelay.hierarchy import build_tree
from ttldelay.lumping import partition_count
from ttldelay.metrics import (
    delay_impairment,
    delay_upper_bound,
    hit_probability,
    lambert_w,
    mmm_impairment_closed_form,
    optimal_delay,
    tree_hit_probability,
)
from ttldelay.simulator import SimConfig, simulate, simulate_trace
from ttldelay.spec import CacheNode, CacheTreeSpec, with_delay_means
from ttldelay.trace_pipeline import fit_ph_em, interarrivals, remove_outliers

from conftest import e20_cache, two_level_tree, single_mmm

STORAGE_TRACE = os.environ.get("TTLDELAY_STORAGE_TRACE", "data/storage_trace.txt")


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_single_cache_curve():
    t0 = time.perf_counter()
    expected = {0: 2.0 / 3.0, 1: 0.5, 2: 0.4, 5: 0.25, 10: 2.0 / 13.0}
    errs = {}
    for tau_d, ref in expected.items():
        p = tree_hit_probability(single_mmm(tau_d, tau_t=2.0))
        errs[tau_d] = abs(p - ref)
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) < 1e-6 and elapsed < 1.0
    assert report(
        1, ok, f"max |err| = {max(errs.values()):.2e}, runtime {elapsed:.2f}s"
    )


def test_criterion_2_impairment_identity():
    worst = 0.0
    for tau_t in (0.5, 1.0, 2.0, 4.0):
        for tau_d in (0, 0.5, 1.0, 2.0, 5.0):
            eta = delay_impairment(single_mmm(tau_d, tau_t))
            worst = max(worst, abs(eta - mmm_impairment_closed_form(tau_t, tau_d)))
    spot = (
        mmm_impairment_closed_form(0, 0.5) == 1.0 / 3.0
        and mmm_impairment_closed_form(1, 2) == 0.5
    )
    ok = worst < 1e-6 and spot
    assert report(2, ok, f"grid worst |err| = {worst:.2e}, spot values exact: {spot}")


def test_criterion_3_two_level_tree_reference_values():
    reference = {0: 0.9051, 1: 0.8095, 2: 0.7457, 5: 0.6495, 10: 0.5899}
    t0 = time.perf_counter()
    values = {}
    for tau_d in reference:
        system = build_tree(two_level_tree(tau_d), lump_per_level=True)
        values[tau_d] = hit_probability(system, 2.0)
    elapsed = time.perf_counter() - t0
    errs = {k: abs(values[k] - reference[k]) for k in reference}
    ok = max(errs.values()) < 5e-3 and elapsed < 10.0
    detail = (
        ", ".join(f"tau={k}: {values[k]:.4f} vs {reference[k]} ({errs[k]:+.4f})"
                  for k in sorted(errs))
        + f"; runtime {elapsed:.1f}s"
        + " [reference delayed-tree values are not reproducible under the"
        " normative simulator semantics; see the README expected-red note]"
    )
    assert report(3, ok, detail)


def test_criterion_4_simulator_map_agreement():
    results = []
    for name, spec, total in (
        ("single", single_mmm(1.0), 1.0),
        ("tree", two_level_tree(1.0), 2.0),
    ):
        exact = hit_probability(build_tree(spec, lump_per_level=True), total)
        t0 = time.perf_counter()
        est = simulate(SimConfig(spec=spec, requests=1_000_000, seed=101))
        elapsed = time.perf_counter() - t0
        se = est.half_width_95 / 1.96
        results.append(
            (name, abs(est.p_hit - exact) <= 3 * se and elapsed < 60.0,
             f"{name}: |sim-exact| = {abs(est.p_hit - exact):.5f} "
             f"(3se = {3 * se:.5f}), {elapsed:.0f}s")
        )
    ok = all(r[1] for r in results)
    assert report(4, ok, "; ".join(r[2] for r in results))


def test_criterion_5_lumping_counts_and_exactness():
    count_ok = all(
        partition_count(27, n) == math.comb(n + 26, 26)
        and partition_count(18, n) == math.comb(n + 17, 17)
        for n in (1, 2, 3, 10)
    )
    count_ok = count_ok and partition_count(27, 2) == 378 and partition_count(18, 2) == 171

    # Exactness on a full tree of two symmetric two-level sub-trees (the
    # unlumped chain fits densely; n = 3 two-level sub-trees would need a
    # 59049-state dense solve, beyond the 5 GB envelope, so the n = 3 check
    # uses single-cache sub-trees instead).
    def seven_cache_tree():
        delay = Exponential(1.0)
        def leaf(i):
            return CacheNode(f"l{i}", ttl=Exponential(0.5), delay=delay,
                             arrival=Exponential(1.0))
        def mid(i):
            return CacheNode(f"m{i}", ttl=Exponential(0.25), delay=delay,
                             children=(leaf(2 * i), leaf(2 * i + 1)))
        return CacheTreeSpec(
            CacheNode("root", ttl=Exponential(0.125), delay=delay,
                      children=(mid(0), mid(1)))
        )

    def star_tree(n):
        delay = Exponential(1.0)
        leaves = tuple(
            CacheNode(f"l{i}", ttl=Exponential(0.5), delay=delay,
                      arrival=Exponential(1.0))
            for i in range(n)
        )
        return CacheTreeSpec(
            CacheNode("root", ttl=Exponential(0.25), delay=delay, children=leaves)
        )

    devs = []
    for spec, total in ((seven_cache_tree(), 4.0), (star_tree(3), 3.0)):
        full = hit_probability(build_tree(spec, lump_per_level=False), total)
        lumped = hit_probability(build_tree(spec, lump_per_level=True), total)
        devs.append(abs(full - lumped))
    ok = count_ok and max(devs) < 1e-9
    assert report(
        5, ok,
        f"counts exact: {count_ok}, lumped-vs-full deviations {[f'{d:.1e}' for d in devs]}",
    )


def test_criterion_6a_non_monotone_delay_values():
    p0 = tree_hit_probability(e20_cache(0))
    p2 = tree_hit_probability(e20_cache(2.0))
    delta_star, p_max, _ = optimal_delay(
        lambda td: tree_hit_probability(e20_cache(td)), 0.0, 2.0
    )
    ok = (
        abs(p0 - 0.6103) < 2e-3
        and abs(p_max - 0.6314) < 2e-3
        and abs(p2 - 0.4331) < 2e-3
        and abs(delta_star - 0.25) < 0.05
    )
    assert report(
        "6a", ok,
        f"P(0)={p0:.4f}, max={p_max:.4f} at {delta_star:.3f}, P(2)={p2:.4f}",
    )


def test_criterion_6b_no_loss_below_delay_bound():
    bound = delay_upper_bound(2.0)
    p0 = tree_hit_probability(e20_cache(0))
    grid = [round(0.05 * k, 2) for k in range(1, int(bound / 0.05) + 1)] + [bound]
    deficits = {
        td: p0 - 1e-3 - tree_hit_probability(e20_cache(td)) for td in grid
    }
    worst_td = max(deficits, key=deficits.get)
    ok = all(d <= 0 for d in deficits.values())
    assert report(
        "6b", ok,
        f"bound={bound:.4f}; worst deficit {deficits[worst_td]:+.2e} at "
        f"tau={worst_td} [Erlang-20 is only near-periodic: its curve crosses "
        "P(0) slightly before the periodic-limit bound; expected red]",
    )


def test_criterion_7_delay_bound_primitives():
    exact_one = delay_upper_bound(1.0) == 1.0

    h = -math.exp(-0.5) / 2.0
    lo, hi = -60.0, -1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid * math.exp(mid) - h > 0) == (lo * math.exp(lo) - h > 0):
            lo = mid
        else:
            hi = mid
    oracle = -1.0 / (0.5 * (lo + hi))
    bound_ok = abs(delay_upper_bound(2.0) - oracle) < 1e-3

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        x = float(rng.uniform(-1.0 / math.e, 10.0))
        w = lambert_w(0, x)
        worst = max(worst, abs(w * math.exp(w) - x))
    for _ in range(1000):
        x = float(rng.uniform(-1.0 / math.e, -1e-12))
        w = lambert_w(-1, x)
        worst = max(worst, abs(w * math.exp(w) - x))
    ok = exact_one and bound_ok and worst < 1e-12
    assert report(
        7, ok,
        f"bound(1)=1 exact: {exact_one}, bound(2) vs bisection err "
        f"{abs(delay_upper_bound(2.0) - oracle):.1e}, W residual {worst:.1e}",
    )


def test_criterion_8a_single_cache_approximation_exact():
    worst = 0.0
    for tau_t in (0.5, 1.0, 2.0, 4.0):
        for tau_d in (0.5, 1.0, 2.0, 4.0):
            approx = hit_prob_single_approx(
                Exponential(1.0), 1.0 / tau_t, Exponential(1.0 / tau_d)
            ).p_hit
            exact = tree_hit_probability(single_mmm(tau_d, tau_t))
            worst = max(worst, abs(approx - exact))
    ok = worst < 1e-9
    assert report("8a", ok, f"all-exponential grid worst |err| = {worst:.1e}")


def test_criterion_8b_hierarchy_approximation_underpredicts():
    gaps = {}
    for tau_d in (2.0, 3.0, 4.0):
        exact = tree_hit_probability(two_level_tree(tau_d))
        approx = hierarchy_approx(two_level_tree(tau_d), "renewal").p_hit_sys
        gaps[tau_d] = exact - approx
    ok = all(g >= 0.05 for g in gaps.values())
    assert report(
        "8b", ok,
        "exact-approx gaps "
        + ", ".join(f"tau={k}: {v:+.4f}" for k, v in gaps.items())
        + " [the reference 0.05+ gap exists only against criterion 3's"
        " unreproducible delayed-tree values; against this engine's exact"
        " semantics the renewal approximation tracks closely; expected red]",
    )


def test_criterion_9_miss_transform_factorization():
    fx = lst_of_ph(Exponential(1.0))
    l = lst_L(fx, 0.5)
    fdelta = lst_of_ph(Exponential(1.0))
    with_delay = miss_lst_with_delay(fx, l, fdelta)
    no_delay = miss_lst_no_delay(fx, l)
    rng = np.random.default_rng(9)
    worst = max(
        abs(with_delay(s) - fdelta(s) * no_delay(s))
        for s in rng.uniform(1e-3, 25.0, 100)
    )
    h = 1e-5
    mean_oracle = -(with_delay(h) - with_delay(-h)) / (2 * h)
    ok = worst < 1e-10 and abs(with_delay.mean() - 4.0) < 1e-10 and abs(mean_oracle - 4.0) < 1e-5
    assert report(
        9, ok,
        f"factorization worst |err| = {worst:.1e}, mean = {with_delay.mean():.10f} "
        f"(finite-difference oracle {mean_oracle:.6f})",
    )


def test_criterion_10_trace_pipeline_corpus(monkeypatch):
    monkeypatch.setattr(trace_pipeline, "MAX_ITERS", 120)
    rng = np.random.default_rng(5150)
    corpus = {
        "exponential": rng.exponential(1.0, 900),
        "erlang": rng.gamma(3.0, 0.5, 900),
        "bimodal": np.concatenate(
            [rng.exponential(0.2, 450), 4.0 + rng.exponential(0.3, 450)]
        ),
        "heavy": rng.lognormal(0.0, 1.0, 900),
    }
    issues = []
    for name, samples in corpus.items():
        rep = fit_ph_em(samples, 2)
        if not all(
            b >= a - 1e-9
            for a, b in zip(rep.log_likelihood_trace, rep.log_likelihood_trace[1:])
        ):
            issues.append(f"{name}: non-monotone EM")
        if abs(rep.fitted_mean - rep.empirical_mean) > 0.05 * rep.empirical_mean:
            issues.append(f"{name}: mean off by >5%")
    ok = not issues
    assert report(10, ok, "corpus clean" if ok else "; ".join(issues))


@pytest.mark.skipif(
    not os.path.exists(STORAGE_TRACE),
    reason="external storage trace not present; full trace results are not "
    "reproducible without the dataset",
)
def test_criterion_10_external_trace_sweep():
    timestamps = np.loadtxt(STORAGE_TRACE)
    gaps = remove_outliers(interarrivals(timestamps))
    rep = fit_ph_em(gaps, 8)
    mean_x = float(gaps.mean())
    inside = 0
    points = list(range(0, 21, 2))
    for tau_d in points:
        delay = Exponential(1e6) if tau_d == 0 else Exponential(1.0 / (tau_d * mean_x))
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Exponential(1.0 / (2.0 * mean_x)), delay=delay,
                      arrival=rep.fitted)
        )
        exact = tree_hit_probability(spec)
        est = simulate_trace(timestamps, spec, seed=13)
        if abs(est.p_hit - exact) <= est.half_width_95:
            inside += 1
    ok = inside >= 0.8 * len(points)
    assert report("10-trace", ok, f"{inside}/{len(points)} sweep points inside CI")


def test_criterion_11_three_level_trees():
    def two_level(td):
        delay = Erlang(2, 2.0)
        spec = CacheTreeSpec(
            CacheNode(
                "r", ttl=Exponential(0.25), delay=delay,
                children=tuple(
                    CacheNode(f"l{i}", ttl=Exponential(0.5), delay=delay,
                              arrival=Exponential(1.0))
                    for i in (1, 2)
                ),
            )
        )
        return with_delay_means(spec, td)

    def three_level(td, ttls):
        t1, t2, t3 = ttls
        delay = Erlang(2, 2.0)
        def leaf(i):
            return CacheNode(f"l{i}", ttl=Exponential(1 / t1), delay=delay,
                             arrival=Exponential(0.5))
        def mid(i):
            return CacheNode(f"m{i}", ttl=Exponential(1 / t2), delay=delay,
                             children=(leaf(2 * i), leaf(2 * i + 1)))
        spec = CacheTreeSpec(
            CacheNode("r", ttl=Exponential(1 / t3), delay=delay,
                      children=(mid(0), mid(1)))
        )
        return with_delay_means(spec, td)

    grid = [0, 0.5, 1.0, 2.0, 3.0, 4.0]
    l2 = [tree_hit_probability(two_level(td)) for td in grid]
    prop = [tree_hit_probability(three_level(td, (2, 4, 6))) for td in grid]
    equal = [tree_hit_probability(three_level(td, (2, 2, 2))) for td in grid]

    dominates = all(p >= b - 5e-3 for p, b in zip(prop, l2))
    below_at_zero = equal[0] < l2[0] - 5e-3
    above_at_four = equal[-1] > l2[-1] + 5e-3
    ok = dominates and below_at_zero and above_at_four
    assert report(
        11, ok,
        f"proportional dominates: {dominates}; equal-budget at 0: "
        f"{equal[0]:.4f} < {l2[0]:.4f}; at 4: {equal[-1]:.4f} > {l2[-1]:.4f}",
    )
