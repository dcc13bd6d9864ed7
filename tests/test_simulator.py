import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings

from ttldelay.cli import load_config
from ttldelay.distributions import Coxian, Deterministic, Erlang, Exponential
from ttldelay.errors import ConfigError
from ttldelay.metrics import tree_hit_probability
from ttldelay.simulator import (
    _ARRIVAL,
    _FETCH_DONE,
    FETCHING,
    SimConfig,
    _Cache,
    _Run,
    simulate,
    simulate_trace,
)
from ttldelay.spec import CacheNode, CacheTreeSpec

from conftest import two_level_tree, single_mmm
from test_sparse_engine import trees

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def ph_tree():
    """Two leaves with Coxian-2 arrivals, Erlang-2 delays on every link."""
    arrival = Coxian((1.5, 0.75), (0.5,))
    leaves = tuple(
        CacheNode(f"leaf{i}", ttl=Exponential(0.5), delay=Erlang(2, 2.0),
                  arrival=arrival)
        for i in (1, 2)
    )
    return CacheTreeSpec(
        CacheNode("root", ttl=Exponential(0.25), delay=Erlang(2, 2.0),
                  children=leaves)
    )


class TestSingleCache:
    def test_poisson_exponential_matches_closed_form(self):
        est = simulate(SimConfig(spec=single_mmm(1.0), requests=200_000, seed=42))
        assert est.p_hit == pytest.approx(0.5, abs=3 * est.half_width_95 / 1.96 + 1e-4)
        assert est.request_count == 180_000  # 10% warmup discarded

    def test_deterministic_always_misses_without_delay(self):
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Deterministic(0.8), delay=Deterministic(0.0),
                      arrival=Deterministic(1.0))
        )
        assert simulate(SimConfig(spec=spec, requests=5000, seed=1)).p_hit == 0.0

    def test_deterministic_delay_alternates_hits(self):
        # The delay shifts the TTL window so every other request hits.
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Deterministic(0.8), delay=Deterministic(0.5),
                      arrival=Deterministic(1.0))
        )
        assert simulate(SimConfig(spec=spec, requests=5000, seed=1)).p_hit == pytest.approx(0.5, abs=1e-3)


class TestTreeAgreement:
    def test_two_level_tree_matches_exact_engine(self):
        for tau in (1.0, 5.0):
            spec = two_level_tree(tau)
            exact = tree_hit_probability(spec)
            est = simulate(SimConfig(spec=spec, requests=250_000, seed=7))
            se = est.half_width_95 / 1.96
            assert abs(est.p_hit - exact) <= 3 * se

    def test_origin_fetches_are_counted(self):
        est = simulate(SimConfig(spec=two_level_tree(1.0), requests=50_000, seed=3))
        assert 0 < est.origin_fetch_count < est.request_count


@pytest.mark.slow
@hyp_settings(max_examples=20, deadline=None, derandomize=True)
@given(trees())
def test_generated_trees_match_exact_engine(spec):
    exact = tree_hit_probability(spec, lump_per_level=True)
    est = simulate(SimConfig(spec=spec, requests=200_000, seed=1))
    se = est.half_width_95 / 1.96
    assert abs(est.p_hit - exact) <= 4 * se


class TestChainCausality:
    def test_child_admission_never_under_fetching_parent(self):
        admissions = []

        class Instrumented(_Run):
            def _admit(self, c):
                if c.parent is not None:
                    admissions.append(c.parent.status)
                super()._admit(c)

        rng = np.random.default_rng([99, 0])
        Instrumented(two_level_tree(2.0), rng).serve(200_000, 0.0)
        assert admissions and all(s != FETCHING for s in admissions)

    @pytest.mark.parametrize("spec", [
        ph_tree(), load_config(CONFIGS / "binary_three_level_mme2.yaml")[0],
    ], ids=["ph_tree", "three_level"])
    def test_fetch_clock_runs_exactly_under_a_non_fetching_parent(self, spec):
        # After every request, a cache holds a live fetch-completion event
        # exactly when it fetches and its parent (if any) does not.
        run = _Run(spec, np.random.default_rng([7, 0]))
        frozen = 0
        for _ in range(2000):
            run.serve(1, 0.0)
            caches = {c for e in run.heap if e[2] == _ARRIVAL for c in e[3]}
            live = [e[3] for e in run.heap if e[2] == _FETCH_DONE and e[4] == e[3].version]
            assert len(set(live)) == len(live) and set(live) <= caches
            for c in caches:
                parent_fetching = c.parent is not None and c.parent.status == FETCHING
                if c.status != FETCHING:
                    assert c not in live
                else:
                    assert (c in live) == (not parent_fetching)
                    frozen += parent_fetching
        assert frozen  # the run did freeze clocks under fetching parents


class TestReplications:
    def test_bit_identical_reruns(self):
        cfg = SimConfig(spec=single_mmm(1.0), requests=20_000, seed=5)
        assert simulate(cfg) == simulate(cfg)
        timestamps = np.cumsum(np.random.default_rng(5).exponential(1.0, 20_000))
        replay = simulate_trace(timestamps, single_mmm(1.0), seed=5)
        assert replay == simulate_trace(timestamps, single_mmm(1.0), seed=5)
        # Coxian-2 arrivals and Erlang-2 delays: block phase-type draws.
        cfg = SimConfig(spec=ph_tree(), requests=20_000, seed=5)
        assert simulate(cfg) == simulate(cfg)

    def test_seeds_induce_different_paths(self):
        runs = {
            simulate(SimConfig(spec=single_mmm(1.0), requests=20_000, seed=s)).p_hit
            for s in range(6)
        }
        assert len(runs) > 1

    def test_pooled_interval_shrinks(self):
        base = SimConfig(spec=single_mmm(1.0), requests=30_000, seed=3)
        one = simulate(base)
        four = simulate(SimConfig(spec=single_mmm(1.0), requests=30_000, seed=3,
                                  replications=4))
        assert four.half_width_95 < one.half_width_95
        assert four.half_width_95 == pytest.approx(one.half_width_95 / 2.0, rel=0.5)


class TestPinnedEstimates:
    """Estimates recorded from an earlier build of the simulator.

    Exact float equality: any change in event order or RNG use moves them.
    """

    @staticmethod
    def fields(est):
        return (est.p_hit, est.half_width_95, est.origin_fetch_count,
                est.request_count)

    def test_phase_type_tree(self):
        est = simulate(SimConfig(spec=ph_tree(), requests=20_000, seed=5))
        assert self.fields(est) == (0.7781666666666667, 0.008290134127181154,
                                    1922, 18000)

    def test_three_level_config_two_replications(self):
        spec, _ = load_config(CONFIGS / "binary_three_level_mme2.yaml")
        est = simulate(SimConfig(spec=spec, requests=20_000, seed=3,
                                 replications=2))
        assert self.fields(est) == (0.8875277777777778, 0.005081374286618642,
                                    2036, 36000)

    def test_trace_replay(self):
        timestamps = np.cumsum(np.random.default_rng(5).exponential(1.0, 20_000))
        est = simulate_trace(timestamps, single_mmm(1.0), seed=5)
        assert self.fields(est) == (0.4982777777777778, 0.0069668737949193545,
                                    5035, 18000)

    def test_integer_trace_with_expiries_on_arrivals(self):
        # A hit at t refreshes the TTL to expire at t + 1, exactly when the
        # next request may arrive: the tie order of events decides the hit.
        timestamps = np.cumsum(np.random.default_rng(7).integers(0, 3, 5000))
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Deterministic(1.0), delay=Deterministic(0.5),
                      arrival=Deterministic(1.0))
        )
        est = simulate_trace(timestamps.astype(float), spec, seed=1)
        assert self.fields(est) == (0.48111111111111116, 0.022387056039208552,
                                    1719, 4500)

    def test_deterministic_two_level_tree(self):
        leaves = (
            CacheNode("a", ttl=Deterministic(1.0), delay=Deterministic(0.5),
                      arrival=Deterministic(1.0)),
            CacheNode("b", ttl=Deterministic(0.5), delay=Deterministic(0.5),
                      arrival=Deterministic(1.5)),
        )
        spec = CacheTreeSpec(
            CacheNode("root", ttl=Deterministic(2.0), delay=Deterministic(1.0),
                      children=leaves)
        )
        est = simulate(SimConfig(spec=spec, requests=5000, seed=1))
        assert self.fields(est) == (0.8, 4.9921715471057503e-17, 1000, 4500)


class TestReferenceCounting:
    """A finished run holds no reference cycle, so reference counting alone
    frees its caches and sample buffers."""

    @pytest.mark.parametrize("run", [
        lambda: simulate(SimConfig(spec=ph_tree(), requests=5000, seed=2,
                                   replications=2)),
        lambda: simulate_trace(np.arange(5000.0), single_mmm(1.0), seed=2),
    ], ids=["simulate", "simulate_trace"])
    def test_no_cache_left_for_cyclic_gc(self, run):
        gc.collect()
        gc.disable()
        try:
            run()
            left = sum(isinstance(o, _Cache) for o in gc.get_objects())
        finally:
            gc.enable()
        assert left == 0


class TestTraceReplay:
    def test_poisson_trace_consistent_with_closed_form(self, rng):
        timestamps = np.cumsum(rng.exponential(1.0, 150_000))
        est = simulate_trace(timestamps, single_mmm(1.0), seed=2)
        se = est.half_width_95 / 1.96
        assert abs(est.p_hit - 0.5) <= 4 * se

    def test_two_point_trace(self):
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Exponential(1e-9), delay=Deterministic(0.0),
                      arrival=Exponential(1.0))
        )
        est = simulate_trace([0.0, 1.0], spec, warmup_fraction=0.0)
        assert est.p_hit == 0.5

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            simulate_trace([1.0, 0.5], single_mmm(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_trace_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            simulate_trace([0.0, bad, 1.0, 2.0, 3.0], single_mmm(1.0),
                           warmup_fraction=0.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            simulate_trace([], single_mmm(1.0))

    @pytest.mark.parametrize("fraction", [-0.5, 1.5])
    def test_warmup_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError, match=r"warmup fraction must lie in \[0, 1\)"):
            simulate_trace(np.arange(100.0), single_mmm(1.0), warmup_fraction=fraction)

    def test_zero_warmup_counts_every_request(self):
        est = simulate_trace(np.arange(100.0), single_mmm(1.0), warmup_fraction=0.0)
        assert est.request_count == 100

    def test_multi_cache_trace_rejected(self):
        with pytest.raises(ConfigError, match="single-cache"):
            simulate_trace([0.0, 1.0], two_level_tree(1.0))


class TestConfigValidation:
    def test_needs_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            SimConfig(spec=single_mmm(1.0), requests=0).validate()

    @pytest.mark.parametrize("field, value", [
        ("requests", 2.5), ("replications", 1.5), ("seed", -1), ("seed", 1.5),
    ])
    def test_bad_integer_field_rejected(self, field, value):
        cfg = SimConfig(spec=single_mmm(1.0), **{"requests": 10, field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("seed", [-3, 2.5])
    def test_bad_trace_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            simulate_trace(np.arange(100.0), single_mmm(1.0), seed=seed)

    def test_warmup_range(self):
        with pytest.raises(ConfigError, match="warmup"):
            SimConfig(spec=single_mmm(1.0), requests=10, warmup_fraction=1.0).validate()

    def test_ph_ttl_allowed_by_simulator(self):
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Erlang(2, 1.0), delay=Exponential(1.0),
                      arrival=Exponential(1.0))
        )
        est = simulate(SimConfig(spec=spec, requests=20_000, seed=1))
        assert 0.0 < est.p_hit < 1.0
