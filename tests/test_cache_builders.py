import tracemalloc

import numpy as np
import pytest

from ttldelay.cache_builders import (
    build_parent_cache,
    build_single_cache,
    fetch_entry_distribution,
)
from ttldelay.distributions import Coxian, Deterministic, Erlang, Exponential, GeneralPH
from ttldelay.errors import ConfigError, UnsupportedDistributionError
from ttldelay.hierarchy import delay_pencil
from ttldelay.map_algebra import event_rate, steady_state
from ttldelay.metrics import hit_probability
from ttldelay.spec import CacheNode, CacheTreeSpec

from conftest import encode, labels, ph_renewal_map, single_mmm, state_index, validate_map

# Pinned by a 10^7-request discrete-event run (seed 20250809):
# single cache, Poisson(1) input, exponential TTL mean 2, Erlang-2 delay mean 1.
DES_MME2_P_HIT = 0.499740
DES_MME2_CI = 0.000487


class TestPhRenewalMap:
    def test_exponential(self):
        m = ph_renewal_map(Exponential(1.0))
        np.testing.assert_allclose(m.d0.toarray(), [[-1.0]])
        np.testing.assert_allclose(m.d1.toarray(), [[1.0]])

    def test_erlang_two_chain(self):
        m = ph_renewal_map(Erlang(2, 2.0))
        np.testing.assert_allclose(m.d0.toarray(), [[-2.0, 2.0], [0.0, -2.0]])
        np.testing.assert_allclose(m.d1.toarray(), [[0.0, 0.0], [2.0, 0.0]])

    def test_coxian_mean_drives_event_rate(self):
        cox = Coxian((3.0, 1.0), (0.5,))
        assert cox.mean() == pytest.approx(1.0 / 3.0 + 0.5 * 1.0, abs=1e-12)
        assert event_rate(ph_renewal_map(cox)) == pytest.approx(1.0 / cox.mean(), abs=1e-9)

    def test_deterministic_rejected(self):
        with pytest.raises(UnsupportedDistributionError):
            ph_renewal_map(Deterministic(1.0))


class TestCacheStateMap:
    def test_exponential_delay_three_states(self):
        m = build_parent_cache(Exponential(0.5), Exponential(1.0))
        np.testing.assert_allclose(
            m.d0.toarray(), [[0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 1.0, -1.0]]
        )
        assert not m.d1.toarray().any()
        assert [encode(forest) for forest in labels(m)] == ["O", "I", "F1"]

    def test_erlang_delay_downward_chain(self):
        f = 3
        m = build_parent_cache(Exponential(0.5), Erlang(f, 3.0))
        assert m.size == f + 2
        # Entry at F_f, chain F_k -> F_{k-1}, exit F_1 -> In.
        assert m.d0[2, 1] == pytest.approx(3.0)  # F_1 -> In
        for k in range(1, f):
            assert m.d0[2 + k, 2 + k - 1] == pytest.approx(3.0)
        entry = fetch_entry_distribution(Erlang(f, 3.0))
        np.testing.assert_allclose(entry, [0.0, 0.0, 1.0])

    def test_single_phase_consistency(self):
        a = build_parent_cache(Exponential(0.5), Exponential(2.0))
        b = build_parent_cache(Exponential(0.5), Erlang(1, 2.0))
        np.testing.assert_allclose(a.d0.toarray(), b.d0.toarray())

    def test_ph_ttl_rejected(self):
        with pytest.raises(UnsupportedDistributionError):
            build_parent_cache(Erlang(2, 1.0), Exponential(1.0))

    def test_phase_counts_fit_one_byte_code(self):
        # A state's code holds each phase in one byte, beside In and Out.
        assert build_parent_cache(Exponential(0.5), Erlang(254, 2.0)).size == 256
        with pytest.raises(UnsupportedDistributionError, match="254 phases"):
            build_parent_cache(Exponential(0.5), Erlang(255, 2.0))
        with pytest.raises(UnsupportedDistributionError, match="254 phases"):
            build_single_cache(Erlang(255, 1.0), Exponential(0.5), Exponential(1.0))


class TestSingleCache:
    def test_mmm_matches_reference_matrices(self):
        m = build_single_cache(Exponential(1.0), Exponential(0.5), Exponential(1.0))
        np.testing.assert_allclose(
            m.d0.toarray(), [[-1.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 1.0, -2.0]]
        )
        np.testing.assert_allclose(
            m.d1.toarray(), [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        )

    def test_erlang_arrivals_six_states(self):
        m = build_single_cache(Erlang(2, 2.0), Exponential(0.5), Exponential(1.0))
        assert m.size == 6
        encoded = {encode(forest) for forest in labels(m)}
        assert encoded == {
            "(A1)O", "(A2)O", "(A1)I", "(A2)I", "(A1)F1", "(A2)F1",
        }
        # Arrival completion in Out is an active miss entering the fetch state
        # and resetting the arrival phase.
        i, j = state_index(m, "(A2)O"), state_index(m, "(A1)F1")
        assert m.d1[i, j] == pytest.approx(2.0)
        # Completion while in cache is a hit: hidden.
        i, j = state_index(m, "(A2)I"), state_index(m, "(A1)I")
        assert m.d1[i, j] == 0.0
        assert m.d0[i, j] == pytest.approx(2.0)
        assert validate_map(m) == []

    def test_erlang_delay_pinned_against_simulation_oracle(self):
        m = build_single_cache(Exponential(1.0), Exponential(0.5), Erlang(2, 2.0))
        assert m.size == 4
        p = hit_probability(m, 1.0)
        # Poisson input with exponential TTL is insensitive to the delay shape;
        # the independent event-loop oracle agrees within its interval.
        assert p == pytest.approx(0.5, abs=1e-9)
        assert abs(p - DES_MME2_P_HIT) <= 3 * DES_MME2_CI / 1.96

    def test_out_rate_from_in_state(self):
        # In-state outgoing mass = TTL rate + arrival-completion rate (hits
        # reset the arrival phase; for single-phase arrivals the reset folds
        # into the diagonal).
        m = build_single_cache(Erlang(2, 2.0), Exponential(0.5), Exponential(1.0))
        i = state_index(m, "(A2)I")
        off_diag = m.d0[i].sum() - m.d0[i, i] + m.d1[i].sum()
        assert off_diag == pytest.approx(0.5 + 2.0, abs=1e-12)
        assert m.d0[i].sum() + m.d1[i].sum() == pytest.approx(0.0, abs=1e-12)

    def test_zero_delay_limit_matches_no_delay_formula(self):
        # P(X < T) for Erlang-2 input (mean 1) and exponential TTL mean 2.
        arrival = Erlang(2, 2.0)
        m = build_single_cache(arrival, Exponential(0.5), Exponential(1e6))
        p = hit_probability(m, 1.0)
        q = (2.0 / 2.5) ** 2  # P(both phases finish before the TTL)
        assert p == pytest.approx(q, abs=1e-3)

    def test_parent_cache_has_no_events(self):
        for delay in (Exponential(1.0), Erlang(2, 2.0), Coxian((3.0, 1.0), (0.5,))):
            m = build_parent_cache(Exponential(0.5), delay)
            assert not m.d1.toarray().any()
            assert validate_map(m) == []

    def test_general_ph_delay_entry_split(self):
        hyper = GeneralPH((0.3, 0.7), ((-1.0, 0.0), (0.0, -4.0)))
        m = build_single_cache(Exponential(1.0), Exponential(0.5), hyper)
        out_idx = 0
        entries = m.d1[out_idx]
        np.testing.assert_allclose(sorted(entries[entries > 0]), [0.3, 0.7])
        assert validate_map(m) == []

    def test_large_leaf_is_composed_sparsely(self):
        # Erlang-40 requests and delay: 1,680 states, whose dense complex
        # pencil matrices would take 45 MB each.
        spec = CacheTreeSpec(CacheNode("c", ttl=Exponential(0.5), delay=Erlang(40, 40.0),
                                       arrival=Erlang(40, 40.0)))
        tracemalloc.start()
        try:
            pencil = delay_pencil(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pencil.a.shape == (1680, 1680)
        assert peak < 10e6


class TestTreeSpec:
    def test_leaf_without_arrival_rejected(self):
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Exponential(1.0), delay=Exponential(1.0))
        )
        with pytest.raises(ConfigError, match="arrival"):
            spec.validate()

    def test_inner_with_arrival_rejected(self):
        leaf = CacheNode("l", ttl=Exponential(1.0), delay=Exponential(1.0),
                         arrival=Exponential(1.0))
        spec = CacheTreeSpec(
            CacheNode("r", ttl=Exponential(1.0), delay=Exponential(1.0),
                      children=(leaf,), arrival=Exponential(1.0))
        )
        with pytest.raises(ConfigError, match="must not carry"):
            spec.validate()

    def test_exact_engine_rejects_deterministic(self):
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Exponential(1.0), delay=Deterministic(1.0),
                      arrival=Exponential(1.0))
        )
        with pytest.raises(ConfigError, match="deterministic"):
            spec.validate(exact=True)
        spec.validate(exact=False)

    def test_exact_engine_rejects_ph_ttl(self):
        spec = CacheTreeSpec(
            CacheNode("c", ttl=Erlang(2, 1.0), delay=Exponential(1.0),
                      arrival=Exponential(1.0))
        )
        with pytest.raises(ConfigError, match="exponential"):
            spec.validate(exact=True)
        spec.validate(exact=False)

    def test_total_request_rate(self):
        assert single_mmm(1.0).total_request_rate() == pytest.approx(1.0)
