import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings as hyp_settings, strategies as st

from ttldelay.errors import DegenerateProcessError
from ttldelay.hierarchy import build_tree
from ttldelay.map_algebra import LabeledMap
from ttldelay.metrics import (
    delay_impairment,
    delay_upper_bound,
    hit_probability,
    lambert_w,
    mmm_impairment_closed_form,
    mmm_impairment_ttl_sensitivity,
    optimal_delay,
    tree_hit_probability,
)

from conftest import e20_cache, two_level_tree, single_mmm


class TestHitProbability:
    def test_single_cache_values(self):
        assert tree_hit_probability(single_mmm(1.0)) == pytest.approx(0.5, abs=1e-6)
        assert tree_hit_probability(single_mmm(0)) == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_closed_form_identity(self):
        # Poisson/exponential single cache: P_h = tau_T / (tau_T + tau_D + 1).
        for tau_t in (0.5, 1.0, 2.0, 4.0):
            for tau_d in (0.5, 1.0, 2.0, 5.0):
                p = tree_hit_probability(single_mmm(tau_d, tau_t))
                assert p == pytest.approx(tau_t / (tau_t + tau_d + 1.0), abs=1e-9)

    def test_no_misses_means_one(self):
        system = build_tree(single_mmm(1.0))
        silent = LabeledMap(system.generator(), np.zeros_like(system.d1.toarray()), system.codes)
        assert hit_probability(silent, 1.0) == 1.0

    def test_zero_rate_rejected(self):
        system = build_tree(single_mmm(1.0))
        with pytest.raises(DegenerateProcessError):
            hit_probability(system, 0.0)


class TestDelayImpairment:
    def test_lemma_identity_on_grid(self):
        for tau_t in (0.5, 1.0, 2.0, 4.0):
            for tau_d in (0, 0.5, 1.0, 2.0, 5.0):
                eta = delay_impairment(single_mmm(tau_d, tau_t))
                assert eta == pytest.approx(
                    mmm_impairment_closed_form(tau_t, tau_d), abs=1e-6
                )

    def test_spot_values(self):
        assert mmm_impairment_closed_form(2, 1) == pytest.approx(0.25)
        assert mmm_impairment_closed_form(0, 0.5) == pytest.approx(1.0 / 3.0)
        assert mmm_impairment_closed_form(1, 2) == pytest.approx(0.5)
        assert mmm_impairment_closed_form(3.0, 0) == 0.0

    def test_monotonicity_and_sensitivity(self):
        etas = [mmm_impairment_closed_form(2.0, d) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        etas_t = [mmm_impairment_closed_form(t, 1.0) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(etas_t, etas_t[1:]))
        assert mmm_impairment_ttl_sensitivity(2.0, 1.0) == pytest.approx(-1.0 / 16.0)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w(0, 0.0) == 0.0
        assert lambert_w(-1, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-12)

    def test_known_value(self):
        # Fixed point of w = 1 * exp(-w).
        assert lambert_w(0, 1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_residual_against_library(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rng.uniform(-1.0 / math.e, 10.0)
            w = lambert_w(0, x)
            assert abs(w * math.exp(w) - x) < 1e-12
            assert w == pytest.approx(float(scipy.special.lambertw(x, 0).real), abs=1e-9)
        for _ in range(1000):
            x = rng.uniform(-1.0 / math.e, -1e-12)
            w = lambert_w(-1, x)
            assert abs(w * math.exp(w) - x) < 1e-12

    def test_relative_accuracy_near_zero(self):
        # The branch-point series cancels as x -> 0-: W0(-1e-20) is -1e-20,
        # not a positive number of that size.
        assert lambert_w(0, -1e-20) == pytest.approx(-1e-20, rel=1e-15)
        for x in -np.logspace(-300, math.log10(0.36), 400):
            w = lambert_w(0, float(x))
            assert w == pytest.approx(float(scipy.special.lambertw(x, 0).real), rel=1e-13)
        for x in np.logspace(-300, 300, 400):
            w = lambert_w(0, float(x))
            assert w == pytest.approx(float(scipy.special.lambertw(x, 0).real), rel=1e-13)
        for x in -np.logspace(-300, math.log10(0.36), 400):
            w = lambert_w(-1, float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    @pytest.mark.parametrize("branch, x", [
        (-1, -2.7e-236),
        (-1, -1.645641571998578e-54),
        (-1, -4.924947077266155e-240),
        (0, 1e300),
        (0, 2.487126351369676e115),
        (0, 2.9089205915811103e237),
    ])
    def test_large_w_stops_within_a_few_steps(self, monkeypatch, branch, x):
        # For |w| above about 100 a double cannot reach the 1e-14 relative
        # residual; the second and third input of each branch used to step
        # between neighbouring floats for all 50 iterations.
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda v: calls.append(v) or exp(v))
        w = lambert_w(branch, x)
        monkeypatch.undo()
        assert len(calls) <= 6
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(0, -1.0)
        with pytest.raises(ValueError):
            lambert_w(-1, 0.5)
        with pytest.raises(ValueError):
            lambert_w(2, 0.5)


@pytest.mark.parametrize("tau_t", [0.0015, 0.002, 0.005, 0.01, 0.02, 0.03, 0.0367, 0.05, 0.1, 0.5])
def test_short_ttl_bound_solves_its_equation(tau_t):
    # The bound b != tau_t solves exp(-1/b) / b = exp(-1/tau_t) / tau_t; in
    # logs, a relative error e in b moves the left side by about e.
    bound = delay_upper_bound(tau_t)
    assert bound > 1.0
    lhs, rhs = 1.0 / bound + math.log(bound), 1.0 / tau_t + math.log(tau_t)
    assert abs(lhs - rhs) <= 1e-14 * abs(rhs) + 1e-15


@pytest.mark.parametrize("tau_t", [0.0, -1.0, math.nan, math.inf, 0.001, 0.00134])
def test_bound_rejects_non_finite_and_overflowing_tau_t(tau_t):
    with pytest.raises(ValueError):
        delay_upper_bound(tau_t)


def _bound_bisection_oracle(tau_t):
    """Locate -1/w with w e^w = -exp(-1/tau_t)/tau_t on the proper branch."""
    h = -math.exp(-1.0 / tau_t) / tau_t

    def f(w):
        return w * math.exp(w) - h

    if tau_t >= 1:
        lo, hi = -60.0, -1.0
    else:
        lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f(lo) > 0):
            lo = mid
        else:
            hi = mid
    return -1.0 / (0.5 * (lo + hi))


class TestDelayBound:
    def test_branch_point(self):
        assert delay_upper_bound(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        for tau_t in (0.5, 2.0, 3.0, 10.0):
            assert delay_upper_bound(tau_t) == pytest.approx(
                _bound_bisection_oracle(tau_t), abs=1e-9
            )

    def test_small_ttl_bound_exceeds_ttl(self):
        for tau_t in (0.2, 0.5, 0.9):
            assert delay_upper_bound(tau_t) > tau_t
        assert delay_upper_bound(0.5) == pytest.approx(2.46, abs=0.01)


class TestOptimalDelay:
    def test_near_periodic_input_has_interior_maximum(self):
        p_hit = lambda td: tree_hit_probability(e20_cache(td))
        delta_star, p_max, kappa = optimal_delay(p_hit, 0.0, 2.0)
        assert delta_star == pytest.approx(0.25, abs=0.05)
        assert p_max == pytest.approx(0.6314, abs=2e-3)
        assert 0.0 < kappa <= 1.0
        assert kappa == pytest.approx(0.6103 / 0.6314, abs=5e-3)

    def test_tiny_ttl_optimum_near_first_alignment(self):
        # With a TTL of a tenth of the request period, the best delay parks
        # the cache window just before the next near-periodic arrival.
        p_hit = lambda td: tree_hit_probability(e20_cache(td, tau_t=0.1))
        delta_star, p_max, kappa = optimal_delay(p_hit, 0.0, 2.0)
        assert delta_star == pytest.approx(0.83, abs=0.02)
        assert kappa == pytest.approx(0.00737896, abs=2e-4)

    def test_poisson_input_maximum_at_zero(self):
        p_hit = lambda td: tree_hit_probability(single_mmm(td))
        delta_star, p_max, kappa = optimal_delay(p_hit, 0.0, 2.0)
        assert delta_star == pytest.approx(0.0, abs=1e-6)
        assert kappa == pytest.approx(1.0, abs=1e-6)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            optimal_delay(lambda td: 0.5, 1.0, 1.0)


@hyp_settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 50.0))
def test_bound_defines_nonnegative_delay(tau_t):
    bound = delay_upper_bound(tau_t)
    assert bound > 0
    # tau_T -> infinity pushes the beneficial-delay window to zero.
    assert delay_upper_bound(tau_t + 10.0) < bound + 1e-9
