import math
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from ttldelay import trace_pipeline
from ttldelay.distributions import Coxian, ph_moment
from ttldelay.errors import FitError
from ttldelay.trace_pipeline import (
    _EStep,
    _initial_parameters,
    canonical_coxian,
    fit_ph_em,
    interarrivals,
    remove_outliers,
    select_phases,
)


def monotone(trace, slack=1e-9):
    return all(b >= a - slack for a, b in zip(trace, trace[1:]))


def _rk4_trajectory(v0, mat, h, steps):
    """Integrate v' = v @ mat with per-sample step h; returns the trajectory."""
    m, p = v0.shape
    out = np.empty((steps + 1, m, p))
    out[0] = v0
    v = v0
    hh = h[:, None]
    for k in range(steps):
        k1 = v @ mat
        k2 = (v + 0.5 * hh * k1) @ mat
        k3 = (v + 0.5 * hh * k2) @ mat
        k4 = (v + hh * k3) @ mat
        v = v + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = v
    return out


def reference_estep(samples, rates, probs, grid_steps):
    """The E-step by explicit RK4 trajectories and Simpson weights."""
    _, s_mat = Coxian(rates, probs).ph()
    exit_rates = -s_mat.sum(axis=1)
    p = len(rates)
    m = samples.size
    h = samples / grid_steps
    alpha = np.zeros((m, p))
    alpha[:, 0] = 1.0
    fwd = _rk4_trajectory(alpha, s_mat, h, grid_steps)
    bwd = _rk4_trajectory(np.tile(exit_rates, (m, 1)), s_mat.T, h, grid_steps)

    density = np.einsum("mp,p->m", fwd[-1], exit_rates)
    unstable = np.any(density < 0)
    density = np.maximum(density, 1e-300)
    loglik = math.nan if unstable else float(np.log(density).sum())
    w = np.ones(grid_steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    scale = w[None, :] * (h[:, None] / 3.0) / density[:, None]  # (m, K+1)
    weighted = fwd * scale.T[:, :, None]
    b_all = bwd[::-1]
    occupancy = np.einsum("kmi,kmi->i", weighted, b_all)
    pair = np.einsum("kmi,kmi->i", weighted[:, :, :-1], b_all[:, :, 1:])
    forward_jumps = pair * np.asarray(rates[:-1]) * np.asarray(probs)
    exits = (fwd[-1] / density[:, None]).sum(axis=0) * exit_rates
    return occupancy, forward_jumps, exits, loglik


def one_shot_estep(samples, rates, probs, grid_steps):
    """The E-step as one function that allocates every array it uses.

    ``_EStep`` makes each product by the same NumPy call on the same operand
    layout, into buffers it reuses, so the two agree bit for bit.
    """
    _, s_mat = Coxian(rates, probs).ph()
    exit_rates = -s_mat.sum(axis=1)
    p, m = len(rates), samples.size
    step = samples.max() / grid_steps * s_mat.T
    powers = np.array(list(accumulate([step] * 8, np.matmul, initial=np.eye(p))))
    inv_fact = 1.0 / np.array([math.factorial(j) for j in range(5)])
    q_rows = inv_fact[:, None] * (exit_rates @ powers[:5])
    squared = np.convolve(inv_fact, inv_fact)[:, None, None] * powers
    coeffs = np.zeros((9, 2 * p, 2 * p))
    coeffs[:, :p, :p] = coeffs[:, p:, p:] = squared
    panel = coeffs[:, :p, p:]
    panel[:, 0, :] = exit_rates @ squared
    panel += squared[:, :, :1] * exit_rates
    for i in range(5):
        panel[i : i + 5] += 4.0 * inv_fact[i] * powers[i, :, :1] * q_rows[:, None, :]
    u_powers = np.vander(samples / samples.max(), 9, increasing=True)
    block = (u_powers @ coeffs.reshape(9, -1)).reshape(m, 2 * p, 2 * p)
    power, n = None, grid_steps // 2
    while True:
        if n & 1:
            power = block if power is None else power @ block
        n >>= 1
        if not n:
            break
        block = block @ block
    a_end = power[:, :p, 0]
    density = a_end @ exit_rates
    unstable = (
        max(rates) * samples.max() / grid_steps > trace_pipeline.RK4_STABILITY_LIMIT
        or np.any(density < 0)
    )
    density = np.maximum(density, 1e-300)
    loglik = math.nan if unstable else float(np.log(density).sum())
    weights = samples / samples.max() / (3.0 * grid_steps) / (density * samples.max())
    t = (weights @ power.reshape(m, -1)).reshape(2 * p, -1)[:p, p:]
    t = t * samples.max() * samples.max()
    occupancy = np.diagonal(t)
    forward_jumps = np.diagonal(t, 1) * np.diagonal(s_mat, 1)
    exits = ((1.0 / density) @ a_end) * exit_rates
    return occupancy, forward_jumps, exits, loglik


def estep(samples, rates, probs, grid_steps):
    """One call on a fresh ``_EStep``."""
    return _EStep(samples, len(rates), grid_steps)(rates, probs)


def assert_bitwise_equal(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


class TestInterarrivals:
    def test_simple_differences(self):
        np.testing.assert_allclose(interarrivals([0, 1, 3]), [1, 2])

    def test_zero_gaps_kept(self):
        np.testing.assert_allclose(interarrivals([0, 0, 1]), [0, 1])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            interarrivals([0, 2, 1])

    def test_multi_column_rejected(self):
        rows = [[0, 1], [1, 3], [3, 4], [4, 9], [6, 10]]
        with pytest.raises(ValueError, match=r"shape \(5, 2\)"):
            interarrivals(rows)

    def test_poisson_mean(self, rng):
        t = np.cumsum(rng.exponential(0.5, 10_000))
        gaps = interarrivals(np.concatenate([[0.0], t]))
        assert gaps.mean() == pytest.approx(0.5, abs=0.02)


class TestRemoveOutliers:
    def test_constant_samples_unchanged(self):
        s = np.full(40, 2.5)
        assert len(remove_outliers(s)) == 40

    def test_huge_sample_removed(self, rng):
        s = np.concatenate([rng.exponential(1.0, 999), [1e6]])
        filtered = remove_outliers(s)
        assert filtered.max() < 1e5

    def test_infinite_cutoff_keeps_all(self, rng):
        s = rng.exponential(1.0, 500)
        assert len(remove_outliers(s, cutoff=np.inf)) == 500

    def test_zeros_offset(self, rng):
        s = np.concatenate([[0.0, 0.0], rng.exponential(1.0, 200)])
        filtered = remove_outliers(s)
        assert np.all(filtered > 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            remove_outliers([])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_independent_of_time_unit(self, rng, scale):
        # Squares or inverse squares of these gaps overflow: the transform
        # runs at unit geometric mean.
        s = rng.gamma(2.0, 0.5, 2000)
        want = remove_outliers(s) * scale
        np.testing.assert_array_equal(remove_outliers(s * scale), want)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_rejected(self, bad):
        # Raised before the power transform takes a log of it.
        with pytest.raises(ValueError, match="finite and non-negative"):
            remove_outliers([1.0, bad, 2.0, 3.0])


class TestFitPhEm:
    def test_exponential_rate_recovered(self, rng):
        samples = rng.exponential(0.5, 2500)
        report = fit_ph_em(samples, 1)
        assert report.fitted.rates[0] == pytest.approx(2.0, rel=0.05)
        assert monotone(report.log_likelihood_trace)
        assert report.fitted_mean == pytest.approx(report.empirical_mean, rel=0.05)

    def test_erlang_data_nested_likelihood(self, rng, monkeypatch):
        samples = rng.gamma(3.0, 1.0 / 3.0, 1200)
        with monkeypatch.context() as patch:
            patch.setattr(trace_pipeline, "MAX_ITERS", 150)
            r3 = fit_ph_em(samples, 3)
        r1 = fit_ph_em(samples, 1)
        assert r3.log_likelihood >= r1.log_likelihood
        assert monotone(r3.log_likelihood_trace)
        assert r3.fitted_mean == pytest.approx(r3.empirical_mean, rel=0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(FitError):
            fit_ph_em([], 2)
        with pytest.raises(FitError):
            fit_ph_em([1.0, -2.0], 2)
        with pytest.raises(FitError):
            fit_ph_em([1.0, 2.0], 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_is_fit_error(self, bad):
        with pytest.raises(FitError, match="samples must be finite and positive"):
            fit_ph_em([1.0, bad, 2.0], 2)
        with pytest.raises(FitError, match="samples must be finite and positive"):
            select_phases([1.0, bad, 2.0], range(1, 3))

    def test_monotone_on_corpus(self, rng, monkeypatch):
        monkeypatch.setattr(trace_pipeline, "MAX_ITERS", 120)
        corpus = {
            "exponential": rng.exponential(1.0, 800),
            "erlang": rng.gamma(3.0, 0.5, 800),
            "bimodal": np.concatenate(
                [rng.exponential(0.2, 400), 4.0 + rng.exponential(0.3, 400)]
            ),
            "lognormal": rng.lognormal(0.0, 0.8, 800),
        }
        for name, samples in corpus.items():
            report = fit_ph_em(samples, 2)
            assert monotone(report.log_likelihood_trace), name
            assert report.fitted_mean == pytest.approx(report.empirical_mean, rel=0.05)


class TestEstep:
    @pytest.mark.parametrize("grid_steps", [2, 4, 96])
    @pytest.mark.parametrize("phases", [1, 2, 3, 5])
    def test_matches_trajectory_reference(self, phases, grid_steps):
        gen = np.random.default_rng(100 + phases)
        samples = gen.gamma(2.0, 0.5, 200)
        rates = gen.uniform(0.5, 3.0, phases)
        probs = gen.uniform(0.1, 0.9, phases - 1)
        got = estep(samples, rates, probs, grid_steps)
        want = reference_estep(samples, rates, probs, grid_steps)
        # Coarse grids are RK4-unstable on some of these samples and drive
        # densities negative: exactly these three cases have a NaN loglik.
        unstable = (phases, grid_steps) in {(2, 2), (2, 4), (3, 2)}
        assert np.isnan(want[3]) == unstable
        assert all(np.all(np.isfinite(w)) for w in want[:3])
        for g, w in zip(got[:3], want[:3]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
        # The step-size bound also rejects (5, 2), whose step is unstable
        # (h * rate up to 4.6) before any density has turned negative.
        guarded = unstable or (phases, grid_steps) == (5, 2)
        assert np.isnan(got[3]) == guarded
        if not guarded:
            assert got[3] == pytest.approx(want[3], rel=1e-12)

    @staticmethod
    def _assert_matches_reference(samples, rates, probs, grid_steps):
        got = estep(samples, rates, probs, grid_steps)
        want = reference_estep(samples, rates, probs, grid_steps)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("phases", [2, 3, 5])
    def test_matches_reference_at_em_start(self, phases):
        # EM starts every phase at one rate: S is a single Jordan-like chain.
        samples = np.random.default_rng(7).gamma(2.0, 0.5, 200)
        rates, probs = _initial_parameters(samples, phases, restart=0)
        assert np.all(rates == rates[0])
        self._assert_matches_reference(samples, rates, probs, 96)

    def test_matches_reference_on_rates_over_two_decades(self):
        samples = np.random.default_rng(8).gamma(2.0, 0.5, 200)
        rates = np.array([5.0, 0.05, 1.2, 0.4])
        probs = np.array([0.8, 0.3, 0.6])
        self._assert_matches_reference(samples, rates, probs, 96)

    def test_stiff_overflow_stays_non_finite(self):
        samples = np.random.default_rng(1).gamma(2.0, 0.5, 200)
        rates, probs = np.array([500.0, 200.0, 50.0]), np.array([0.5, 0.5])
        with np.errstate(all="ignore"):
            want = reference_estep(samples, rates, probs, 96)
            got = estep(samples, rates, probs, 96)
        assert not np.isfinite(want[3])
        assert not np.isfinite(got[3])

    def test_negative_density_gives_nan_loglik(self):
        # At rate 38 two RK4 steps are unstable on most samples and drive 91
        # densities negative; clamped, they used to give a finite loglik.
        samples = np.random.default_rng(0).gamma(2.0, 0.5, 2000)
        with np.errstate(all="ignore"):
            loglik = estep(samples, np.array([38.0, 38.0]), np.array([0.1]), 2)[3]
        assert math.isnan(loglik)

    def test_unstable_step_with_positive_densities_gives_nan_loglik(self):
        # One phase at rate 38 and two steps: h * rate reaches 84, far past
        # RK4's limit of 2.785, yet every density stays positive and the
        # clamped loglik used to read +36,336.
        samples = np.random.default_rng(0).gamma(2.0, 0.5, 2000)
        assert math.isnan(estep(samples, np.array([38.0]), np.array([]), 2)[3])

    @pytest.mark.parametrize("grid_steps", [2, 4, 96])
    @pytest.mark.parametrize("phases", [1, 2, 3, 5])
    def test_bitwise_equal_to_one_shot(self, phases, grid_steps):
        gen = np.random.default_rng(200 + phases)
        samples = gen.gamma(2.0, 0.5, 200)
        workspace = _EStep(samples, phases, grid_steps)
        for _ in range(4):  # consecutive calls on one object
            rates = gen.uniform(0.5, 3.0, phases)
            probs = gen.uniform(0.1, 0.9, phases - 1)
            with np.errstate(all="ignore"):
                want = one_shot_estep(samples, rates, probs, grid_steps)
                got = workspace(rates, probs)
            assert_bitwise_equal(got, want)

    def test_no_state_carried_after_overflow(self):
        # On these long samples the stiff call overflows before its last
        # product, so 0 * inf leaves NaN in a lower-left quadrant of the
        # reused blocks; the next call must read none of it.
        samples = np.random.default_rng(1).gamma(2.0, 2.0, 200)
        workspace = _EStep(samples, 3, 96)
        with np.errstate(all="ignore"):
            stiff = workspace(np.array([500.0, 200.0, 50.0]), np.array([0.5, 0.5]))
        assert not np.isfinite(stiff[3])
        assert np.isnan(workspace.blocks[:, :, 3:, :3]).any()
        rates, probs = np.array([2.0, 1.5, 0.7]), np.array([0.6, 0.4])
        got = workspace(rates, probs)
        assert np.isfinite(got[3])
        assert_bitwise_equal(got, _EStep(samples, 3, 96)(rates, probs))
        assert_bitwise_equal(got, one_shot_estep(samples, rates, probs, 96))

    def test_warm_call_allocates_less_than_one_block(self):
        # Every sample-sized array a call writes lives in the workspace: a
        # second call traces less than one (m, 2p, 2p) block.
        samples = np.random.default_rng(0).gamma(2.0, 0.5, 2000)
        workspace = _EStep(samples, 3, 96)
        rates, probs = _initial_parameters(samples, 3, restart=0)
        workspace(rates, probs)
        tracemalloc.start()
        try:
            workspace(rates, probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples.size * 6 * 6 * 8  # 576,000 B

    @pytest.mark.parametrize("scale", [1e-40, 1e40])
    def test_independent_of_time_unit(self, scale):
        # Gaps in another time unit, rates in its inverse: occupancies scale
        # with the unit, densities with its inverse, jumps and exits not at all.
        samples = np.random.default_rng(9).gamma(2.0, 0.5, 200)
        rates, probs = np.array([2.0, 1.5, 0.7]), np.array([0.6, 0.4])
        want = estep(samples, rates, probs, 96)
        got = estep(samples * scale, rates / scale, probs, 96)
        np.testing.assert_allclose(got[0] / scale, want[0], rtol=1e-12, atol=0)
        for g, w in zip(got[1:3], want[1:3]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
        loglik = got[3] + samples.size * math.log(scale)
        assert loglik == pytest.approx(want[3], rel=1e-12)

    def test_underflowing_density_is_clamped(self):
        # exp(-2000) underflows to zero; the clamp keeps the loglik finite.
        samples = np.array([1.0, 2000.0])
        loglik = estep(samples, np.array([1.0]), np.array([]), 1000)[3]
        assert loglik == pytest.approx(-1.0 + math.log(1e-300), rel=1e-9)


class TestFitRegression:
    def test_gamma_fit_iterations_and_loglik(self):
        samples = remove_outliers(np.random.default_rng(0).gamma(2, 0.5, 2000))
        report = fit_ph_em(samples, 3)
        assert len(report.log_likelihood_trace) == 452
        assert report.log_likelihood == pytest.approx(-1482.2452483693, rel=1e-9)
        assert report.converged
        assert report.fitted.rates == pytest.approx(
            [2.7735407436584, 2.7722890787395, 2.7718392426224], rel=1e-9
        )
        assert report.fitted.continue_probs == pytest.approx(
            [0.99999999999999, 0.60340821394141], rel=1e-9
        )

    @staticmethod
    def _sample():
        return remove_outliers(np.random.default_rng(0).gamma(2, 0.5, 2000))

    @pytest.mark.parametrize(
        "phases, iterations, converged, loglik, rates, probs",
        [
            (1, 2, True, -1800.0007358998, [1.0650136788203], []),
            (
                2, 127, True, -1496.0201208067,
                [2.1301040698879, 2.1299507275674], [0.99999999883189],
            ),
            (
                5, 500, False, -1474.1659004887,
                [5.0550535239259, 4.3126361436296, 4.2578455645971,
                 3.1617094033159, 3.1338203168337],
                [0.99999999999999, 0.87596439910710, 0.55379798183558,
                 0.96962210414505],
            ),
        ],
    )
    def test_other_phase_counts(self, phases, iterations, converged, loglik, rates, probs):
        report = fit_ph_em(self._sample(), phases)
        assert len(report.log_likelihood_trace) == iterations
        assert report.converged == converged
        assert report.log_likelihood == pytest.approx(loglik, rel=1e-9)
        assert report.fitted.rates == pytest.approx(rates, rel=1e-9)
        assert report.fitted.continue_probs == pytest.approx(probs, rel=1e-9)

    @pytest.mark.parametrize(
        "scale", [1e-250, 1e-200, 1e-160, 1e-100, 1e100, 1e160, 1e200, 1e250]
    )
    def test_independent_of_time_unit(self, scale):
        # From 1e±100 h^4 or (S^T)^4, and from 1e±160 the Simpson weights over
        # the densities (of order x^2), leave the float range; in units of the
        # largest gap none of them does.
        report = fit_ph_em(self._sample() * scale, 3)
        assert len(report.log_likelihood_trace) == 452
        assert np.array(report.fitted.rates) * scale == pytest.approx(
            [2.7735407436584, 2.7722890787395, 2.7718392426224], rel=1e-9
        )

    def test_iteration_limit_not_converged(self, rng, monkeypatch):
        monkeypatch.setattr(trace_pipeline, "MAX_ITERS", 3)
        report = fit_ph_em(rng.gamma(2.0, 0.5, 300), 3)
        assert len(report.log_likelihood_trace) == 3
        assert not report.converged


class TestSelectPhases:
    def test_exponential_picks_one_phase(self, rng, monkeypatch):
        monkeypatch.setattr(trace_pipeline, "MAX_ITERS", 120)
        samples = rng.exponential(1.0, 1200)
        best = select_phases(samples, range(1, 4))
        assert best.phases == 1
        assert best.aic >= 2 * 1 - 2 * best.log_likelihood - 1e-9

    def test_bimodal_needs_multiple_phases(self, rng, monkeypatch):
        samples = np.concatenate(
            [rng.exponential(0.1, 600), 5.0 + rng.exponential(0.2, 600)]
        )
        with monkeypatch.context() as patch:
            patch.setattr(trace_pipeline, "MAX_ITERS", 120)
            best = select_phases(samples, range(1, 4))
        assert best.phases >= 2
        single = fit_ph_em(samples, 1)
        assert best.log_likelihood > single.log_likelihood + 10

    def test_empty_range_rejected(self):
        with pytest.raises(FitError):
            select_phases([1.0, 2.0], [])


class TestCanonicalForm:
    def test_reordering_preserves_distribution(self):
        cox = Coxian((1.0, 5.0, 2.0), (0.7, 0.4))
        canon = canonical_coxian(cox)
        rates = canon.rates
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        a1, s1 = cox.ph()
        a2, s2 = canon.ph()
        for k in range(1, 6):
            assert ph_moment(a2, s2, k) == pytest.approx(
                ph_moment(a1, s1, k), rel=1e-9
            )

    def test_ordering_is_relative(self):
        # Rates of gaps in a large time unit are tiny; an absolute tolerance
        # on their order would leave them unsorted.
        cox = Coxian((1.0, 5.0, 2.0), (0.7, 0.4))
        tiny = canonical_coxian(Coxian(tuple(r * 1e-60 for r in cox.rates), (0.7, 0.4)))
        want = canonical_coxian(cox)
        assert np.array(tiny.rates) * 1e60 == pytest.approx(want.rates, rel=1e-12)
        assert tiny.continue_probs == pytest.approx(want.continue_probs, rel=1e-12)

    def test_already_sorted_untouched(self):
        cox = Coxian((5.0, 2.0), (0.5,))
        assert canonical_coxian(cox).rates == (5.0, 2.0)

    def test_fit_reports_ordered_rates(self, rng, monkeypatch):
        monkeypatch.setattr(trace_pipeline, "MAX_ITERS", 60)
        samples = np.concatenate(
            [rng.exponential(0.2, 500), 3.0 + rng.exponential(0.5, 500)]
        )
        report = fit_ph_em(samples, 3)
        rates = report.fitted.rates
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
