"""Trace-to-model pipeline: inter-request extraction, outlier removal,
Coxian phase-type fitting by expectation maximization, and phase-count
selection by information criteria.

The E-step discretizes the forward and backward filters of the absorbing
Markov chain with ``GRID_STEPS`` fourth-order Runge-Kutta steps per sample
and folds them into the occupancy/jump integrals with composite Simpson
quadrature, in closed form.  One RK4 step is a fixed quartic in the
subgenerator, so two steps and their rank-one Simpson panel are one GEMM of
each sample's nine powers of x / max(x) with nine fixed blocks.
The Simpson-weighted sums of trajectory products are one block of a
block-triangular matrix power (Van Loan, IEEE TAC 1978), taken by repeated
squaring over all samples at once.  Each fit builds one E-step workspace
that holds these sample-sized arrays, so no iteration allocates one.
"""

import logging
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ttldelay.distributions import Coxian
from ttldelay.errors import FitError

log = logging.getLogger(__name__)

BOXCOX_GRID = tuple(np.arange(-2.0, 2.01, 0.5))
# RK4 is stable for h * rate up to this bound on the negative real axis; the
# eigenvalues of a Coxian subgenerator are its negated rates.
RK4_STABILITY_LIMIT = 2.785
# EM loop: at most MAX_ITERS iterations, converged once the log-likelihood
# gains less than TOL, and up to MAX_RESTARTS re-initializations after a
# non-finite likelihood.  GRID_STEPS, the RK4 steps per sample, is even, as
# Simpson's rule needs.
MAX_ITERS = 500
TOL = 1e-7
GRID_STEPS = 96
MAX_RESTARTS = 5


def interarrivals(timestamps):
    """First differences of an ascending timestamp sequence."""
    t = np.asarray(timestamps, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"timestamps must be one column, got shape {t.shape}")
    if t.size < 2:
        raise ValueError("need at least two timestamps")
    if not np.all(np.isfinite(t)):
        raise ValueError("timestamps must be finite")
    gaps = np.diff(t)
    if np.any(gaps < 0):
        raise ValueError("timestamps must be sorted ascending")
    return gaps


def _boxcox(samples, lam):
    if lam == 0.0:
        return np.log(samples)
    return (samples**lam - 1.0) / lam


def remove_outliers(samples, cutoff=2.0):
    """Drop samples whose z-score after a power transform exceeds ``cutoff``.

    The exponent is picked from a fixed grid by maximizing the normal
    log-likelihood of the transformed samples at unit geometric mean, where
    the Jacobian term is zero and no power overflows.  Zero samples are offset
    by a millionth of the smallest positive sample so the transform is defined.
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("empty sample set")
    if not np.all(np.isfinite(s) & (s >= 0)):
        raise ValueError("samples must be finite and non-negative")
    if np.any(s == 0):
        positive = s[s > 0]
        if positive.size == 0:
            return s
        offset = positive.min() * 1e-6
        log.info("offsetting %d zero gaps by %.3e", int((s == 0).sum()), offset)
        s = np.where(s == 0, offset, s)

    unit = s / np.exp(np.log(s).mean())
    best_lam, best_ll = None, -np.inf
    for lam in BOXCOX_GRID:
        y = _boxcox(unit, lam)
        var = y.var()
        if var <= 0:
            continue
        ll = -0.5 * s.size * math.log(var)
        if ll > best_ll:
            best_lam, best_ll = lam, ll
    if best_lam is None:
        return s
    y = _boxcox(unit, best_lam)
    sigma = y.std()
    if sigma == 0:
        return s
    z = (y - y.mean()) / sigma
    return s[np.abs(z) <= cutoff]


@dataclass
class FitReport:
    """Result of one phase-type fit."""

    fitted: Coxian
    log_likelihood_trace: list
    aic: float
    bic: float
    sample_count_before: int
    sample_count_after: int
    empirical_mean: float
    fitted_mean: float
    phases: int
    converged: bool
    restarts_used: int = 0

    @property
    def log_likelihood(self):
        return self.log_likelihood_trace[-1]


class _EStep:
    """The E-step of one EM fit, built once with every sample-sized array it
    writes: ``estep(rates, probs)`` gives the expected occupancy, forward-jump
    and exit statistics plus the loglik.

    With step ``h = x / K`` (``K = grid_steps``), RK4 on ``v' = v S`` is
    ``v <- v P`` for ``P = sum_{j<=4} (hS)^j / j!``, so the forward filter is
    ``a_k = alpha P^k`` and the backward filter ``c_k = P^(K-k) s``.  With
    ``Q = P^T`` and ``X = e_1 s^T``, each ``a_k^T c_k^T`` is ``Q^k X Q^(K-k)``,
    so the Simpson sum with weights 1, 4, 2, ..., 4, 1, grouped into K/2
    panels, is ``sum_j Q^2j (X Q^2 + 4 Q X Q + Q^2 X) Q^(K-2-2j)``.  With
    ``u = x / max(x)`` in [0, 1] and ``H = (max(x) / K) S^T``, in any time unit,
    Q is ``sum_j u^j H^j / j!``, so ``[[Q^2, panel], [0, Q^2]]`` with the panel
    ``e_1 (s^T Q^2) + 4 (Q e_1)(s^T Q) + (Q^2 e_1) s^T`` is one GEMM of u^0..u^8.
    """

    def __init__(self, samples, phases, grid_steps):
        self.grid_steps = grid_steps
        self.samples_max = samples.max()
        self.u_powers = np.vander(samples / self.samples_max, 9, increasing=True)  # u^k
        self.simpson = self.u_powers[:, 1] / (3.0 * grid_steps)  # h/3 in units of max(x)
        self.blocks = np.empty((3, samples.size, 2 * phases, 2 * phases))

    def _block_power(self, n):
        """``[[Q, X], [0, Q]]^n`` of ``blocks[0]``: its upper blocks are ``Q^n``
        and ``sum_{k<n} Q^k X Q^(n-1-k)``.  Binary exponentiation, each product
        into the buffer that holds neither the squared block nor the power."""

        def product(a, b):
            out = min({0, 1, 2} - {block, power})
            np.matmul(self.blocks[a], self.blocks[b], out=self.blocks[out])
            return out

        block, power = 0, None
        while True:
            if n & 1:
                power = block if power is None else product(power, block)
            n >>= 1
            if not n:
                return self.blocks[power]
            block = product(block, block)

    def __call__(self, rates, probs):
        _, s_mat = Coxian(rates, probs).ph()
        exit_rates = -s_mat.sum(axis=1)
        p, m = len(rates), len(self.simpson)
        step = self.samples_max / self.grid_steps * s_mat.T  # H
        powers = np.array(list(accumulate([step] * 8, np.matmul, initial=np.eye(p))))
        inv_fact = 1.0 / np.array([math.factorial(j) for j in range(5)])
        q_rows = inv_fact[:, None] * (exit_rates @ powers[:5])  # s^T Q = sum u^j q_rows[j]
        squared = np.convolve(inv_fact, inv_fact)[:, None, None] * powers  # Q^2 likewise
        coeffs = np.zeros((9, 2 * p, 2 * p))  # [[Q^2, panel], [0, Q^2]] by u^k
        coeffs[:, :p, :p] = coeffs[:, p:, p:] = squared
        panel = coeffs[:, :p, p:]
        panel[:, 0, :] = exit_rates @ squared
        panel += squared[:, :, :1] * exit_rates
        for i in range(5):  # 4 (Q e_1)(s^T Q), with Q e_1 = sum_i u^i H^i e_1 / i!
            panel[i : i + 5] += 4.0 * inv_fact[i] * powers[i, :, :1] * q_rows[:, None, :]
        np.matmul(self.u_powers, coeffs.reshape(9, -1), out=self.blocks[0].reshape(m, -1))
        power = self._block_power(self.grid_steps // 2)

        a_end = power[:, :p, 0]  # a_K = alpha P^K
        density = a_end @ exit_rates
        # An RK4 step past the real-axis stability limit, or a negative density,
        # gives a NaN loglik, which makes EM restart.  Only densities that
        # underflow to zero are clamped.
        unstable = (
            max(rates) * self.samples_max / self.grid_steps > RK4_STABILITY_LIMIT
            or np.any(density < 0)
        )
        density = np.maximum(density, 1e-300)
        loglik = math.nan if unstable else float(np.log(density).sum())
        # Pair integrals int a_i(y) c_j(x - y) dy over samples, each with its
        # Simpson factor and density normalization, in units of max(x).
        weights = self.simpson / (density * self.samples_max)
        t = (weights @ power.reshape(m, -1)).reshape(2 * p, -1)[:p, p:]
        t = t * self.samples_max * self.samples_max  # the panel alone, back in time units
        occupancy = np.diagonal(t)
        forward_jumps = np.diagonal(t, 1) * np.diagonal(s_mat, 1)  # rate_i * prob_i
        exits = ((1.0 / density) @ a_end) * exit_rates
        return occupancy, forward_jumps, exits, loglik


def _initial_parameters(samples, phases, restart):
    mean = float(samples.mean())
    rates = np.full(phases, phases / mean)
    probs = np.full(max(phases - 1, 0), 0.5)
    if restart:
        # Deterministic perturbation so restarts explore different basins.
        rng = np.random.default_rng(restart)
        rates = rates * rng.uniform(0.5, 2.0, phases)
        probs = rng.uniform(0.2, 0.9, max(phases - 1, 0))
    return rates, probs


def canonical_coxian(cox):
    """Reorder a Coxian so its rates are nonincreasing, same distribution.

    Adjacent out-of-order phases are exchanged with the exact two-phase swap
    that preserves both the absorption and the continuation transforms.
    """
    rates = list(cox.rates)
    probs = list(cox.continue_probs) + [0.0]
    p = len(rates)
    changed = True
    while changed:
        changed = False
        for i in range(p - 1):
            l1, l2 = rates[i], rates[i + 1]
            if l1 >= l2 * (1 - 1e-15):
                continue
            x1, x2 = probs[i], probs[i + 1]
            y1 = 1.0 - l1 * (1.0 - x1) / l2
            y2 = x1 * x2 / y1 if y1 > 0 else 0.0
            rates[i], rates[i + 1] = l2, l1
            probs[i], probs[i + 1] = y1, y2
            changed = True
    return Coxian(tuple(rates), tuple(probs[:-1]))


def fit_ph_em(samples, phases, sample_count_before=None):
    """Fit a Coxian distribution to positive samples by EM.

    Stops when the log-likelihood gain drops below ``TOL`` (the report's
    ``converged`` is then true) or after ``MAX_ITERS`` iterations.  Non-finite
    likelihoods trigger deterministic re-initializations, up to
    ``MAX_RESTARTS``.  The E-step takes ``GRID_STEPS`` RK4 steps per sample.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise FitError("no samples to fit")
    if not np.all(np.isfinite(samples) & (samples > 0)):
        raise FitError("samples must be finite and positive")
    if phases < 1:
        raise FitError("need at least one phase")
    estep = _EStep(samples, phases, GRID_STEPS)
    before = sample_count_before if sample_count_before is not None else samples.size
    last_error = None
    for restart in range(MAX_RESTARTS + 1):
        rates, probs = _initial_parameters(samples, phases, restart)
        trace = []
        converged = False
        try:
            for _ in range(MAX_ITERS):
                occupancy, forward_jumps, exits, loglik = estep(rates, probs)
                if not math.isfinite(loglik):
                    raise FitError("non-finite log-likelihood")
                trace.append(loglik)
                if len(trace) > 1 and abs(trace[-1] - trace[-2]) < TOL:
                    converged = True
                    break
                total = np.append(forward_jumps, 0.0) + exits
                new_rates = total / np.maximum(occupancy, 1e-300)
                leave = total[:-1]  # jumps plus exits out of each non-final phase
                new_probs = np.divide(
                    forward_jumps, leave, out=np.zeros_like(leave), where=leave > 0
                )
                if not (np.all(np.isfinite(new_rates)) and np.all(new_rates > 0)):
                    raise FitError("degenerate M-step")
                rates, probs = new_rates, np.clip(new_probs, 0.0, 1.0)
        except FitError as exc:
            last_error = exc
            continue
        fitted = canonical_coxian(Coxian(tuple(rates), tuple(probs)))
        k = 2 * phases - 1
        loglik = trace[-1]
        return FitReport(
            fitted=fitted,
            log_likelihood_trace=trace,
            aic=2 * k - 2 * loglik,
            bic=k * math.log(samples.size) - 2 * loglik,
            sample_count_before=before,
            sample_count_after=int(samples.size),
            empirical_mean=float(samples.mean()),
            fitted_mean=float(fitted.mean()),
            phases=phases,
            converged=converged,
            restarts_used=restart,
        )
    raise FitError(f"EM failed after {MAX_RESTARTS} restarts: {last_error}")


def select_phases(samples, candidate_range, sample_count_before=None):
    """Fit every candidate phase count and keep the BIC minimizer.

    Ties go to the smaller model.  Individual fit failures are tolerated as
    long as at least one candidate succeeds.
    """
    candidates = list(candidate_range)
    if not candidates:
        raise FitError("empty candidate range")
    best = None
    errors = []
    for p in sorted(candidates):
        try:
            report = fit_ph_em(samples, p, sample_count_before)
        except FitError as exc:
            errors.append(f"{p} phases: {exc}")
            continue
        if best is None or report.bic < best.bic - 1e-9:
            best = report
    if best is None:
        raise FitError("all candidates failed: " + "; ".join(errors))
    return best


def coxian_pdf(cox, xs):
    """Density of a Coxian law on a grid (one stacked matrix exponential).

    The only user of SciPy in this module, so it imports ``expm`` here.
    """
    from scipy.linalg import expm

    _, s_mat = cox.ph()
    exit_rates = -s_mat.sum(axis=1)
    xs = np.asarray(xs, dtype=float)
    return expm(xs[:, None, None] * s_mat)[:, 0, :] @ exit_rates
