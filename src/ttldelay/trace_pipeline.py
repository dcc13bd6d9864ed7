"""Trace-to-model pipeline: inter-request extraction, outlier removal,
Coxian phase-type fitting by expectation maximization, and phase-count
selection by information criteria.

The E-step discretizes the forward and backward filters of the absorbing
Markov chain with ``grid_steps`` fourth-order Runge-Kutta steps per sample
and folds them into the occupancy/jump integrals with composite Simpson
quadrature, in closed form.  One RK4 step is a fixed quartic in the
subgenerator, so the step matrices of all samples are one GEMM of their step
powers with the five fixed powers of S, and the Simpson panel is rank one.
The Simpson-weighted sums of trajectory products are one block of a
block-triangular matrix power (Van Loan, IEEE TAC 1978), taken by repeated
squaring over all samples at once.
"""

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ttldelay.distributions import Coxian
from ttldelay.errors import FitError

log = logging.getLogger(__name__)

BOXCOX_GRID = tuple(np.arange(-2.0, 2.01, 0.5))
# RK4 is stable for h * rate up to this bound on the negative real axis; the
# eigenvalues of a Coxian subgenerator are its negated rates.
RK4_STABILITY_LIMIT = 2.785


def interarrivals(timestamps):
    """First differences of an ascending timestamp sequence."""
    t = np.asarray(timestamps, dtype=float)
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

    The transform exponent is picked from a fixed grid by maximizing the
    normal log-likelihood of the transformed samples (including the Jacobian
    term).  Zero samples are offset by a millionth of the smallest positive
    sample so the transform is defined.
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("empty sample set")
    if np.any(s == 0):
        positive = s[s > 0]
        if positive.size == 0:
            return s
        offset = positive.min() * 1e-6
        log.info("offsetting %d zero gaps by %.3e", int((s == 0).sum()), offset)
        s = np.where(s == 0, offset, s)

    log_s = np.log(s)
    best_lam, best_ll = None, -np.inf
    for lam in BOXCOX_GRID:
        y = _boxcox(s, lam)
        var = y.var()
        if var <= 0:
            continue
        ll = -0.5 * s.size * math.log(var) + (lam - 1.0) * log_s.sum()
        if ll > best_ll:
            best_lam, best_ll = lam, ll
    if best_lam is None:
        return s
    y = _boxcox(s, best_lam)
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


def _block_power(q, x, n):
    """``Q^n`` and ``sum_{k<n} Q^k X Q^(n-1-k)`` for stacked ``(m, p, p)`` Q, X.

    Both are blocks of ``[[Q, X], [0, Q]]^n``, taken by binary exponentiation.
    """
    m, p, _ = q.shape
    block = np.zeros((m, 2 * p, 2 * p))
    block[:, :p, :p] = q
    block[:, p:, p:] = q
    block[:, :p, p:] = x
    power = None
    while True:
        if n & 1:
            power = block if power is None else power @ block
        n >>= 1
        if not n:
            return power[:, :p, :p], power[:, :p, p:]
        block = block @ block


def _estep(samples, rates, probs, grid_steps):
    """Expected occupancy, forward-jump and exit statistics plus loglik.

    With step ``h = x / K`` (``K = grid_steps``), RK4 on ``v' = v S`` is
    ``v <- v P`` for ``P = sum_{j<=4} (hS)^j / j!``, so the forward filter is
    ``a_k = alpha P^k`` and the backward filter ``c_k = P^(K-k) s``.  With
    ``Q = P^T`` and ``X = e_1 s^T``, each ``a_k^T c_k^T`` is ``Q^k X Q^(K-k)``,
    so the Simpson sum with weights 1, 4, 2, ..., 4, 1, grouped into K/2
    panels, is ``sum_j Q^2j (X Q^2 + 4 Q X Q + Q^2 X) Q^(K-2-2j)``.  Each Q is
    ``sum_j h^j (S^T)^j / j!``: one GEMM for all samples.  X has rank one, so
    the panel is ``e_1 (s^T Q^2) + 4 (Q e_1)(s^T Q) + (Q^2 e_1) s^T``.
    """
    _, s_mat = Coxian(rates, probs).ph()
    exit_rates = -s_mat.sum(axis=1)
    taylor = [np.linalg.matrix_power(s_mat.T, j) / math.factorial(j) for j in range(5)]
    h_powers = np.vander(samples / grid_steps, 5, increasing=True)  # h^j per sample
    q = (h_powers @ np.reshape(taylor, (5, -1))).reshape(-1, *s_mat.shape)
    q2 = q @ q
    s_q = np.tensordot(q, exit_rates, axes=(1, 0))  # s^T Q per sample
    panel = 4.0 * q[:, :, :1] * s_q[:, None, :] + q2[:, :, :1] * exit_rates
    panel[:, 0, :] += np.tensordot(q2, exit_rates, axes=(1, 0))
    q_end, pair_sums = _block_power(q2, panel, grid_steps // 2)

    a_end = q_end[:, :, 0]  # a_K = alpha P^K
    density = a_end @ exit_rates
    # An RK4 step past the real-axis stability limit, or a negative density,
    # gives a NaN loglik, which makes EM restart.  Only densities that
    # underflow to zero are clamped.
    unstable = (
        max(rates) * samples.max() / grid_steps > RK4_STABILITY_LIMIT
        or np.any(density < 0)
    )
    density = np.maximum(density, 1e-300)
    loglik = math.nan if unstable else float(np.log(density).sum())
    # Pair integrals int a_i(u) c_j(x - u) du over samples, each with its
    # Simpson factor h/3 and density normalization.
    t = np.einsum("mij,m->ij", pair_sums, samples / (3.0 * grid_steps) / density)
    occupancy = np.diagonal(t)
    forward_jumps = np.diagonal(t, 1) * np.diagonal(s_mat, 1)  # rate_i * prob_i
    exits = (a_end / density[:, None]).sum(axis=0) * exit_rates
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
            if l1 >= l2 - 1e-15:
                continue
            x1, x2 = probs[i], probs[i + 1]
            y1 = 1.0 - l1 * (1.0 - x1) / l2
            y2 = x1 * x2 / y1 if y1 > 0 else 0.0
            rates[i], rates[i + 1] = l2, l1
            probs[i], probs[i + 1] = y1, y2
            changed = True
    return Coxian(tuple(rates), tuple(probs[:-1]))


def fit_ph_em(
    samples,
    phases,
    max_iters=500,
    tol=1e-7,
    grid_steps=96,
    max_restarts=5,
    sample_count_before=None,
):
    """Fit a Coxian distribution to positive samples by EM.

    Stops when the log-likelihood gain drops below ``tol`` (the report's
    ``converged`` is then true) or after ``max_iters`` iterations.  Non-finite
    likelihoods trigger deterministic re-initializations, up to
    ``max_restarts``.  ``grid_steps`` is the even number (at least 2) of RK4
    steps per sample that discretize the E-step integrals; Simpson's rule
    needs an even count.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise FitError("no samples to fit")
    if np.any(samples <= 0):
        raise FitError("samples must be positive")
    if phases < 1:
        raise FitError("need at least one phase")
    for name, value, least in (
        ("max_iters", max_iters, 1),
        ("max_restarts", max_restarts, 0),
        ("grid_steps", grid_steps, 2),
    ):
        if not isinstance(value, numbers.Integral) or value < least:
            raise FitError(f"{name} must be an integer >= {least}, got {value!r}")
    if grid_steps % 2:
        raise FitError(f"grid_steps must be even, got {grid_steps!r}")

    before = sample_count_before if sample_count_before is not None else samples.size
    last_error = None
    for restart in range(max_restarts + 1):
        rates, probs = _initial_parameters(samples, phases, restart)
        trace = []
        converged = False
        try:
            for _ in range(max_iters):
                occupancy, forward_jumps, exits, loglik = _estep(
                    samples, rates, probs, grid_steps
                )
                if not math.isfinite(loglik):
                    raise FitError("non-finite log-likelihood")
                trace.append(loglik)
                if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
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
    raise FitError(f"EM failed after {max_restarts} restarts: {last_error}")


def select_phases(samples, candidate_range, **fit_kwargs):
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
            report = fit_ph_em(samples, p, **fit_kwargs)
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
