"""Performance metrics on top of the exact engine.

Includes the hit probability of a composed system MAP, the delay impairment
(relative hit-probability loss due to fetch delays), its closed form for the
all-exponential single cache, a Lambert-W primitive, and the delay bound
below which near-periodic request streams *gain* hit probability from a
fetch delay.
"""

import logging
import math

import numpy as np

from ttldelay.errors import DegenerateProcessError
from ttldelay.hierarchy import build_tree, delay_pencil
from ttldelay.map_algebra import event_rate
from ttldelay.spec import (  # noqa: F401  (re-exported)
    _max_tree_rate,
    with_delay_means,
    zero_delay_variant,
)

log = logging.getLogger(__name__)


def hit_probability(system, total_request_rate):
    """Object hit probability of a composed system MAP.

    ``total_request_rate`` is the summed arrival rate over all leaves; the
    active transitions of the system MAP are its misses.
    """
    if total_request_rate <= 0:
        raise DegenerateProcessError("total request rate must be positive")
    miss_rate = event_rate(system)
    p = 1.0 - miss_rate / total_request_rate
    if p < -1e-9 or p > 1 + 1e-9:
        log.warning("hit probability %.3e clamped into [0, 1]", p)
    return min(max(p, 0.0), 1.0)


def tree_hit_probability(spec, lump_per_level=True):
    system = build_tree(spec, lump_per_level=lump_per_level)
    return hit_probability(system, spec.total_request_rate())


def delay_impairment(spec, lump_per_level=True):
    """Relative hit-probability loss caused by the fetch delays in ``spec``."""
    pencil = delay_pencil(spec, lump_per_level=lump_per_level)
    total = spec.total_request_rate()
    p_delay = hit_probability(pencil.at(1.0), total)
    p_zero = hit_probability(pencil.limit(), total)
    if p_zero <= 0:
        raise DegenerateProcessError("zero-delay hit probability is zero")
    return 1.0 - p_delay / p_zero


def mmm_impairment_closed_form(tau_t, tau_delta):
    """Delay impairment of the all-exponential single cache."""
    if tau_t < 0 or tau_delta < 0:
        raise ValueError("tau ratios must be nonnegative")
    return tau_delta / (tau_t + tau_delta + 1.0)


def mmm_impairment_ttl_sensitivity(tau_t, tau_delta):
    """Rate of impairment change per unit of additional normalized TTL."""
    return -tau_delta / (tau_t + tau_delta + 1.0) ** 2


_BRANCH_POINT = -1.0 / math.e


def lambert_w(branch, x):
    """Real Lambert-W: solve w * exp(w) = x on branch 0 or -1.

    Halley iteration from a branch-appropriate starting point, at most 50
    steps, stopped once ``|w exp(w) - x| <= 1e-14 * |x|``, so tiny ``x`` keep
    their relative accuracy, or once a step is within four ulps of ``w``.
    For ``|w|`` above about 100 a double cannot reach that residual, and the
    iterate only steps between neighbouring floats.
    """
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if x < _BRANCH_POINT - 1e-15:
        raise ValueError(f"x={x} below the branch point -1/e")
    if branch == -1 and x >= 0:
        raise ValueError("branch -1 requires -1/e <= x < 0")

    p2 = 2.0 * (math.e * x + 1.0)
    if p2 <= 0.0:
        return -1.0
    s = math.sqrt(p2)
    if p2 < 1e-10:
        # Series around the branch point; Halley is ill-conditioned here.
        sgn = 1.0 if branch == 0 else -1.0
        return -1.0 + sgn * s - p2 / 6.0 + sgn * 11.0 * s * p2 / 144.0

    if branch == 0:
        if x > math.e:
            lx = math.log(x)
            w = lx - math.log(lx)
        elif x >= -0.25:
            # The branch-point series cancels as x -> 0; W0(x) ~ x there.
            w = x / (1.0 + x)
        else:
            w = -1.0 + s - p2 / 6.0 + 11.0 * s * p2 / 144.0
    else:
        if x < -0.25:
            w = -1.0 - s - p2 / 6.0 - 11.0 * s * p2 / 144.0
        else:
            lx = math.log(-x)
            w = lx - math.log(-lx)

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-14 * abs(x):
            break
        wp1 = w + 1.0
        if abs(wp1) < 1e-12:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        # Keep the iterate on its branch: bisect toward -1 on overshoot.
        new_w = w - step
        if (branch == 0 and new_w < -1.0) or (branch == -1 and new_w > -1.0):
            new_w = 0.5 * (w - 1.0)
        w = new_w
        if abs(step) <= 4.0 * math.ulp(w):
            break
    return w


def delay_upper_bound(tau_t):
    """Largest normalized delay that cannot hurt near-periodic request streams.

    Uses the negative branch for TTLs at least as long as the inter-request
    time and the principal branch otherwise, where the bound exceeds the TTL.
    """
    if not (math.isfinite(tau_t) and tau_t > 0):
        raise ValueError(f"tau_t must be finite and positive, got {tau_t}")
    h = -math.exp(-1.0 / tau_t) / tau_t
    w = lambert_w(-1 if tau_t >= 1.0 else 0, h)
    if w == 0.0 or math.isinf(-1.0 / w):
        raise ValueError(f"the delay bound for tau_t={tau_t} overflows a float")
    return -1.0 / w


def optimal_delay(p_hit_of_delay, lo, hi):
    """Locate the delay ratio maximizing a hit-probability curve.

    Coarse 81-point grid scan followed by golden-section refinement to a
    bracket of width 1e-3; no unimodality is assumed for the scan.  Returns
    ``(delta_star, p_max, kappa)`` with ``kappa = p(lo) / p(delta_star)``.
    """
    if hi <= lo:
        raise ValueError("empty search range")
    grid = np.linspace(lo, hi, 81)
    values = [p_hit_of_delay(g) for g in grid]
    k = int(np.argmax(values))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, grid.size - 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = p_hit_of_delay(c), p_hit_of_delay(d)
    while b - a > 1e-3:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = p_hit_of_delay(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = p_hit_of_delay(d)
    delta_star = 0.5 * (a + b)
    p_max = p_hit_of_delay(delta_star)
    if values[k] > p_max:
        delta_star, p_max = grid[k], values[k]
    return float(delta_star), float(p_max), float(values[0] / p_max)
