"""Transform-domain approximations of single caches and hierarchies.

Every transform here is held as a phase-type triple ``(alpha, S, exit)`` and
evaluated as ``alpha (sI - S)^-1 exit`` (Bladt & Nielsen, *Matrix-Exponential
Distributions in Applied Probability*, Springer 2017).  The inter-miss time
of a single cache is phase-type when the request stream is phase-type and
the TTL exponential; the fetch delay enters as a convolution.  Hierarchies
are approximated bottom-up: each cache turns its input renewal process into
a miss process, sibling miss streams are superposed either as a Poisson
stream or as a moment-matched renewal stream, whose runs of equal siblings
are lumped by the exact engine's multiset kernel, and the system-level hit
probability follows from the root's output rate.
"""

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ttldelay import distributions as dist
from ttldelay.errors import CapacityError, DegenerateProcessError
from ttldelay.spec import lumped_copies, partition_count

MAX_POOLED_PHASES = 7_000  # lumped phases of a pooled product: three N-by-N arrays, 1.2 GB


@dataclass(frozen=True)
class PhTransform:
    """The transform ``alpha (sI - S)^-1 exit`` of a (possibly defective) PH law."""

    alpha: np.ndarray
    S: np.ndarray
    exit: np.ndarray

    def __call__(self, s):
        shifted = s * np.eye(len(self.alpha)) - self.S
        return float(self.alpha @ np.linalg.solve(shifted, self.exit))

    def at_zero(self):
        return self(0.0)

    def moments(self, count=3):
        """Raw moments k! alpha (-S)^-k 1; only meaningful for a proper law, ``exit = -S 1``."""
        v, out = np.ones(len(self.alpha)), []
        for k in range(1, count + 1):
            v = np.linalg.solve(-self.S, v)
            out.append(math.factorial(k) * float(self.alpha @ v))
        return tuple(out)

    def mean(self):
        return self.moments(1)[0]


def lst_of_ph(d):
    """Laplace-Stieltjes transform of a phase-type distribution."""
    alpha, s = d.ph()
    return PhTransform(alpha, s, -s.sum(axis=1))


def lst_L(fx, lambda_t):
    """Transform of the joint law 'request arrives before the TTL expires'.

    For an exponential TTL this is the inter-request transform shifted by the
    TTL rate; its value at zero is the per-request hit probability q.
    """
    return PhTransform(fx.alpha, fx.S - lambda_t * np.eye(len(fx.alpha)), fx.exit)


def miss_lst_no_delay(fx, l):
    """Inter-miss transform of a cache with zero fetch delay.

    ``(fx - l) / (1 - l)`` as a 2n-phase law: in the armed phases a request
    completion is a hit and restarts the inter-request time, TTL expiry
    moves to the disarmed copy, and the next completion there is the miss.
    """
    q = l.at_zero()
    if q >= 1.0 - 1e-12:
        raise DegenerateProcessError("cache never misses (q = 1)")
    n = len(fx.alpha)
    s = np.zeros((2 * n, 2 * n))
    s[:n, :n] = l.S + np.outer(l.exit, l.alpha)
    s[:n, n:] = fx.S - l.S
    s[n:, n:] = fx.S
    return PhTransform(
        np.concatenate([fx.alpha, np.zeros(n)]), s,
        np.concatenate([np.zeros(n), fx.exit]),
    )


def miss_lst_with_delay(fx, l, fdelta):
    """Inter-miss transform with a random fetch delay: the miss law
    convolved with the delay's."""
    miss = miss_lst_no_delay(fx, l)
    n, m = len(miss.alpha), len(fdelta.alpha)
    s = np.zeros((n + m, n + m))
    s[:n, :n] = miss.S
    s[:n, n:] = np.outer(miss.exit, fdelta.alpha)
    s[n:, n:] = fdelta.S
    return PhTransform(
        np.concatenate([miss.alpha, np.zeros(m)]), s,
        np.concatenate([np.zeros(n), fdelta.exit]),
    )


def _kron(a, b):
    """``np.kron`` of two 1-d or two 2-d arrays, as one broadcast product:
    the same products without its per-call shape handling."""
    if a.ndim == 1:
        return (a[:, None] * b).ravel()
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[:, None, :]).reshape(m * p, n * q)


def expected_renewals_during_delay(x, delta):
    """Expected number of renewal arrivals within an independent PH delay.

    The count starts at a renewal epoch (the miss request).  Solved as the
    expected number of marked events of the product chain before the delay
    clock absorbs; exact, one linear solve.
    """
    alpha_x, s_x = x.ph()
    alpha_d, s_d = delta.ph()
    exit_x = -s_x.sum(axis=1)
    generator_x = s_x + np.outer(exit_x, alpha_x)
    nx, nd = len(alpha_x), len(alpha_d)
    q = _kron(generator_x, np.eye(nd)) + _kron(np.eye(nx), s_d)
    reward = _kron(exit_x, np.ones(nd))
    start = _kron(alpha_x, alpha_d)
    return float(start @ np.linalg.solve(-q, reward))


@dataclass(frozen=True)
class CacheApproxResult:
    """Per-cache quantities of the renewal approximation."""

    q: float  # P(inter-request time < TTL)
    expected_hits_between_misses: float
    expected_requests_during_delay: float
    p_hit: float
    miss_rate_out: float


def hit_prob_single_approx(x, lambda_t, delta, input_rate=None):
    """Single-cache hit probability from hit runs and in-fetch arrivals.

    A cycle consists of the triggering miss, the arrivals during the fetch
    (all counted as misses) and a geometric run of hits.
    """
    fx = lst_of_ph(x)
    q = float(fx(lambda_t))
    e_n = q / (1.0 - q) if q < 1.0 else math.inf
    e_m = expected_renewals_during_delay(x, delta)
    p_hit = e_n / (1.0 + e_m + e_n) if math.isfinite(e_n) else 1.0
    rate = input_rate if input_rate is not None else 1.0 / x.mean()
    cycle_requests = 1.0 + e_m + e_n
    miss_rate_out = rate * (1.0 + e_m) / cycle_requests
    return CacheApproxResult(q, e_n, e_m, p_hit, miss_rate_out)


def superposed_palm_moments(components):
    """First three moments of the inter-event time of pooled stationary renewals.

    ``components`` is a list of ``(rate, distribution)`` pairs of total rate L,
    each law rescaled to mean 1 / rate.  The pooled stream's forward recurrence
    time R, the minimum of the stationary excess lifetimes, is PH, and Palm
    inversion (Baccelli & Brémaud 2003) gives ``E0[T^(k+1)] = (k+1) E[R^k] / L``.
    Over a run of n equal components it is PH on the multisets of their phases
    (:func:`ttldelay.spec.lumped_copies`) from the multinomial weights of the
    excess start vector beta; R is PH on the runs' product.
    """
    total_rate = sum(r for r, _ in components)
    runs = [(rate, d.ph(), len(list(run))) for (rate, d), run in groupby(components)]
    phases = math.prod(partition_count(len(alpha), n) for _, (alpha, _), n in runs)
    if phases > MAX_POOLED_PHASES:
        raise CapacityError(phases, MAX_POOLED_PHASES,
                            "too many lumped sibling phases to pool; try --strategy poisson")
    gamma = g = None
    for rate, (alpha, s), n in runs:
        excess = np.linalg.solve(-s.T, alpha)  # alpha (-S)^-1; its sum is the mean
        beta, s = excess / excess.sum(), s * (excess.sum() * rate)  # mean 1 / rate
        moves = s.nonzero()
        blocks, [(rows, cols, rates)] = lumped_copies(len(beta), n, (*moves, s[moves]))
        size = len(blocks)
        # Multinomial weights of beta; each prefix of the product is a probability.
        k = np.arange(1, n)
        j = np.maximum.accumulate(k * (blocks[:, 1:] != blocks[:, :-1]), axis=1)
        start = beta[blocks[:, 0]] * (beta[blocks[:, 1:]] * (k + 1) / (k - j + 1)).prod(1)
        sub = np.bincount(rows * size + cols, rates, size * size).reshape(size, size)
        gamma = start if gamma is None else _kron(gamma, start)
        g = sub if g is None else _kron(g, np.eye(size)) + _kron(np.eye(len(g)), sub)
    r1 = np.linalg.solve(-g, np.ones(len(gamma)))  # E[R] = gamma r1
    r2 = np.linalg.solve(-g, r1)  # E[R^2] = 2 gamma r2
    return 1.0 / total_rate, 2.0 * (gamma @ r1) / total_rate, 6.0 * (gamma @ r2) / total_rate


def fit_ph_moments(m1, m2, m3):
    """Phase-type law of order <= 3 matching up to three moments.

    Returns ``(distribution, note)`` where ``note`` is None for an exact
    three-moment match and a short description when a fallback reduced the
    match to two moments or projected m3 into the feasible region.  Raises
    ValueError for moments that are not positive or whose powers overflow.
    """
    if m1 <= 0 or m2 <= 0:
        raise ValueError("moments must be positive")
    try:
        cv2 = m2 / m1**2 - 1.0
        if abs(cv2 - 1.0) < 1e-9:
            note = None if abs(m3 - 6 * m1**3) < 1e-6 * m1**3 else "m3 ignored (exponential)"
            return dist.Exponential(1.0 / m1), note
        if cv2 < 1.0 / 3.0:
            # An order-3 PH cannot reach cv^2 below 1/3.
            return dist.Erlang(3, 3.0 / m1), "cv^2 below 1/3: Erlang-3, mean-only match"
        if cv2 < 0.5:
            # Mixed Erlang(2)/Erlang(3) on a common rate: two-moment match
            # (Tijms' E_{k-1,k} recipe with k = 3).
            k = 3
            p = (k * cv2 - math.sqrt(k * (1 + cv2) - k * k * cv2)) / (1 + cv2)
            p = min(max(p, 0.0), 1.0)
            rate = (k - p) / m1
            alpha = (1.0, 0.0, 0.0)
            s = (
                (-rate, rate, 0.0),
                (0.0, -rate, (1.0 - p) * rate),
                (0.0, 0.0, -rate),
            )
            return (
                dist.GeneralPH(alpha, s),
                "cv^2 in [1/3, 0.5): Erlang mixture, two-moment match",
            )

        # Acyclic PH(2): exact three-moment match inside the feasible region.
        note = None
        if cv2 <= 1.0:
            lower = 3 * m1**3 * (3 * cv2 - 1 + math.sqrt(2) * (1 - cv2) ** 1.5)
            upper = 6 * m1**3 * cv2
        else:
            lower = 1.5 * m1**3 * (1 + cv2) ** 2
            upper = math.inf
        eps = 1e-9 * m1**3
        if not lower - eps <= m3 <= upper + eps:
            m3 = lower * 10.0 / 9.0 if cv2 > 1.0 else 0.5 * (lower + upper)
            note = "m3 projected into the PH(2) feasible region"
        else:
            m3 = min(max(m3, lower), upper)
        d = 2 * m1**2 - m2
        c = 3 * m2**2 - 2 * m1 * m3
        b = 3 * m1 * m2 - m3
        disc = max(b * b - 6 * c * d, 0.0)
        a = math.sqrt(disc)
        if c > 0:
            p = (-b + 6 * m1 * d + a) / (b + a)
            l1, l2 = (b - a) / c, (b + a) / c
        elif c < 0:
            p = (b - 6 * m1 * d + a) / (-b + a)
            l1, l2 = (b + a) / c, (b - a) / c
        else:
            p, l1, l2 = 0.0, 1.0 / m1, 1.0 / m1
        p = min(max(p, 0.0), 1.0)
        alpha = (p, 1.0 - p)
        s = ((-l1, l1), (0.0, -l2))
        return dist.GeneralPH(alpha, s), note
    except OverflowError as exc:
        raise ValueError(f"moments {m1:.3g}, {m2:.3g}, {m3:.3g} overflow the PH fit") from exc


@dataclass(frozen=True)
class HierarchyApproxResult:
    p_hit_sys: float
    per_cache: dict
    strategy: str
    fallbacks: tuple


def hierarchy_approx(spec, strategy="renewal"):
    """Approximate system hit probability via per-cache renewal analysis.

    Each cache's miss stream is summarized by its output rate and, under the
    renewal strategy, a PH law fitted to three moments of the inter-miss
    transform; sibling streams pool into the parent's input.  The system hit
    probability compares the root's output rate against the total request
    rate entering the leaves.
    """
    if strategy not in ("renewal", "poisson"):
        raise ValueError(f"unknown strategy {strategy!r}")
    spec.validate(exact=True)
    per_cache = {}
    fallbacks = []
    by_shape = {}

    def cache_approx(node, streams):
        """One cache's result, miss stream and fallback notes (each suffixed
        to the cache id), from the miss streams of its children."""
        notes = []
        if node.is_leaf:
            input_dist = node.arrival
            input_rate = 1.0 / node.arrival.mean()
        else:
            input_rate = sum(rate for _, rate in streams)
            if strategy == "poisson":
                input_dist = dist.Exponential(input_rate)
            elif len(streams) == 1:
                input_dist = streams[0][0].scaled_to_mean(1.0 / input_rate)
            else:
                m1, m2, m3 = superposed_palm_moments([(rate, d) for d, rate in streams])
                input_dist, note = fit_ph_moments(m1, m2, m3)
                if note:
                    notes.append(f": {note}")
        lambda_t = 1.0 / node.ttl.mean()
        result = hit_prob_single_approx(
            input_dist, lambda_t, node.delay, input_rate=input_rate
        )
        if strategy == "poisson":
            miss_dist = dist.Exponential(result.miss_rate_out)
        else:
            fx = lst_of_ph(input_dist)
            miss = miss_lst_with_delay(fx, lst_L(fx, lambda_t), lst_of_ph(node.delay))
            miss_dist, note = fit_ph_moments(*miss.moments(3))
            if note:
                notes.append(f" miss stream: {note}")
        return result, (miss_dist, result.miss_rate_out), notes

    def analyze(node):
        """Record ``node`` and its subtree, children first, in ``per_cache``
        and ``fallbacks``; return its miss stream ``(miss_dist, rate)``.
        Equal shapes give equal results, so each shape is computed once."""
        streams = [analyze(child) for child in node.children]
        shape = node.shape
        if shape not in by_shape:
            by_shape[shape] = cache_approx(node, streams)
        result, stream, notes = by_shape[shape]
        per_cache[node.id] = result
        fallbacks.extend(node.id + note for note in notes)
        return stream

    _, root_out = analyze(spec.root)
    total = spec.total_request_rate()
    return HierarchyApproxResult(
        p_hit_sys=1.0 - root_out / total,
        per_cache=per_cache,
        strategy=strategy,
        fallbacks=tuple(fallbacks),
    )
