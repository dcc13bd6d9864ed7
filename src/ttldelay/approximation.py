"""Transform-domain approximations of single caches and hierarchies.

Every transform here is held as a phase-type triple ``(alpha, S, exit)`` and
evaluated as ``alpha (sI - S)^-1 exit`` (Bladt & Nielsen, *Matrix-Exponential
Distributions in Applied Probability*, Springer 2017).  The inter-miss time
of a single cache is phase-type when the request stream is phase-type and
the TTL exponential; the fetch delay enters as a convolution.  Hierarchies
are approximated bottom-up: each cache turns its input renewal process into
a miss process, sibling miss streams are superposed either as a Poisson
stream or as a moment-matched renewal stream, whose classes of equal
siblings are lumped by the exact engine's multiset kernel, and the
system-level hit probability follows from the root's output rate.

Every building block also takes stacks of laws, ``(alpha, S)`` arrays with
leading point axes, so :func:`hierarchy_approx` evaluates all points of a
delay sweep in one pass; a single law is the stack of one.  Past the leaves
a law is only its ``(alpha, S)`` arrays, and every input or miss-stream law
built here is checked, one stack per phase count, by
:func:`ttldelay.distributions.check_ph`.
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from ttldelay import distributions as dist
from ttldelay.errors import CapacityError, DegenerateProcessError
from ttldelay.spec import delay_rescaling, lumped_copies, partition_count

MAX_POOLED_PHASES = 7_000  # lumped phases of a pooled product: three N-by-N arrays, 1.2 GB
# Entries of a stacked matrix above which a sweep's points are split, 2 MB:
# a sweep then needs about the memory of its largest point alone.
STACKED_ENTRIES = 2**18
SWEEP_BLOCK = 256  # points of a sweep evaluated together


def _ph(d):
    """``(alpha, S)`` of a distribution; a pair of stacked arrays is its own."""
    return d if isinstance(d, tuple) else d.ph()


def _out(x):
    """A Python float for a single law, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _solve(a, b):
    """``np.linalg.solve(a, b)`` for stacked systems and right-hand vectors."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _dot(a, b):
    """``a @ b`` of vectors along the last axis.  C-contiguous operands make
    each one the BLAS dot of a single pair, bit for bit."""
    return np.vecdot(np.ascontiguousarray(a), np.ascontiguousarray(b))


@dataclass(frozen=True)
class PhTransform:
    """The transform ``alpha (sI - S)^-1 exit`` of a (possibly defective) PH
    law, or of a stack of them along the leading axes."""

    alpha: np.ndarray
    S: np.ndarray
    exit: np.ndarray

    def __call__(self, s):
        shifted = s * np.eye(self.alpha.shape[-1]) - self.S
        return _out(_dot(self.alpha, _solve(shifted, self.exit)))

    def at_zero(self):
        return self(0.0)

    def moments(self, count=3):
        """Raw moments k! alpha (-S)^-k 1; only meaningful for a proper law, ``exit = -S 1``."""
        v, out = np.ones(self.alpha.shape[-1]), []
        for k in range(1, count + 1):
            v = _solve(-self.S, v)
            out.append(_out(math.factorial(k) * _dot(self.alpha, v)))
        return tuple(out)

    def mean(self):
        return self.moments(1)[0]


def lst_of_ph(d):
    """Laplace-Stieltjes transform of a phase-type distribution, or of a stack
    of laws given as ``(alpha, S)`` arrays with leading point axes."""
    alpha, s = _ph(d)
    return PhTransform(alpha, s, -s.sum(axis=-1))


def lst_L(fx, lambda_t):
    """Transform of the joint law 'request arrives before the TTL expires'.

    For an exponential TTL this is the inter-request transform shifted by the
    TTL rate; its value at zero is the per-request hit probability q.
    """
    return PhTransform(fx.alpha, fx.S - lambda_t * np.eye(fx.alpha.shape[-1]), fx.exit)


def _in_series(alpha, a, b, c, exit):
    """The PH law that starts by ``alpha`` in the phases of ``a``, moves by
    ``b`` to those of ``c`` and leaves them by ``exit``: ``S = [[a, b], [0, c]]``.
    Leading axes broadcast."""
    n, m = a.shape[-1], c.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], c.shape[:-2])
    s = np.zeros((*lead, n + m, n + m))
    s[..., :n, :n] = a
    s[..., :n, n:] = b
    s[..., n:, n:] = c
    start, end = np.zeros((*lead, n + m)), np.zeros((*lead, n + m))
    start[..., :n] = alpha
    end[..., n:] = exit
    return PhTransform(start, s, end)


def miss_lst_no_delay(fx, l):
    """Inter-miss transform of a cache with zero fetch delay.

    ``(fx - l) / (1 - l)`` as a 2n-phase law: in the armed phases a request
    completion is a hit and restarts the inter-request time, TTL expiry
    moves to the disarmed copy, and the next completion there is the miss.
    """
    if np.any(l.at_zero() >= 1.0 - 1e-12):
        raise DegenerateProcessError("cache never misses (q = 1)")
    armed = l.S + l.exit[..., :, None] * l.alpha[..., None, :]
    return _in_series(fx.alpha, armed, fx.S - l.S, fx.S, fx.exit)


def miss_lst_with_delay(fx, l, fdelta):
    """Inter-miss transform with a random fetch delay: the miss law
    convolved with the delay's."""
    miss = miss_lst_no_delay(fx, l)
    fetch = miss.exit[..., :, None] * fdelta.alpha[..., None, :]
    return _in_series(miss.alpha, miss.S, fetch, fdelta.S, fdelta.exit)


def _kron(a, b, vectors=False):
    """``np.kron`` of two matrices, or of two vectors (``vectors``, or 1-d
    operands), over the last axes, the leading ones broadcast: one broadcast
    product, the same products without ``np.kron``'s per-call shape handling."""
    if vectors or a.ndim == 1:
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        return (a[..., :, None] * b[..., None, :]).reshape(*lead, -1)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*lead, m * p, n * q)


def expected_renewals_during_delay(x, delta):
    """Expected number of renewal arrivals within an independent PH delay.

    The count starts at a renewal epoch (the miss request).  Solved as the
    expected number of marked events of the product chain before the delay
    clock absorbs; exact, one linear solve.  Either law may be a stack.
    """
    alpha_x, s_x = _ph(x)
    alpha_d, s_d = _ph(delta)
    exit_x = -s_x.sum(axis=-1)
    generator_x = s_x + exit_x[..., :, None] * alpha_x[..., None, :]
    nx, nd = alpha_x.shape[-1], alpha_d.shape[-1]
    q = _kron(generator_x, np.eye(nd)) + _kron(np.eye(nx), s_d)
    reward = _kron(exit_x, np.ones(nd), vectors=True)
    start = _kron(alpha_x, alpha_d, vectors=True)
    return _out(_dot(start, _solve(-q, reward)))


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
    (all counted as misses) and a geometric run of hits.  ``x`` and ``delta``
    may be stacks of laws; a stacked ``x`` needs its ``input_rate``.
    """
    fx = lst_of_ph(x)
    q = fx(lambda_t)
    e_m = expected_renewals_during_delay(x, delta)
    rate = input_rate if input_rate is not None else 1.0 / x.mean()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e_n = np.where(q < 1.0, q / (1.0 - q), math.inf)
        cycle_requests = 1.0 + e_m + e_n
        p_hit = np.where(np.isfinite(e_n), e_n / cycle_requests, 1.0)
        miss_rate_out = rate * (1.0 + e_m) / cycle_requests
    return CacheApproxResult(*map(_out, (q, e_n, e_m, p_hit, miss_rate_out)))


def _run_key(component):
    """Components of equal key pool as one class, wherever they stand.
    Single laws are keyed by value; a stacked component joins only a repeat
    of itself, since the caller groups the points whose classes agree."""
    return id(component) if isinstance(component[1], tuple) else component


def superposed_palm_moments(components):
    """First three moments of the inter-event time of pooled stationary renewals.

    ``components`` is a list of ``(rate, distribution)`` pairs of total rate L,
    each law rescaled to mean 1 / rate.  The pooled stream's forward recurrence
    time R, the minimum of the stationary excess lifetimes, is PH, and Palm
    inversion (Baccelli & Brémaud 2003) gives ``E0[T^(k+1)] = (k+1) E[R^k] / L``.
    Over a class of n equal components, wherever they stand, it is PH on the
    multisets of their phases (:func:`ttldelay.spec.lumped_copies`) from the
    multinomial weights of the excess start vector beta; R is PH on the
    classes' product.  A component may stack points: rates as an array, the
    law as ``(alpha, S)`` arrays.
    """
    total_rate = sum(r for r, _ in components)
    keys = list(map(_run_key, components))
    runs = [(r, _ph(d), keys.count(k)) for k, (r, d) in dict(zip(keys, components)).items()]
    phases = math.prod(partition_count(alpha.shape[-1], n) for _, (alpha, _), n in runs)
    if phases > MAX_POOLED_PHASES:
        raise CapacityError(phases, MAX_POOLED_PHASES,
                            "too many lumped sibling phases to pool; try --strategy poisson")
    gamma = g = None
    for rate, (alpha, s), n in runs:
        excess = _solve(-np.swapaxes(s, -1, -2), alpha)  # alpha (-S)^-1; its sum is the mean
        mean = excess.sum(axis=-1, keepdims=True)
        beta, s = excess / mean, s * (mean[..., 0] * rate)[..., None, None]  # mean 1 / rate
        m = beta.shape[-1]
        moves = np.nonzero((s != 0).reshape(-1, m, m).any(axis=0))  # every point's moves
        blocks, [(rows, cols, rates)] = lumped_copies(m, n, (*moves, s[..., moves[0], moves[1]]))
        size = len(blocks)
        # Multinomial weights of beta; each prefix of the product is a probability.
        k = np.arange(1, n)
        j = np.maximum.accumulate(k * (blocks[:, 1:] != blocks[:, :-1]), axis=1)
        start = beta[..., blocks[:, 0]] * (beta[..., blocks[:, 1:]] * (k + 1) / (k - j + 1)).prod(-1)
        lead = rates.shape[:-1]
        cells = rows * size + cols + size * size * np.arange(math.prod(lead))[:, None]
        sub = np.bincount(cells.ravel(), rates.ravel(), len(cells) * size * size)
        sub = sub.reshape(*lead, size, size)
        gamma = start if gamma is None else _kron(gamma, start, vectors=True)
        g = sub if g is None else _kron(g, np.eye(size)) + _kron(np.eye(g.shape[-1]), sub)
    r1 = _solve(-g, np.ones(gamma.shape[-1]))  # E[R] = gamma r1
    r2 = _solve(-g, r1)  # E[R^2] = 2 gamma r2
    moments = 1.0 / total_rate, 2.0 * _dot(gamma, r1) / total_rate, 6.0 * _dot(gamma, r2) / total_rate
    return tuple(map(_out, moments))


def fit_ph_moments(m1, m2, m3):
    """Phase-type law of order <= 3 matching up to three moments.

    Returns ``(GeneralPH, note)`` where ``note`` is None for an exact
    three-moment match and a short description when a fallback reduced the
    match to two moments or projected m3 into the feasible region.  Raises
    ValueError for moments that are not positive or whose powers overflow.
    """
    law, note = _fit_moments(m1, m2, m3)
    return dist.GeneralPH(*law), note


def _fit_moments(m1, m2, m3):
    """:func:`fit_ph_moments`, with the law left as its unchecked
    ``(alpha, S)``: arrays or nested tuples."""
    if m1 <= 0 or m2 <= 0:
        raise ValueError("moments must be positive")
    try:
        cv2 = m2 / m1**2 - 1.0
        if abs(cv2 - 1.0) < 1e-9:
            note = None if abs(m3 - 6 * m1**3) < 1e-6 * m1**3 else "m3 ignored (exponential)"
            return dist.erlang_ph(1, 1.0 / m1), note
        if cv2 < 1.0 / 3.0:
            # An order-3 PH cannot reach cv^2 below 1/3.
            return dist.erlang_ph(3, 3.0 / m1), "cv^2 below 1/3: Erlang-3, mean-only match"
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
            return (alpha, s), "cv^2 in [1/3, 0.5): Erlang mixture, two-moment match"

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
        return (alpha, s), note
    except OverflowError as exc:
        raise ValueError(f"moments {m1:.3g}, {m2:.3g}, {m3:.3g} overflow the PH fit") from exc


def _checked(laws, means=None):
    """Each point's law as ``(alpha, S)`` arrays, from arrays or nested
    tuples, the laws of one phase count checked as one stack.  With
    ``means`` each law is first rescaled to ``means[k]`` by one factor on
    its S, which divides a PH law's mean by that factor."""
    out = [None] * len(laws)
    for n, points in _groups(len(alpha) for alpha, _ in laws).items():
        alpha = np.array([laws[k][0] for k in points], dtype=float)
        s = np.array([laws[k][1] for k in points], dtype=float)
        if means is not None:
            with np.errstate(invalid="ignore", over="ignore"):
                s = s * (_dot(alpha, _solve(-s, np.ones(n))) / means[points])[:, None, None]
        dist.check_ph(alpha, s)
        for k, a, sk in zip(points, alpha, s):
            out[k] = a, sk
    return out


def _poisson(rates):
    """Each point's exponential law of its rate, as ``(alpha, S)`` arrays."""
    return _checked(list(zip(*dist.erlang_ph(1, rates))))


def _stacked(laws):
    """``(alpha, S)`` of laws of one phase count, stacked along a point axis."""
    return np.stack([alpha for alpha, _ in laws]), np.stack([s for _, s in laws])


def _groups(keys):
    """The points of each distinct key, in order: ``{key: index array}``."""
    points = defaultdict(list)
    for k, key in enumerate(keys):
        points[key].append(k)
    return {key: np.array(ks) for key, ks in points.items()}


def _chunks(points, size):
    """``points`` in parts whose stacks of ``size``-by-``size`` matrices hold
    at most ``STACKED_ENTRIES`` entries, or one point each."""
    step = max(1, STACKED_ENTRIES // size**2)
    return [points[i:i + step] for i in range(0, len(points), step)]


class _Stream(NamedTuple):
    """A cache's miss stream at every point: rates and ``(alpha, S)`` laws."""

    rate: np.ndarray
    laws: list


def _fitted(moments, notes, prefix):
    """Each point's :func:`fit_ph_moments` law of its moments; fallback notes
    go to the point's ``notes``, after ``prefix``."""
    fits = []
    for k, m in enumerate(moments):
        law, note = _fit_moments(*m)
        if note:
            notes[k].append(prefix + note)
        fits.append(law)
    return _checked(fits)


def _pooled(streams, notes):
    """Each point's input law fitted to the Palm moments of its children's
    pooled miss streams; points whose classes of equal streams and phase
    counts agree share every stacked solve."""
    def equal(a, b):
        """Whether streams ``a`` and ``b`` have equal rate and law, point by point."""
        return np.ones(len(notes), bool) if a is b else np.array([s and all(
            map(np.array_equal, x, y)) for s, x, y in zip(a.rate == b.rate, a.laws, b.laws)])

    # Each stream's class at each point: the first stream of equal rate and law.
    labels = np.argmax([[equal(a, b) for a in streams] for b in streams], axis=1).T.tolist()
    keys = [(tuple(l), tuple(len(s.laws[k][0]) for s in streams)) for k, l in enumerate(labels)]
    moments = [None] * len(notes)
    for (point_labels, sizes), group in _groups(keys).items():
        classes = Counter(point_labels)  # each class's first stream: its size
        phases = math.prod(partition_count(sizes[i], n) for i, n in classes.items())
        for points in _chunks(group, phases):
            pooled = {i: (streams[i].rate[points], _stacked([streams[i].laws[k] for k in points]))
                      for i in classes}
            # Sorted labels list each class's members together, in class order.
            m1, m2, m3 = superposed_palm_moments([pooled[i] for i in sorted(point_labels)])
            for i, k in enumerate(points):
                moments[k] = float(m1[i]), m2[i], m3[i]
    return _fitted(moments, notes, ": ")


def _cache_approx(node, streams, delays, strategy):
    """One cache at every point: its results (arrays over the points), its
    miss stream and each point's fallback notes, from its children's streams
    and its fetch-delay law at each point."""
    notes = [[] for _ in delays]
    if node.is_leaf:
        inputs = [node.arrival.ph()] * len(delays)
        input_rate = np.full(len(delays), 1.0 / node.arrival.mean())
    else:
        input_rate = sum(stream.rate for stream in streams)
        if strategy == "poisson":
            inputs = _poisson(input_rate)
        elif len(streams) == 1:
            inputs = _checked(streams[0].laws, 1.0 / input_rate)  # scaled to the input rate
        else:
            inputs = _pooled(streams, notes)
    lambda_t = 1.0 / node.ttl.mean()
    columns = np.empty((5, len(delays)))
    moments = np.empty((3, len(delays)))
    groups = _groups((len(x[0]), len(d[0])) for x, d in zip(inputs, delays))
    for (n, m), group in groups.items():
        # The largest stacked matrices: the renewal count's and the miss law's.
        for points in _chunks(group, max(n * m, 2 * n + m)):
            x = _stacked([inputs[k] for k in points])
            delta = _stacked([delays[k] for k in points])
            result = hit_prob_single_approx(x, lambda_t, delta, input_rate=input_rate[points])
            columns[:, points] = list(vars(result).values())
            if strategy == "renewal":
                fx = lst_of_ph(x)
                miss = miss_lst_with_delay(fx, lst_L(fx, lambda_t), lst_of_ph(delta))
                moments[:, points] = miss.moments(3)
    result = CacheApproxResult(*columns)
    if strategy == "poisson":
        laws = _poisson(result.miss_rate_out)
    else:
        laws = _fitted(moments.T.tolist(), notes, " miss stream: ")
    return result, _Stream(result.miss_rate_out, laws), notes


@dataclass(frozen=True)
class HierarchyApproxResult:
    """System hit probability, per-cache results and fallback notes.

    Of a sweep, ``p_hit_sys`` and each per-cache field hold one value per
    delay mean; ``notes`` holds each point's notes and ``fallbacks`` all of
    them, point after point.
    """

    p_hit_sys: object
    per_cache: dict
    strategy: str
    notes: tuple

    @property
    def fallbacks(self):
        return tuple(chain.from_iterable(self.notes))


def hierarchy_approx(spec, strategy="renewal", delay_means=None):
    """Approximate system hit probability via per-cache renewal analysis.

    Each cache's miss stream is summarized by its output rate and, under the
    renewal strategy, a PH law fitted to three moments of the inter-miss
    transform; sibling streams pool into the parent's input.  The system hit
    probability compares the root's output rate against the total request
    rate entering the leaves.

    With ``delay_means`` every point of a delay sweep is evaluated in one
    pass: at point k each fetch delay is rescaled as by
    ``with_delay_means(spec, delay_means[k])``, and the points whose laws
    have equal phase counts share each stacked solve.  Without it the result
    is the tree's as configured, in Python floats.
    """
    if strategy not in ("renewal", "poisson"):
        raise ValueError(f"unknown strategy {strategy!r}")
    spec.validate(exact=True)
    if delay_means is None:
        p_hit_sys, per_cache, notes = _approx_points(spec, strategy, [lambda d: d])
        return HierarchyApproxResult(
            p_hit_sys=float(p_hit_sys[0]),
            per_cache={
                cache: CacheApproxResult(*(float(v[0]) for v in vars(result).values()))
                for cache, result in per_cache.items()
            },
            strategy=strategy,
            notes=(tuple(notes[0]),),
        )
    # A block of points holds every point's laws; bounding it bounds the
    # memory of a long sweep or of a delay law of many phases.
    widest = max(len(node.delay.ph()[0]) for node in spec.nodes())
    step = max(1, min(SWEEP_BLOCK, STACKED_ENTRIES // widest**2))
    p_hit_sys, per_cache, notes = zip(*(
        _approx_points(spec, strategy, [delay_rescaling(spec, m) for m in delay_means[i:i + step]])
        for i in range(0, len(delay_means), step)
    ))
    return HierarchyApproxResult(
        p_hit_sys=np.concatenate(p_hit_sys),
        per_cache={
            cache: CacheApproxResult(*map(np.concatenate, zip(
                *(vars(block[cache]).values() for block in per_cache))))
            for cache in per_cache[0]
        },
        strategy=strategy,
        notes=tuple(tuple(point) for block in notes for point in block),
    )


def _approx_points(spec, strategy, rescalings):
    """The system hit probability, per-cache results and notes at each point,
    whose fetch delays are ``rescale(delay)`` for one of ``rescalings``."""
    per_cache, notes, named = {}, [[] for _ in rescalings], {}
    by_shape, delays, streams = {}, {}, {}
    # Children first: ``nodes()`` lists each node before its children, the
    # last child first, so its reverse is the post-order.  Equal shapes give
    # equal results, so each shape is computed once.  (A recursive closure
    # would be a reference cycle, and every call's arrays would wait for the
    # cyclic garbage collector.)
    for node in reversed(list(spec.nodes())):
        shape = node.shape
        if shape not in by_shape:
            if node.delay not in delays:
                delays[node.delay] = [rescale(node.delay).ph() for rescale in rescalings]
            children = [streams[id(child)] for child in node.children]
            by_shape[shape] = _cache_approx(node, children, delays[node.delay], strategy)
        result, streams[id(node)], own = by_shape[shape]
        per_cache[node.id] = result
        for point, point_notes in zip(notes, own):  # each distinct note held once
            point.extend(named.setdefault((node.id, note), node.id + note) for note in point_notes)
    return 1.0 - streams[id(spec.root)].rate / spec.total_request_rate(), per_cache, notes
