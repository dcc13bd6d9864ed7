"""Discrete-event ground truth for TTL cache trees with fetch delays.

Event semantics (the same sample-path rules the exact engine encodes):

* Each cache is absent, present (with a running TTL) or fetching.
* A request enters at its leaf and walks up the path.  The nearest present
  cache serves it (a system hit); every absent cache below the serving one
  starts a fetch.
* With no present cache on the path, the request flips the maximal run of
  consecutive absent caches starting at the leaf to fetching.  It counts as
  a system miss exactly when, after those flips, the whole path is fetching
  (the flipped run reaching the root is the origin fetch).
* A fetch completes its cache's own delay after the cache's parent admits;
  while the parent fetches, the child's delay clock is frozen and restarts
  on the parent's admission.  Serving or idle parents count as admitted.
* Admission draws a fresh TTL deadline, a hit refreshes it, and a climb
  finds a cache past it absent.  Pending fetches survive expiries above them.

Every leaf has one arrival source, an iterator of its request times: the
running sums of its sampled interarrival draws, or for :func:`simulate_trace`
the recorded timestamps in turn.  A run stops after a budget of requests,
of which a leading fraction warms the caches up and goes uncounted.

Deterministic distributions are allowed everywhere.  A replication draws
from one RNG stream: each TTL, delay and arrival law takes its draws a
block of 4,096 at a time (phase-type laws through the lockstep
:func:`ttldelay.distributions.sample_ph`) and refills at its first use
after its block runs out.  The events fix the order of those refills, so
identical (configuration, seed) pairs give bit-identical estimates.
"""

import heapq
import itertools
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from ttldelay.errors import ConfigError

ABSENT, PRESENT, FETCHING = 0, 1, 2

_ARRIVAL, _FETCH_DONE = 0, 1


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    Each replication serves ``requests`` requests and discards the first
    ``warmup_fraction`` of them before counting.  Replication r uses the
    stream derived from (seed, r).
    """

    spec: object
    requests: int
    warmup_fraction: float = 0.1
    seed: int = 0
    replications: int = 1

    def validate(self):
        _check_integer("request budget (requests)", self.requests, 1)
        if not (isinstance(self.warmup_fraction, numbers.Real) and 0 <= self.warmup_fraction < 1):
            raise ConfigError(f"warmup fraction must lie in [0, 1), got {self.warmup_fraction!r}")
        _check_integer("replications", self.replications, 1)
        _check_integer("seed", self.seed, 0)
        self.spec.validate(exact=False)
        return self


def _check_integer(name, value, least):
    if not isinstance(value, numbers.Integral) or value < least:
        kind = "positive" if least > 0 else "non-negative"
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")


@dataclass(frozen=True)
class SimEstimate:
    p_hit: float
    half_width_95: float
    request_count: int


def _draws(d, rng):
    """Draws of ``d`` as Python floats, a block of 4,096 from ``rng`` at the
    first use after the last block ran out.  Floats are made a short slice at
    a time, so a sampler holds its block as numpy, not as 4,096 Python floats."""
    while True:
        draws = d.sample(rng, 4096)
        for i in range(0, 4096, 256):
            yield from draws[i:i + 256].tolist()


class _Cache:
    """One cache's state.  ``parent`` is a weak proxy and the leaves' paths
    live in their arrival events, so a run holds no reference cycle and
    reference counting frees it, sample buffers and all, when it ends."""

    __slots__ = ("parent", "children", "ttl", "delay", "status", "version", "expires",
                 "__weakref__")

    def __init__(self, parent):
        self.parent = parent
        self.status = ABSENT
        self.version = 0


def _build(node, above, rng, arrivals):
    """The cache of ``node`` below the path ``above``; each leaf appends its
    path (itself, then its ancestors) and request times to ``arrivals``."""
    c = _Cache(weakref.proxy(above[0]) if above else None)
    c.ttl = _draws(node.ttl, rng)
    c.delay = _draws(node.delay, rng)
    path = (c, *above)
    c.children = [_build(child, path, rng, arrivals) for child in node.children]
    if not c.children:
        arrivals.append((path, itertools.accumulate(_draws(node.arrival, rng))))
    return c


class _Run:
    """One replication: a single-threaded event loop.

    The heap holds arrivals and fetch completions, tuples ``(time, seq, kind,
    cache, version)``; an arrival carries its leaf's path and request times
    in place of the last two.  A completion is stale once a freeze bumps its
    cache's version.  A TTL is the deadline ``cache.expires = (time, seq)``,
    read on a climb, so ties break as between heap events.
    ``times``, when given, replaces the leaves' sampled request times.
    """

    def __init__(self, spec, rng, times=None):
        self.heap = []
        self.seq = itertools.count()
        self.now = 0.0
        arrivals = []
        _build(spec.root, (), rng, arrivals)
        for path, source in arrivals:
            source = times or source
            heapq.heappush(self.heap, (next(source), next(self.seq), _ARRIVAL, path, source))

    def _start_fetch(self, c):
        # The clock runs unless the parent fetches.  Every fetching child's
        # clock ran under the absent ``c``; the new fetch freezes it.
        c.status = FETCHING
        if c.parent is None or c.parent.status != FETCHING:
            heapq.heappush(self.heap, (self.now + next(c.delay), next(self.seq),
                                       _FETCH_DONE, c, c.version))
        for child in c.children:
            if child.status == FETCHING:
                child.version += 1

    def _admit(self, c):
        # Every fetching child's clock was frozen under the fetching ``c``.
        c.status = PRESENT
        c.expires = (self.now + next(c.ttl), next(self.seq))
        for child in c.children:
            if child.status == FETCHING:
                heapq.heappush(self.heap, (self.now + next(child.delay), next(self.seq),
                                           _FETCH_DONE, child, child.version))

    def serve(self, requests, warmup_fraction):
        """Serve ``requests`` requests; return their batch tallies.

        Between requests, a completed fetch admits.  A request climbs the
        leading run of absent caches (a present cache past its deadline turns
        absent), each of which starts a fetch (top-down, so lower fetches pend
        directly).  The first non-absent cache stops it: a present cache
        serves it (hit, TTL refresh), a fetching cache absorbs it into the
        pending fetch.  It is a system miss exactly when everything from the
        stopper up is fetching -- in particular when the whole path was
        absent and the run reaches the origin.  The first ``warmup_fraction``
        of the requests are not counted; the rest are tallied as (misses,
        requests) per batch, a twentieth of them each.
        """
        warmup = int(requests * warmup_fraction)
        per_batch = max(1, (requests - warmup) // 20)
        heap, seq = self.heap, self.seq
        push, pop = heapq.heappush, heapq.heappop
        start_fetch, admit = self._start_fetch, self._admit
        tallies = []
        misses = counted = 0
        for observed in range(requests):
            time, order, kind, c, version = pop(heap)
            while kind != _ARRIVAL:
                if version == c.version:
                    self.now = time
                    admit(c)
                time, order, kind, c, version = pop(heap)
            path, source = c, version
            nxt = next(source, None)
            if nxt is not None:
                push(heap, (nxt, next(seq), _ARRIVAL, path, source))

            absent = 0
            for c in path:
                if c.status == PRESENT and c.expires < (time, order):
                    c.status = ABSENT
                elif c.status != ABSENT:
                    break
                absent += 1
            if absent:
                self.now = time
                for a in reversed(path[:absent]):
                    start_fetch(a)
            # ``c`` stopped the climb, or is the root it reached, now fetching.
            if c.status == PRESENT:
                c.expires = (time + next(c.ttl), next(seq))
                miss = False
            else:
                miss = all(c.status == FETCHING for c in path[absent:])

            if observed < warmup:
                continue
            misses += miss
            counted += 1
            if counted == per_batch:
                tallies.append((misses, counted))
                misses = counted = 0
        if counted:
            tallies.append((misses, counted))
        return tallies


def _confidence(batch_means):
    if len(batch_means) < 2:
        return 0.0
    return 1.96 * float(np.std(batch_means, ddof=1)) / math.sqrt(len(batch_means))


def _pooled(replications):
    """One estimate from the batch tallies of one or more replications."""
    batches = []
    for tallies in replications:
        if not tallies:
            raise ConfigError("no requests survived the warmup period")
        batches += tallies
    counted = sum(n for _, n in batches)
    p_hit = 1.0 - sum(m for m, _ in batches) / counted
    half = _confidence([1.0 - m / n for m, n in batches])
    return SimEstimate(p_hit, half, counted)


def simulate(cfg):
    """Estimate hit probabilities for a cache tree by discrete-event runs."""
    cfg.validate()
    return _pooled(
        _Run(cfg.spec, np.random.default_rng([cfg.seed, rep])).serve(
            cfg.requests, cfg.warmup_fraction
        )
        for rep in range(cfg.replications)
    )


def simulate_trace(timestamps, spec, seed=0, warmup_fraction=0.1):
    """Replay recorded request timestamps against a single cache.

    ``spec`` must be a single-cache tree; TTLs and delays are sampled, the
    arrival process is ignored in favour of the trace.  A replay is one
    replication whose request budget is the trace length.
    """
    timestamps = np.asarray(timestamps)
    if timestamps.ndim != 1 or timestamps.dtype.kind not in "iuf":
        raise ConfigError("trace timestamps must be a flat sequence of real numbers, got "
                          f"shape {timestamps.shape} of {timestamps.dtype}")
    timestamps = timestamps.astype(float, copy=False)
    if timestamps.size == 0:
        raise ConfigError("empty trace")
    if not np.all(np.isfinite(timestamps)):
        raise ConfigError("trace timestamps must be finite")
    if np.any(np.diff(timestamps) < 0):
        raise ConfigError("trace timestamps must be ascending")
    SimConfig(spec, timestamps.size, warmup_fraction, seed).validate()
    if not spec.root.is_leaf:
        raise ConfigError("trace replay requires a single-cache spec")
    run = _Run(spec, np.random.default_rng([seed, 0]), map(float, timestamps))
    return _pooled([run.serve(timestamps.size, warmup_fraction)])
