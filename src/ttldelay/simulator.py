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
* Admission draws a fresh TTL; expiry makes the cache absent; hits refresh
  the serving cache's TTL.  Pending fetches survive TTL events above them.

Every leaf has one arrival source, ``next_arrival(now)``: the leaf's sampled
arrival law, or for :func:`simulate_trace` the recorded timestamps in turn.
A run stops after a budget of requests, of which a leading fraction warms
the caches up and goes uncounted.

Deterministic distributions are allowed everywhere.  Identical
(configuration, seed) pairs give bit-identical estimates.  Coxian and
general phase-type draws are taken a block at a time by the lockstep
:func:`ttldelay.distributions.sample_ph`, which consumes the RNG stream
differently from the per-draw loop it replaced: on trees with such
distributions, estimates differ from that earlier sampler's within their
noise.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ttldelay.errors import ConfigError

ABSENT, PRESENT, FETCHING = 0, 1, 2

_ARRIVAL, _EXPIRY, _FETCH_DONE = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    Each replication serves ``requests`` requests and discards the first
    ``warmup_fraction`` of them before counting.  Replication r uses the
    stream derived from (seed, r).
    """

    spec: object
    requests: int = 0
    warmup_fraction: float = 0.1
    seed: int = 0
    replications: int = 1

    def validate(self):
        if self.requests <= 0:
            raise ConfigError("need a positive request budget")
        _check_warmup(self.warmup_fraction)
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        self.spec.validate(exact=False)
        return self


def _check_warmup(fraction):
    if not 0 <= fraction < 1:
        raise ConfigError("warmup fraction must lie in [0, 1)")


@dataclass(frozen=True)
class SimEstimate:
    p_hit: float
    half_width_95: float
    origin_fetch_count: int
    request_count: int


class _Sampler:
    """Buffered draws from one distribution on one RNG stream.

    Called with the current time, it returns that time plus the next draw.
    """

    def __init__(self, d, rng, block=4096):
        self.d = d
        self.rng = rng
        self.block = block
        self.buf = np.empty(0)
        self.pos = 0

    def __call__(self, now):
        if self.pos >= len(self.buf):
            self.buf = np.atleast_1d(self.d.sample(self.rng, self.block))
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return now + float(v)


class _Cache:
    __slots__ = (
        "parent", "children", "ttl", "delay", "next_arrival", "path",
        "status", "version", "timer_active",
    )

    def __init__(self, parent):
        self.parent = parent
        self.status = ABSENT
        self.version = 0
        self.timer_active = False


def _build_caches(spec, rng):
    """The leaves of ``spec``'s cache tree, in depth-first order.

    Each leaf carries its ``path``: itself, then its ancestors up to the root.
    """
    leaves = []

    def build(node, above):
        c = _Cache(above[0] if above else None)
        c.ttl = _Sampler(node.ttl, rng)
        c.delay = _Sampler(node.delay, rng)
        c.next_arrival = _Sampler(node.arrival, rng) if node.arrival else None
        path = (c, *above)
        c.children = [build(child, path) for child in node.children]
        if not c.children:
            c.path = path
            leaves.append(c)
        return c

    build(spec.root, ())
    return leaves


class _Run:
    """One replication: a single-threaded event loop.

    ``next_arrival``, when given, replaces the leaves' sampled arrival
    source; a source returns None once it has no further request.
    """

    def __init__(self, spec, rng, next_arrival=None):
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.origin_fetches = 0
        for leaf in _build_caches(spec, rng):
            leaf.next_arrival = next_arrival or leaf.next_arrival
            self._push(leaf.next_arrival(0.0), _ARRIVAL, leaf, 0)

    def _push(self, time, kind, cache, version):
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, kind, cache, version))

    def _start_fetch(self, c):
        c.status = FETCHING
        c.version += 1
        parent = c.parent
        if parent is not None and parent.status == FETCHING:
            c.timer_active = False
        else:
            c.timer_active = True
            self._push(c.delay(self.now), _FETCH_DONE, c, c.version)
        # The new fetch freezes any running child fetches below it.
        for child in c.children:
            if child.status == FETCHING and child.timer_active:
                child.version += 1
                child.timer_active = False

    def _admit(self, c):
        c.status = PRESENT
        c.version += 1
        self._push(c.ttl(self.now), _EXPIRY, c, c.version)
        for child in c.children:
            if child.status == FETCHING and not child.timer_active:
                child.timer_active = True
                child.version += 1
                self._push(child.delay(self.now), _FETCH_DONE, child, child.version)

    def _refresh_ttl(self, c):
        c.version += 1
        self._push(c.ttl(self.now), _EXPIRY, c, c.version)

    def handle_request(self, leaf):
        """Serve a request at ``leaf``; True when it is a system miss.

        The request climbs the leading run of absent caches, each of which
        starts a fetch.  The first non-absent cache stops it: a present cache
        serves it (hit, TTL refresh), a fetching cache absorbs it into the
        pending fetch (no duplicate fetches above the gap).  It is a system
        miss exactly when everything from the stopper up is fetching -- in
        particular when the whole path was absent and the run reaches the
        origin.
        """
        path = leaf.path
        flipped = []
        for c in path:
            if c.status != ABSENT:
                break
            flipped.append(c)
        rest = path[len(flipped):]

        for c in reversed(flipped):  # top-down so lower fetches pend directly
            self._start_fetch(c)

        if not rest:
            self.origin_fetches += 1
            return True
        stopper = rest[0]
        if stopper.status == PRESENT:
            self._refresh_ttl(stopper)
            return False
        return all(c.status == FETCHING for c in rest)

    def next_request(self):
        """Process events up to the next request and return its leaf."""
        heap = self.heap
        while True:
            time, _, kind, cache, version = heapq.heappop(heap)
            self.now = time
            if kind == _ARRIVAL:
                nxt = cache.next_arrival(time)
                if nxt is not None:
                    self._push(nxt, _ARRIVAL, cache, 0)
                return cache
            if version == cache.version:
                if kind == _EXPIRY:
                    cache.status = ABSENT
                else:
                    self._admit(cache)


def _confidence(batch_means):
    if len(batch_means) < 2:
        return 0.0
    return 1.96 * float(np.std(batch_means, ddof=1)) / math.sqrt(len(batch_means))


def _run_replication(run, requests, warmup_fraction, batches=20):
    """Serve ``requests`` requests on ``run``; its batch tallies and origin fetches.

    The first ``warmup_fraction`` of the requests drive the caches but are
    not counted.  The rest are tallied as (misses, requests) per batch.
    """
    warmup = int(requests * warmup_fraction)
    per_batch = max(1, (requests - warmup) // batches)
    tallies = []
    misses = counted = 0
    for observed in range(requests):
        miss = run.handle_request(run.next_request())
        if observed < warmup:
            continue
        misses += miss
        counted += 1
        if counted == per_batch:
            tallies.append((misses, counted))
            misses = counted = 0
    if counted:
        tallies.append((misses, counted))
    return tallies, run.origin_fetches


def _pooled(replications):
    """One estimate from the batch tallies of one or more replications."""
    batches = []
    origin = 0
    for tallies, origin_fetches in replications:
        if not tallies:
            raise ConfigError("no requests survived the warmup period")
        batches += tallies
        origin += origin_fetches
    counted = sum(n for _, n in batches)
    p_hit = 1.0 - sum(m for m, _ in batches) / counted
    half = _confidence([1.0 - m / n for m, n in batches])
    return SimEstimate(p_hit, half, origin, counted)


def simulate(cfg):
    """Estimate hit probabilities for a cache tree by discrete-event runs."""
    cfg.validate()
    return _pooled(
        _run_replication(
            _Run(cfg.spec, np.random.default_rng([cfg.seed, rep])),
            cfg.requests,
            cfg.warmup_fraction,
        )
        for rep in range(cfg.replications)
    )


def simulate_trace(timestamps, spec, seed=0, warmup_fraction=0.1):
    """Replay recorded request timestamps against a single cache.

    ``spec`` must be a single-cache tree; TTLs and delays are sampled, the
    arrival process is ignored in favour of the trace.  A replay is one
    replication whose request budget is the trace length.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    if timestamps.size == 0:
        raise ConfigError("empty trace")
    if not np.all(np.isfinite(timestamps)):
        raise ConfigError("trace timestamps must be finite")
    if np.any(np.diff(timestamps) < 0):
        raise ConfigError("trace timestamps must be ascending")
    _check_warmup(warmup_fraction)
    spec.validate(exact=False)
    if not spec.root.is_leaf:
        raise ConfigError("trace replay requires a single-cache spec")
    times = map(float, timestamps)
    run = _Run(spec, np.random.default_rng([seed, 0]), lambda now: next(times, None))
    return _pooled([_run_replication(run, timestamps.size, warmup_fraction)])
