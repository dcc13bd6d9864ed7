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

from ttldelay import distributions as dist
from ttldelay.errors import ConfigError

ABSENT, PRESENT, FETCHING = 0, 1, 2

_ARRIVAL, _EXPIRY, _FETCH_DONE = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    Either ``requests`` (total request budget) or ``time_horizon`` must be
    set.  ``warmup_fraction`` of the observed requests is discarded before
    counting.  Replication r uses the stream derived from (seed, r).
    """

    spec: object
    requests: int = 0
    time_horizon: float = 0.0
    warmup_fraction: float = 0.1
    seed: int = 0
    replications: int = 1

    def validate(self):
        if self.requests <= 0 and self.time_horizon <= 0:
            raise ConfigError("need a positive request budget or time horizon")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigError("warmup fraction must lie in [0, 1)")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        self.spec.validate(exact=False)
        return self


@dataclass(frozen=True)
class SimEstimate:
    p_hit: float
    half_width_95: float
    per_cache_hit_rates: dict
    origin_fetch_count: int
    request_count: int


class _Sampler:
    """Buffered draws from one distribution on one RNG stream."""

    def __init__(self, d, rng, block=4096):
        self.d = d
        self.rng = rng
        self.block = block
        self.buf = np.empty(0)
        self.pos = 0

    def __call__(self):
        if self.pos >= len(self.buf):
            self.buf = np.atleast_1d(self.d.sample(self.rng, self.block))
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return float(v)


class _Cache:
    __slots__ = (
        "id", "parent", "children", "ttl", "delay", "arrival",
        "status", "version", "timer_active", "leaf_index",
    )

    def __init__(self, node_id):
        self.id = node_id
        self.parent = None
        self.children = []
        self.status = ABSENT
        self.version = 0
        self.timer_active = False
        self.leaf_index = -1


def _build_caches(spec, rng):
    caches = {}

    def build(node, parent):
        c = _Cache(node.id)
        c.parent = parent
        c.ttl = _Sampler(node.ttl, rng)
        c.delay = _Sampler(node.delay, rng)
        c.arrival = _Sampler(node.arrival, rng) if node.arrival else None
        caches[node.id] = c
        for child in node.children:
            c.children.append(build(child, c))
        return c

    root = build(spec.root, None)
    leaves = [c for c in caches.values() if not c.children]
    for i, leaf in enumerate(leaves):
        leaf.leaf_index = i
    paths = {}
    for leaf in leaves:
        path = []
        c = leaf
        while c is not None:
            path.append(c)
            c = c.parent
        paths[leaf.id] = path
    return root, leaves, paths, caches


class _Run:
    """One replication: a single-threaded event loop."""

    def __init__(self, spec, rng, arrivals=None):
        self.root, self.leaves, self.paths, self.caches = _build_caches(spec, rng)
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.hits_at = {c: 0 for c in self.caches}
        self.origin_fetches = 0
        self.trace = arrivals  # replay mode: one leaf, fixed timestamps
        self.trace_pos = 0
        if arrivals is None:
            for leaf in self.leaves:
                self._push(leaf.arrival(), _ARRIVAL, leaf, 0)
        else:
            if len(self.leaves) != 1:
                raise ConfigError("trace replay requires a single-cache spec")
            self._push_next_trace_arrival()

    def _push(self, time, kind, cache, version):
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, kind, cache, version))

    def _push_next_trace_arrival(self):
        if self.trace_pos < len(self.trace):
            self._push(self.trace[self.trace_pos], _ARRIVAL, self.leaves[0], 0)
            self.trace_pos += 1

    def _start_fetch(self, c):
        c.status = FETCHING
        c.version += 1
        parent = c.parent
        if parent is not None and parent.status == FETCHING:
            c.timer_active = False
        else:
            c.timer_active = True
            self._push(self.now + c.delay(), _FETCH_DONE, c, c.version)
        # The new fetch freezes any running child fetches below it.
        for child in c.children:
            if child.status == FETCHING and child.timer_active:
                child.version += 1
                child.timer_active = False

    def _admit(self, c):
        c.status = PRESENT
        c.version += 1
        self._push(self.now + c.ttl(), _EXPIRY, c, c.version)
        for child in c.children:
            if child.status == FETCHING and not child.timer_active:
                child.timer_active = True
                child.version += 1
                self._push(self.now + child.delay(), _FETCH_DONE, child, child.version)

    def _refresh_ttl(self, c):
        c.version += 1
        self._push(self.now + c.ttl(), _EXPIRY, c, c.version)

    def handle_request(self, leaf):
        """Returns (is_miss, serving_cache_id or None).

        The request climbs the leading run of absent caches, each of which
        starts a fetch.  The first non-absent cache stops it: a present cache
        serves it (hit, TTL refresh), a fetching cache absorbs it into the
        pending fetch (no duplicate fetches above the gap).  It is a system
        miss exactly when everything from the stopper up is fetching -- in
        particular when the whole path was absent and the run reaches the
        origin.
        """
        path = self.paths[leaf.id]
        flipped = []
        for c in path:
            if c.status != ABSENT:
                break
            flipped.append(c)
        rest = path[len(flipped):]

        if flipped and flipped[-1] is self.root:
            self.origin_fetches += 1
        for c in reversed(flipped):  # top-down so lower fetches pend directly
            self._start_fetch(c)

        if not rest:
            return True, None
        stopper = rest[0]
        if stopper.status == PRESENT:
            self._refresh_ttl(stopper)
            return False, stopper.id
        return all(c.status == FETCHING for c in rest), None

    def next_request(self, horizon=math.inf):
        """Process events up to the next request and return its leaf.

        Returns None when the heap runs dry or once an event other than a
        request lands at or past ``horizon``.
        """
        heap = self.heap
        while heap:
            time, _, kind, cache, version = heapq.heappop(heap)
            self.now = time
            if kind == _ARRIVAL:
                if self.trace is None:
                    self._push(time + cache.arrival(), _ARRIVAL, cache, 0)
                else:
                    self._push_next_trace_arrival()
                return cache
            if version == cache.version:
                if kind == _EXPIRY:
                    cache.status = ABSENT
                else:
                    self._admit(cache)
            if time >= horizon:
                return None
        return None


def _confidence(batch_means):
    if len(batch_means) < 2:
        return 0.0
    return 1.96 * float(np.std(batch_means, ddof=1)) / math.sqrt(len(batch_means))


def _run_replication(run, requests, time_horizon, warmup_fraction, batches=20):
    """Drive ``run`` until its budget is spent; counts and batch tallies.

    A zero ``requests`` or ``time_horizon`` sets no limit of that kind.  The
    warmup is the first requests of a request budget, else the first stretch
    of the time horizon.
    """
    observed = counted = misses = 0
    hits_per_cache = {c: 0 for c in run.caches}
    budget = requests or math.inf
    horizon = time_horizon or math.inf
    warmup = int(requests * warmup_fraction) if requests else 0
    warmup_until = 0.0 if requests else warmup_fraction * time_horizon
    batch_miss, batch_n = [], []
    cur_miss = cur_n = 0
    per_batch = max(1, (requests - warmup) // batches) if requests else math.inf

    while observed < budget and run.now < horizon:
        leaf = run.next_request(horizon)
        if leaf is None:
            break
        observed += 1
        # Warmup requests drive the caches but are not counted.
        miss, serving = run.handle_request(leaf)
        if observed <= warmup or run.now < warmup_until:
            continue
        counted += 1
        cur_n += 1
        if miss:
            misses += 1
            cur_miss += 1
        elif serving is not None:
            hits_per_cache[serving] += 1
        if cur_n >= per_batch:
            batch_miss.append(cur_miss)
            batch_n.append(cur_n)
            cur_miss = cur_n = 0
    if cur_n:
        batch_miss.append(cur_miss)
        batch_n.append(cur_n)
    return counted, misses, hits_per_cache, run.origin_fetches, batch_miss, batch_n


def _pooled(replications):
    """One estimate from the tallies of one or more replications."""
    total_counted = 0
    total_miss = 0
    hits = None
    origin = 0
    batch_fracs = []
    for counted, misses, per_cache, origin_fetches, bm, bn in replications:
        if counted == 0:
            raise ConfigError("no requests survived the warmup period")
        total_counted += counted
        total_miss += misses
        origin += origin_fetches
        if hits is None:
            hits = dict(per_cache)
        else:
            for k, v in per_cache.items():
                hits[k] += v
        batch_fracs.extend(m / n for m, n in zip(bm, bn) if n)
    p_hit = 1.0 - total_miss / total_counted
    half = _confidence([1.0 - f for f in batch_fracs])
    rates = {k: v / total_counted for k, v in hits.items()}
    return SimEstimate(p_hit, half, rates, origin, total_counted)


def simulate(cfg):
    """Estimate hit probabilities for a cache tree by discrete-event runs."""
    cfg.validate()
    return _pooled(
        _run_replication(
            _Run(cfg.spec, np.random.default_rng([cfg.seed, rep])),
            cfg.requests,
            cfg.time_horizon,
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
    if np.any(np.diff(timestamps) < 0):
        raise ConfigError("trace timestamps must be ascending")
    spec.validate(exact=False)
    run = _Run(spec, np.random.default_rng([seed, 0]), arrivals=timestamps)
    return _pooled([_run_replication(run, timestamps.size, 0.0, warmup_fraction)])
