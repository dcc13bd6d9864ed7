"""Constructors for single-cache MAPs and the cache-tree specification.

A cache's life cycle for one object has states ``Out``, ``In`` and, while a
miss is being resolved, a block of fetching states ``F_1 .. F_f`` driven by
the fetch-delay distribution.  Fetch phases count down: a miss enters at
``F_f`` and the object is admitted from ``F_1``.  For delay distributions
whose entry is spread over several phases (general PH initial vectors), the
miss transition is split proportionally.

Active transitions denote misses.  Under exponential TTLs a hit needs no
transition of its own: the refreshed TTL is statistically indistinguishable
from the running one, so hits only show up as arrival-phase resets.
"""

import math
from dataclasses import dataclass

import numpy as np

from ttldelay import distributions as dist
from ttldelay.errors import ConfigError, UnsupportedDistributionError
from ttldelay.map_algebra import (
    IN,
    OUT,
    LabeledMap,
    StateLabel,
    arrival_node,
    cache_node,
    fetch,
)


@dataclass(frozen=True)
class CacheNode:
    """One cache in the hierarchy.

    ``delay`` is the fetch delay over the link above this cache (to its
    parent, or to the origin server for the root).  Leaves carry the arrival
    process of the request stream entering at that cache.
    """

    id: str
    ttl: object
    delay: object
    children: tuple = ()
    arrival: object = None

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self):
        return not self.children

    @property
    def shape(self):
        """The node's spec without its cache ids: equal shapes build equal
        MAPs and equal approximations."""
        return (self.ttl, self.delay, self.arrival,
                tuple(child.shape for child in self.children))


@dataclass(frozen=True)
class CacheTreeSpec:
    """A rooted cache tree; requests enter at leaves and escalate upward."""

    root: CacheNode

    def nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def leaves(self):
        return [n for n in self.nodes() if n.is_leaf]

    def state_count(self):
        """Size of the unlumped product space, before invalid-state removal."""
        return math.prod(map(cache_state_count, self.nodes()))

    def total_request_rate(self):
        return sum(1.0 / leaf.arrival.mean() for leaf in self.leaves())

    def validate(self, exact=True):
        """Raise ``ConfigError`` when the spec is malformed.

        With ``exact=True`` the requirements of the MAP engine apply:
        exponential TTLs everywhere and no deterministic distributions.
        """
        ids = [n.id for n in self.nodes()]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate cache ids in tree: {sorted(ids)}")
        for node in self.nodes():
            if node.is_leaf and node.arrival is None:
                raise ConfigError(f"leaf cache {node.id!r} has no arrival process")
            if not node.is_leaf and node.arrival is not None:
                raise ConfigError(f"inner cache {node.id!r} must not carry arrivals")
            for name, d in (("ttl", node.ttl), ("delay", node.delay),
                            ("arrival", node.arrival)):
                if d is None:
                    if name != "arrival":
                        raise ConfigError(f"cache {node.id!r} lacks a {name}")
                    continue
                if exact and isinstance(d, dist.Deterministic):
                    raise ConfigError(
                        f"{name} of cache {node.id!r} is deterministic; the exact "
                        "engine requires phase-type distributions (simulator only)"
                    )
            if exact and not isinstance(node.ttl, dist.Exponential):
                raise ConfigError(
                    f"TTL of cache {node.id!r} must be exponential for the exact engine"
                )
        return self


def cache_state_count(node):
    """States of one cache's own MAP: (Out, In, F_1..F_f) x arrival phases."""
    states = 2 + len(node.delay.ph()[0])
    if node.arrival is not None:
        states *= len(node.arrival.ph()[0])
    return states


def _reversed_ph(d):
    """PH representation with phases renumbered so the entry sits at F_f."""
    alpha, s = d.ph()
    perm = np.arange(len(alpha))[::-1]
    return alpha[perm], s[np.ix_(perm, perm)]


def build_parent_cache(ttl, delay, delay_unit=1.0):
    """MAP of one cache without a direct request stream (d1 = 0).

    States are ordered ``[Out, In, F_1, ..., F_f]``; the only transitions are
    TTL expiry (In -> Out) and the fetch chain ending in admission
    (F_1 -> In).  Every rate of the fetch chain is multiplied by
    ``delay_unit``; :func:`ttldelay.hierarchy.delay_pencil` passes ``1j`` to
    carry the delay rates in the imaginary part.
    """
    if not isinstance(ttl, dist.Exponential):
        raise UnsupportedDistributionError(
            "the exact engine supports exponential TTLs only"
        )
    dist.require_ph(delay, "fetch delay")
    _, s_rev = _reversed_ph(delay)
    s_rev = s_rev * delay_unit
    exit_rev = -s_rev.sum(axis=1)
    f = s_rev.shape[0]
    n = 2 + f
    d0 = np.zeros((n, n), dtype=s_rev.dtype)
    d0[1, 0] = ttl.rate
    d0[1, 1] = -ttl.rate
    d0[2:, 2:] = s_rev
    d0[2:, 1] = exit_rev
    labels = [
        StateLabel((cache_node((), OUT),)),
        StateLabel((cache_node((), IN),)),
    ] + [StateLabel((cache_node((), fetch(i + 1)),)) for i in range(f)]
    return LabeledMap(d0, np.zeros((n, n)), labels)


def fetch_entry_distribution(delay):
    """Entry probabilities over fetch phases F_1..F_f for a fresh miss."""
    alpha_rev, _ = _reversed_ph(delay)
    return alpha_rev


def build_single_cache(arrival, ttl, delay, delay_unit=1.0):
    """MAP of a leaf cache fed by a PH renewal request stream.

    The state space is the product of cache states (slow index) and arrival
    phases.  With ``R`` the arrival's renewal matrix, a completion is hidden
    in In (a hit: ``hit`` marks In -> In) and active elsewhere (a miss:
    ``miss`` holds Out -> F by the fetch entry distribution and F_k -> F_k).
    ``delay_unit`` multiplies the delay rates, as in :func:`build_parent_cache`.
    """
    dist.require_ph(arrival, "arrival process")
    cache = build_parent_cache(ttl, delay, delay_unit)
    alpha_a, s_a = arrival.ph()
    renewal = np.outer(-s_a.sum(axis=1), alpha_a)
    na = len(alpha_a)
    nc = cache.size
    hit = np.zeros((nc, nc))
    hit[1, 1] = 1.0
    miss = np.zeros((nc, nc))
    miss[0, 2:] = fetch_entry_distribution(delay)
    miss[2:, 2:] = np.eye(nc - 2)
    d0 = (
        np.kron(cache.d0.toarray(), np.eye(na))
        + np.kron(np.eye(nc), s_a)
        + np.kron(hit, renewal)
    )
    d1 = np.kron(miss, renewal)

    labels = []
    for ci in range(nc):
        sym = cache.labels[ci].forest[0][1]
        for ai in range(na):
            children = (arrival_node(ai + 1),) if na > 1 else ()
            labels.append(StateLabel((cache_node(children, sym),)))
    return LabeledMap(d0, d1, labels)
