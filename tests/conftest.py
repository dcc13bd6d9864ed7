import numpy as np
import pytest

from ttldelay.cache_builders import CacheNode, CacheTreeSpec
from ttldelay.distributions import Erlang, Exponential, require_ph
from ttldelay.map_algebra import LabeledMap, StateLabel, arrival_node


def single_mmm(tau_delta, tau_t=2.0, rate=1.0):
    """Single cache, Poisson(rate) input, exponential TTL/delay."""
    delay = Exponential(1e6) if tau_delta == 0 else Exponential(rate / tau_delta)
    return CacheTreeSpec(
        CacheNode(
            "cache",
            ttl=Exponential(rate / tau_t),
            delay=delay,
            arrival=Exponential(rate),
        )
    )


def two_level_tree(tau_delta):
    """Two-level binary tree: rate-1 leaves, TTL means 2 (leaves) and 4 (root),
    exponential per-link delays with mean tau_delta."""
    delay = Exponential(1e6) if tau_delta == 0 else Exponential(1.0 / tau_delta)
    leaves = tuple(
        CacheNode(f"leaf{i}", ttl=Exponential(0.5), delay=delay, arrival=Exponential(1.0))
        for i in (1, 2)
    )
    return CacheTreeSpec(
        CacheNode("root", ttl=Exponential(0.25), delay=delay, children=leaves)
    )


def flat_tree(k):
    """k identical rate-1 Poisson leaves (TTL mean 2) under one root (TTL mean
    4), exponential delays of mean 1."""
    leaves = tuple(
        CacheNode(f"leaf{i}", ttl=Exponential(0.5), delay=Exponential(1.0),
                  arrival=Exponential(1.0))
        for i in range(k)
    )
    return CacheTreeSpec(
        CacheNode("root", ttl=Exponential(0.25), delay=Exponential(1.0), children=leaves)
    )


def e20_cache(tau_delta, tau_t=2.0):
    """Near-periodic input: Erlang-20 arrivals with unit mean."""
    delay = Exponential(1e6) if tau_delta == 0 else Exponential(1.0 / tau_delta)
    return CacheTreeSpec(
        CacheNode(
            "cache",
            ttl=Exponential(1.0 / tau_t),
            delay=delay,
            arrival=Erlang(20, 20.0),
        )
    )


def ph_renewal_map(d):
    """Renewal MAP of a PH distribution: events at each absorption/restart."""
    require_ph(d, "renewal distribution")
    alpha, s = d.ph()
    exit_rates = -s.sum(axis=1)
    labels = tuple(StateLabel((arrival_node(i + 1),)) for i in range(len(alpha)))
    return LabeledMap(s, np.outer(exit_rates, alpha), labels)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
