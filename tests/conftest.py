import numpy as np
import pytest

from ttldelay.cache_builders import CacheNode, CacheTreeSpec
from ttldelay.distributions import Erlang, Exponential, require_ph
from ttldelay.map_algebra import LabeledMap, StateLabel, arrival_node, off_diagonal


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


def encode(label):
    """Compact text form of a ``StateLabel``, e.g. ``((O|A2)F1)I``."""
    return "".join(_encode_node(node) for node in label.forest)


def _encode_sym(symbol):
    kind, phase = symbol
    return kind if kind in ("O", "I") else f"{kind}{phase}"


def _encode_node(node):
    children, symbol = node
    if children:
        inner = "|".join(_encode_node(c) for c in children)
        return f"({inner}){_encode_sym(symbol)}"
    return _encode_sym(symbol)


def validate_map(m):
    """Check all structural invariants of ``m``.

    Returns a list of human-readable violation strings; an empty list means
    the MAP is valid.  Rows of ``d0 + d1`` must sum to zero within 1e-10 of
    the largest rate.
    """
    issues = []
    d0, d1 = m.d0, m.d1
    n = d0.shape[0]
    if d0.ndim != 2 or d0.shape != (n, n):
        return [f"d0 is not square: shape {d0.shape}"]
    if d1.shape != (n, n):
        return [f"d1 shape {d1.shape} differs from d0 shape {d0.shape}"]
    if n < 1:
        return ["empty state space"]
    if len(m.labels) != n:
        issues.append(f"{len(m.labels)} labels for {n} states")
    elif len(set(m.labels)) != n:
        issues.append("labels are not pairwise distinct")

    diag = d0.diagonal()
    for i in np.flatnonzero(diag > 0):
        issues.append(f"positive d0 diagonal at state {i}: {diag[i]:.3e}")
    rows, cols, vals = off_diagonal(d0)
    for k in np.flatnonzero(vals < 0):
        issues.append(f"negative hidden rate at ({rows[k]},{cols[k]}): {vals[k]:.3e}")
    active = d1.tocoo()
    for k in np.flatnonzero(active.data < 0):
        issues.append(
            f"negative active rate at ({active.row[k]},{active.col[k]}): "
            f"{active.data[k]:.3e}"
        )

    scale = max(abs(d0).max(), abs(d1).max(), 1.0)
    row_sums = d0.sum(axis=1) + d1.sum(axis=1)
    for i in np.flatnonzero(np.abs(row_sums) > 1e-10 * scale):
        issues.append(f"row sum nonzero at state {i}: {row_sums[i]:.3e}")
    return issues


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
