from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from ttldelay.cache_builders import fetch_entry_distribution
from ttldelay.distributions import Erlang, Exponential
from ttldelay.map_algebra import (
    IN_CODE,
    OUT_CODE,
    LabeledMap,
    StateCodes,
    node_width,
    off_diagonal,
)
from ttldelay.spec import CacheNode, CacheTreeSpec, sibling_runs


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
    alpha, s = d.ph()
    exit_rates = -s.sum(axis=1)
    # One arrival node per state, coded by its phase: labels ((), ("A", k)).
    phases = StateCodes(np.arange(len(alpha), dtype=np.uint8)[:, None], (((), True),))
    return LabeledMap(s, np.outer(exit_rates, alpha), phases)


def labels(m):
    """The label of each state of ``m``, decoded from its ``StateCodes``.

    A label is a forest, a tuple of nodes, one per top-level cache:

    * a node is ``(children, symbol)`` where ``children`` is a tuple of nodes,
    * cache symbols are ``("O", 0)`` (out), ``("I", 0)`` (in cache) or
      ``("F", k)`` (fetching, phase ``k``),
    * the arrival phase of a phase-type request stream appears as a
      pseudo-node ``((), ("A", k))`` attached below its leaf cache.

    Level superposition concatenates forests, line superposition wraps a
    forest under a new root, and labels sort as the code rows do.
    """
    return tuple(_forests(m.codes.shape, m.codes.table))


def _symbol(code):
    if code == OUT_CODE:
        return ("O", 0)
    return ("I", 0) if code == IN_CODE else ("F", code + 1)


def _forests(shape, table):
    """The forest of ``shape`` that each row of ``table`` codes.  Each node is
    built once per distinct code of its subtree and shared between rows."""
    nodes, lo = [], 0
    for node in shape:
        hi = lo + node_width(node)
        distinct, inverse = np.unique(table[:, lo:hi], axis=0, return_inverse=True)
        below = _forests(node[0], distinct[:, :-1])
        made = [
            ((), ("A", c + 1)) if node[1] else (children, _symbol(c))
            for children, c in zip(below, distinct[:, -1].tolist())
        ]
        nodes.append([made[i] for i in inverse.ravel().tolist()])
        lo = hi
    return list(zip(*nodes)) if nodes else [()] * len(table)


def encode(forest):
    """Compact text form of a label, e.g. ``((O|A2)F1)I``."""
    return "".join(_encode_node(node) for node in forest)


def state_index(m, text):
    """Index of the first state of ``m`` whose label ``encode`` writes as ``text``."""
    return [encode(forest) for forest in labels(m)].index(text)


def _encode_sym(symbol):
    kind, phase = symbol
    return kind if kind in ("O", "I") else f"{kind}{phase}"


def _encode_node(node):
    children, symbol = node
    if children:
        inner = "|".join(_encode_node(c) for c in children)
        return f"({inner}){_encode_sym(symbol)}"
    return _encode_sym(symbol)


def reference_labels(node, lump_per_level=False):
    """The labels of ``node``'s composed MAP, in state order, from the
    composition rules alone: a leaf's states are its cache states (slow) times
    its arrival phases; siblings concatenate, the first varying slowest; with
    lumping they go class by class (equal shapes, in order of first
    appearance), and a class lists the sorted multisets of its sibling's
    labels in lexicographic order; a parent wraps each children label under each of its
    own states (fast), except that it fetches only while some child fetches
    and every fetching child sits at an entry phase of its delay."""
    symbols = [("O", 0), ("I", 0)] + [("F", k + 1) for k in range(len(node.delay.ph()[0]))]
    if node.is_leaf:
        phases = len(node.arrival.ph()[0])
        below = [((((), ("A", a + 1)),) if phases > 1 else ()) for a in range(phases)]
        return [((forest, s),) for s in symbols for forest in below]
    runs = sibling_runs(node.children) if lump_per_level else [[c] for c in node.children]
    parts, entries = [], []
    for first, *rest in runs:
        forests = reference_labels(first, lump_per_level)
        if rest:
            forests = [sum(block, ()) for block in
                       combinations_with_replacement(sorted(forests), 1 + len(rest))]
        parts.append(forests)
        entries += [fetch_entry_distribution(first.delay)] * (1 + len(rest))

    def admits(forest):
        fetching = [(sym[1], e) for (_, sym), e in zip(forest, entries) if sym[0] == "F"]
        return bool(fetching) and all(e[k - 1] > 0 for k, e in fetching)

    return [
        ((forest, s),)
        for forest in (sum(combo, ()) for combo in product(*parts))
        for s in symbols
        if s[0] != "F" or admits(forest)
    ]


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
    table = m.codes.table
    if len(table) != n:
        issues.append(f"{len(table)} code rows for {n} states")
    elif len(np.unique(table, axis=0)) != n:
        issues.append("code rows are not pairwise distinct")

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
