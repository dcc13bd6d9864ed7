"""The cache-tree specification and its delay rescalings.

A :class:`CacheTreeSpec` says what the tree is: each cache's TTL, the fetch
delay over the link above it and, at the leaves, the request stream.  Every
view of the system reads it: the exact engine (:mod:`ttldelay.hierarchy`),
the approximation, the simulator and the command line.  The state counts the
engine would reach, lumped or not, and the classes of equal siblings it lumps
(wherever they stand) are read off the spec here too.  This module needs only
the distributions, so a command that never builds a MAP does not load the
sparse linear algebra behind the exact engine.
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from ttldelay import distributions as dist
from ttldelay.errors import ConfigError


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


def partition_count(m_s, n):
    """Blocks of ``n`` sub-trees of ``m_s`` states lumped over their
    permutations: the exact stars-and-bars count of frequency vectors."""
    if m_s < 1 or n < 1:
        raise ValueError("m_s and n must be positive")
    return math.comb(n + m_s - 1, m_s - 1)


def lumped_copies(m, n, *triplets):
    """``n`` copies of an ``m``-state chain, lumped over permutations of the copies.

    Returns the blocks, nondecreasing ``n``-tuples of states in lexicographic
    (``combinations_with_replacement``) order, and the lumped triplets of each
    given row-sorted ``(rows, cols, rates)``: a move ``a -> b`` by one of the
    ``c`` copies in ``a`` goes to the block with ``a`` replaced by ``b`` at
    ``c`` times the rate, whose index is its rank (Knuth, TAOCP 4A, 7.2.1.3).
    ``rates`` may stack several chains of one pattern along leading axes.
    """
    count = partition_count(m, n)
    states = chain.from_iterable(combinations_with_replacement(range(m), n))
    blocks = np.fromiter(states, np.intp, count * n).reshape(count, n)
    # Block x has rank sum(rank[k, x_k]), rank[k, v] = C(l+m-2, l) - C(l+m-2-v, l) at l = n-k.
    pascal = [np.arange(m)]
    for _ in range(n - 1):
        pascal.append(pascal[-1].cumsum())
    tail = np.array(pascal[::-1])[:, ::-1]
    rank, offsets = (tail[:, :1] - tail).ravel(), np.arange(0, n * m, m)
    # Each block's distinct states a, from position j to j + c - 1.
    runs = np.ones((count, n + 1), bool)
    runs[:, 1:n] = blocks[:, 1:] != blocks[:, :-1]
    i, j = runs[:, :n].nonzero()
    a, c = blocks[i, j], runs[:, 1:].nonzero()[1] + 1 - j

    def lumped(rows, cols, rates):
        counts = np.bincount(rows, minlength=m)
        sizes = counts[a]
        pick = np.arange(len(a)).repeat(sizes)
        steps = np.arange(len(pick))
        entry = steps + ((counts.cumsum() - counts)[a] - sizes.cumsum() + sizes).repeat(sizes)
        moved = blocks[i[pick]]
        moved[steps, j[pick]] = cols[entry]
        moved.sort(axis=1)
        return i[pick], rank[moved + offsets].sum(axis=1), c[pick] * rates[..., entry]

    return blocks, [lumped(*t) for t in triplets]


def sibling_runs(children):
    """Classes of siblings of equal shape, wherever they stand, in order of
    first appearance: the exchangeable sub-trees that per-level lumping merges."""
    classes = {}
    for node in children:
        classes.setdefault(node.shape, []).append(node)
    return list(classes.values())


def lump_plus_width(node):
    """State count of a subtree with every class of equal siblings lumped, at
    every level, before invalid-state removal."""
    width = cache_state_count(node)
    for first, *rest in sibling_runs(node.children):
        width *= partition_count(lump_plus_width(first), 1 + len(rest))
    return width


def _max_tree_rate(spec):
    rates = [1.0]
    for node in spec.nodes():
        rates.append(1.0 / node.ttl.mean())
        if node.arrival is not None:
            rates.append(1.0 / node.arrival.mean())
    return max(rates)


def _map_delays(node, fn):
    return CacheNode(
        id=node.id,
        ttl=node.ttl,
        delay=fn(node.delay),
        children=tuple(_map_delays(c, fn) for c in node.children),
        arrival=node.arrival,
    )


def delay_rescaling(spec, mean):
    """The map :func:`with_delay_means` applies to every fetch delay of ``spec``."""
    if mean <= 0:
        zero = dist.Exponential(1e6 * _max_tree_rate(spec))
        return lambda d: zero
    return lambda d: d.scaled_to_mean(mean)


def zero_delay_variant(spec):
    """Replace every fetch delay by an exponential fast enough to be 'zero':
    its rate is 1e6 times the largest of 1 and the tree's TTL and arrival rates.

    ``simulate`` and ``approx`` take their zero-delay point from it.  The hit
    probability misses the exact zero-delay limit
    (:meth:`ttldelay.hierarchy.DelayPencil.limit`) by about 1e-6 relative:
    5.5e-8 to 3.3e-7 on ``configs/``, and up to about 1.8e-6 on generated
    trees.
    """
    return with_delay_means(spec, 0.0)


def with_delay_means(spec, mean):
    """Rescale every fetch delay in the tree to the given mean, keeping shapes;
    a mean of zero or less gives :func:`zero_delay_variant`."""
    return CacheTreeSpec(_map_delays(spec.root, delay_rescaling(spec, mean)))
