"""Exact state aggregation over symmetric sibling sub-trees.

When the level superposition combines ``n`` identical sub-MAPs, permuting the
siblings leaves the dynamics unchanged, so states that are permutations of
one another can be merged without approximation (Buchholz, J. Appl. Prob.
1994).  The lumped level is built directly over multisets of sibling
sub-states, without the ``m_S**n`` product: each block is a frequency vector
over sub-states, which is why the block count is the number of weak
compositions ``C(n + m_S - 1, m_S - 1)``.  The strong-lumpability oracle that
checks a level against the lumped full product lives with the tests.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from scipy import sparse

from ttldelay.errors import CapacityError
from ttldelay.map_algebra import LabeledMap, StateLabel
from ttldelay.settings import default_settings


@dataclass(frozen=True)
class LumpedMap:
    """The MAP of a lumped sibling level."""

    map: LabeledMap


def partition_count(m_s, n):
    """Number of sibling-permutation blocks for ``n`` sub-trees of ``m_s`` states.

    Exact integer arithmetic; this is the stars-and-bars count of frequency
    vectors.
    """
    if m_s < 1 or n < 1:
        raise ValueError("m_s and n must be positive")
    return comb(n + m_s - 1, m_s - 1)


def lump_symmetric_level(sibling, n, settings=None):
    """Superpose ``n`` copies of ``sibling``, lumped over sibling permutations.

    Sub-states are ranked by label; a block is a nondecreasing ``n``-tuple of
    ranks, blocks come in lexicographic order and each block's label
    concatenates its sub-state forests in that order.  A sub-state move
    ``a -> b`` of rate ``r`` taken by one of the ``c`` siblings in ``a`` moves
    the block to the one with ``a`` replaced by ``b`` at rate ``c * r``.
    """
    settings = settings or default_settings()
    count = partition_count(sibling.size, n)
    if count > settings.state_cap:
        raise CapacityError(count, settings.state_cap, hint="the level is too wide even lumped")
    order = sorted(range(sibling.size), key=lambda s: sibling.labels[s].forest)
    blocks = list(combinations_with_replacement(range(sibling.size), n))
    index = {block: i for i, block in enumerate(blocks)}

    def lumped(d):
        ranked = d[order][:, order].tocoo()
        moves = [[] for _ in order]
        for a, b, r in zip(ranked.row.tolist(), ranked.col.tolist(), ranked.data.tolist()):
            moves[a].append((b, r))
        rows, cols, rates = [], [], []
        for i, block in enumerate(blocks):
            for a, c in Counter(block).items():
                rest = list(block)
                rest.remove(a)
                for b, r in moves[a]:
                    rows.append(i)
                    cols.append(index[tuple(sorted(rest + [b]))])
                    rates.append(c * r)
        return sparse.csr_array((rates, (rows, cols)), shape=(count, count))

    forests = [sibling.labels[s].forest for s in order]
    labels = tuple(
        StateLabel(tuple(node for a in block for node in forests[a]))
        for block in blocks
    )
    return LumpedMap(LabeledMap(lumped(sibling.d0), lumped(sibling.d1), labels))
