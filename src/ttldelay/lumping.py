"""Exact state aggregation over symmetric sibling sub-trees.

When the level superposition combines ``n`` identical sub-MAPs, permuting the
siblings leaves the dynamics unchanged, so states that are permutations of
one another can be merged without approximation (Buchholz, J. Appl. Prob.
1994).  The lumped level is built directly over multisets of sibling
sub-states, without the ``m_S**n`` product: each block is a frequency vector
over sub-states, which is why the block count is the number of weak
compositions ``C(n + m_S - 1, m_S - 1)``.  Sub-states are ranked in the
order of their code rows (:class:`ttldelay.map_algebra.StateCodes`), and a
block's row is its sub-states' rows side by side.  The strong-lumpability
oracle that checks a level against the lumped full product lives with the
tests.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy import sparse

from ttldelay.map_algebra import LabeledMap, StateCodes
from ttldelay.settings import check_state_count
from ttldelay.spec import partition_count


@dataclass(frozen=True)
class LumpedMap:
    """The MAP of a lumped sibling level."""

    map: LabeledMap


def lump_symmetric_level(sibling, n):
    """Superpose ``n`` copies of ``sibling``, lumped over sibling permutations.

    Sub-states are ranked in the order of the sibling's code rows; a block
    is a nondecreasing ``n``-tuple of ranks, blocks come in lexicographic
    order and each block's code row concatenates its sub-states' rows in
    that order.  A sub-state move ``a -> b`` of rate ``r`` taken by one of
    the ``c`` siblings in ``a`` moves the block to the one with ``a``
    replaced by ``b`` at rate ``c * r``.
    """
    count = partition_count(sibling.size, n)
    check_state_count(count, hint="the level is too wide even lumped")
    order = sibling.codes.order()
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

    table = sibling.codes.table[order][np.array(blocks)].reshape(count, -1)
    codes = StateCodes(table, sibling.codes.shape * n)
    return LumpedMap(LabeledMap(lumped(sibling.d0), lumped(sibling.d1), codes))
