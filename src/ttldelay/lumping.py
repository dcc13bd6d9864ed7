"""Exact state aggregation over symmetric sibling sub-trees.

When the level superposition combines ``n`` identical sub-MAPs, permuting the
siblings leaves the dynamics unchanged, so states that are permutations of
one another can be merged without approximation (Buchholz, J. Appl. Prob.
1994).  The lumped level is built directly over multisets of sibling
sub-states, without the ``m_S**n`` product: each block is a frequency vector
over sub-states, which is why the block count is the number of weak
compositions ``C(n + m_S - 1, m_S - 1)``.  Sub-states are ranked in the
order of their code rows (:class:`ttldelay.map_algebra.StateCodes`), and a
block's row is its sub-states' rows side by side.  Every move of every block
is built at once as arrays, its target found by a binary search on the
target's code row.  The strong-lumpability oracle that checks a level
against the lumped full product lives with the tests.
"""

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from ttldelay.map_algebra import LabeledMap, StateCodes, row_keys, triplet_matrix
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
    ranks = chain.from_iterable(combinations_with_replacement(range(sibling.size), n))
    blocks = np.fromiter(ranks, np.intp, count * n).reshape(count, n)
    sub_table = sibling.codes.table[order]
    table = sub_table[blocks].reshape(count, -1)
    # Each block's distinct sub-states a at their first position j; c siblings are in a.
    i, j = np.nonzero(np.diff(blocks, axis=1, prepend=-1))
    a, c, keys = blocks[i, j], np.diff(i * n + j, append=count * n), row_keys(table)

    def lumped(d):
        ranked = d[order][:, order].tocsr()
        starts, sizes = ranked.indptr[a], np.diff(ranked.indptr)[a]
        pick = np.repeat(np.arange(len(a)), sizes)
        entry = np.arange(len(pick)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        moved = blocks[i[pick]]
        moved[np.arange(len(pick)), j[pick]] = ranked.indices[entry]
        moved.sort(axis=1)
        rows, rates = i[pick], c[pick] * ranked.data[entry]
        cols = np.searchsorted(keys, row_keys(sub_table[moved].reshape(len(rows), -1)))
        return triplet_matrix(count, (rows, cols, rates))

    codes = StateCodes(table, sibling.codes.shape * n)
    return LumpedMap(LabeledMap(lumped(sibling.d0), lumped(sibling.d1), codes))
