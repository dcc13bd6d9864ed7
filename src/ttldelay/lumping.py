"""Exact state aggregation over symmetric sibling sub-trees.

Permuting ``n`` identical siblings leaves a level's dynamics unchanged, so
states that are permutations of one another merge without approximation
(Buchholz, J. Appl. Prob. 1994).  The lumped level is built directly over
the multisets of sibling sub-states, without the ``m_S**n`` product, by
:func:`ttldelay.spec.lumped_copies`, the kernel that also pools equal sibling
laws in the approximation.  The strong-lumpability oracle that checks a
level against the lumped full product lives with the tests.
"""

from dataclasses import dataclass

from ttldelay.map_algebra import LabeledMap, StateCodes, triplet_matrix
from ttldelay.settings import check_state_count
from ttldelay.spec import lumped_copies, partition_count


@dataclass(frozen=True)
class LumpedMap:
    """The MAP of a lumped sibling level."""

    map: LabeledMap


def lump_symmetric_level(sibling, n):
    """Superpose ``n`` copies of ``sibling``, lumped over sibling permutations.

    Sub-states are ranked in the order of the sibling's code rows; each
    block's code row is its sub-states' rows side by side.
    """
    count = partition_count(sibling.size, n)
    check_state_count(count, hint="the level is too wide even lumped")
    order = sibling.codes.order()
    ranked = (d[order][:, order].tocoo() for d in (sibling.d0, sibling.d1))
    blocks, (d0, d1) = lumped_copies(sibling.size, n, *((d.row, d.col, d.data) for d in ranked))
    table = sibling.codes.table[order][blocks].reshape(count, -1)
    codes = StateCodes(table, sibling.codes.shape * n)
    return LumpedMap(LabeledMap(triplet_matrix(count, d0), triplet_matrix(count, d1), codes))
