"""Exact state aggregation over symmetric sibling sub-trees.

When the level superposition combines ``n`` identical sub-MAPs, permuting the
siblings leaves the dynamics unchanged, so states that are permutations of
one another can be merged without approximation (Buchholz, J. Appl. Prob.
1994).  The lumped level is built directly over multisets of sibling
sub-states, without the ``m_S**n`` product: each block is a frequency vector
over sub-states, which is why the block count is the number of weak
compositions ``C(n + m_S - 1, m_S - 1)``.  :func:`verify_lumpability` checks a
partition of a full product and serves as the test oracle.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np
from scipy import sparse

from ttldelay.errors import CapacityError
from ttldelay.map_algebra import LabeledMap, StateLabel, off_diagonal
from ttldelay.settings import default_settings


@dataclass(frozen=True)
class Partition:
    """A lumping of a state set into blocks of equivalent states."""

    blocks: tuple  # tuple of tuples of state indices
    block_of: tuple  # state index -> block index
    representatives: tuple  # one state index per block

    @property
    def size(self):
        return len(self.blocks)


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


def _block_indicator(block_of, nb):
    """Sparse 0/1 matrix mapping each state to its block."""
    n = len(block_of)
    return sparse.csr_array(
        (np.ones(n), (np.arange(n), np.asarray(block_of))), shape=(n, nb)
    )


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


@dataclass(frozen=True)
class LumpabilityReport:
    passed: bool
    worst_deviation: float
    failures: tuple

    def __bool__(self):
        return self.passed


def verify_lumpability(m, partition, tol=1e-9):
    """Numerically test the strong-lumpability condition for ``partition``.

    For every ordered block pair the total outgoing rate into the target
    block must be identical for all members of the source block.  Also checks
    that no single transition changes more than one sibling component, when
    the labels expose siblings.
    """
    q = m.generator()
    flows = q @ _block_indicator(partition.block_of, partition.size)

    worst = 0.0
    failures = []
    for b, members in enumerate(partition.blocks):
        rows = flows[np.asarray(members)].toarray()  # |block| x nb
        dev = np.max(np.abs(rows - rows[0]), axis=0)
        j = int(np.argmax(dev))
        if dev[j] > worst:
            worst = float(dev[j])
        bad = np.flatnonzero(dev > tol)
        for jj in bad[:4]:
            failures.append(
                f"block {b} -> block {jj}: member rates differ by {dev[jj]:.3e}"
            )

    lengths = {len(lab.forest) for lab in m.labels}
    if len(lengths) == 1 and lengths.pop() > 1 and m.size <= 5000:
        src, dst, rates = off_diagonal(q)
        for i, j in zip(src[rates != 0], dst[rates != 0]):
            fi, fj = m.labels[i].forest, m.labels[j].forest
            changed = sum(a != b for a, b in zip(fi, fj))
            if changed > 1:
                failures.append(
                    f"transition {i}->{j} changes {changed} sibling components"
                )

    return LumpabilityReport(not failures, worst, tuple(failures))
