"""Exact state aggregation over symmetric sibling sub-trees.

When the level superposition combines ``n`` identical sub-MAPs, permuting the
siblings leaves the dynamics unchanged, so states that are permutations of
one another can be merged without approximation.  The orbit invariant is the
multiset of sibling sub-labels; each block of the resulting partition is
characterised by a frequency vector over sub-states, which is why the block
count is the number of weak compositions ``C(n + m_S - 1, m_S - 1)``.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse

from ttldelay.errors import NotSymmetricError
from ttldelay.map_algebra import LabeledMap, StateLabel, off_diagonal


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
    """A MAP over partition blocks, next to the partition that produced it."""

    map: LabeledMap
    partition: Partition


def partition_count(m_s, n):
    """Number of sibling-permutation blocks for ``n`` sub-trees of ``m_s`` states.

    Exact integer arithmetic; this is the stars-and-bars count of frequency
    vectors.
    """
    if m_s < 1 or n < 1:
        raise ValueError("m_s and n must be positive")
    return comb(n + m_s - 1, m_s - 1)


def _sibling_parts(label, n):
    if len(label.forest) != n:
        raise NotSymmetricError(
            f"state label has {len(label.forest)} sibling components, expected {n}"
        )
    return label.forest


def _verify_identical_factors(m, widths, tol=1e-12):
    """Check that the Kronecker factors of a full level superposition match."""
    n = len(widths)
    w = widths[0]
    strides = [w ** (n - 1 - k) for k in range(n)]
    ref_d0 = ref_d1 = None
    for k, stride in enumerate(strides):
        idx = np.arange(w) * stride
        # The diagonal of a Kronecker-sum slice mixes every factor's diagonal,
        # so compare off-diagonal structure only.
        f_d0, f_d1 = (_off_diagonal_part(x[idx][:, idx]) for x in (m.d0, m.d1))
        if ref_d0 is None:
            ref_d0, ref_d1 = f_d0, f_d1
        elif abs(f_d0 - ref_d0).max() > tol or abs(f_d1 - ref_d1).max() > tol:
            raise NotSymmetricError(
                f"sibling {k} differs from sibling 0 by more than {tol}"
            )


def _off_diagonal_part(x):
    return x - sparse.diags_array(x.diagonal())


def _block_indicator(block_of, nb):
    """Sparse 0/1 matrix mapping each state to its block."""
    n = len(block_of)
    return sparse.csr_array(
        (np.ones(n), (np.arange(n), np.asarray(block_of))), shape=(n, nb)
    )


def lump_symmetric_level(m, sibling_block_widths, settings=None):
    """Lump a level superposition of identical siblings by label multisets.

    ``sibling_block_widths`` lists the per-sibling state counts; all entries
    must agree.  Works on full products and on products from which invalid
    states were already removed (the blocks simply shrink).
    """
    widths = list(sibling_block_widths)
    n = len(widths)
    if n == 0:
        raise ValueError("need at least one sibling")
    if len(set(widths)) != 1:
        raise NotSymmetricError(f"sibling widths differ: {widths}")
    if n == 1:
        partition = Partition(
            blocks=tuple((i,) for i in range(m.size)),
            block_of=tuple(range(m.size)),
            representatives=tuple(range(m.size)),
        )
        return LumpedMap(m, partition)

    if widths[0] ** n == m.size:
        _verify_identical_factors(m, widths)

    by_signature = {}
    for idx, label in enumerate(m.labels):
        signature = tuple(sorted(_sibling_parts(label, n)))
        by_signature.setdefault(signature, []).append(idx)

    signatures = sorted(by_signature)
    blocks = []
    block_of = [0] * m.size
    reps = []
    for b, signature in enumerate(signatures):
        members = tuple(by_signature[signature])
        blocks.append(members)
        for s in members:
            block_of[s] = b
        reps.append(min(members, key=lambda s: m.labels[s].forest))

    # Lumped rates: the representative's rates summed per target block.
    indicator = _block_indicator(block_of, len(blocks))
    rep_rows = np.asarray(reps)
    ld0 = m.d0[rep_rows] @ indicator
    ld1 = m.d1[rep_rows] @ indicator

    labels = tuple(StateLabel(sig) for sig in signatures)
    lumped = LabeledMap(ld0, ld1, labels)
    partition = Partition(tuple(blocks), tuple(block_of), tuple(reps))

    if widths[0] ** n != m.size:
        report = verify_lumpability(m, partition)
        if not report.passed:
            raise NotSymmetricError(
                "sibling permutation partition is not lumpable on this "
                f"reduced product (worst deviation {report.worst_deviation:.3e})"
            )
    return LumpedMap(lumped, partition)


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
