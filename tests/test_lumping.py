import logging
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import pytest
from scipy import sparse

from ttldelay import map_algebra
from ttldelay.cache_builders import (
    build_parent_cache,
    build_single_cache,
    fetch_entry_distribution,
)
from ttldelay.distributions import Coxian, Erlang, Exponential
from ttldelay.errors import CapacityError
from ttldelay.hierarchy import build_tree, level_superpose, line_superpose
from ttldelay.lumping import lump_symmetric_level, partition_count
from ttldelay.map_algebra import (
    KRYLOV_MIN_STATES,
    LabeledMap,
    StateCodes,
    event_rate,
    off_diagonal,
    row_keys,
    steady_state,
)

from conftest import encode, flat_tree, labels, validate_map


# The strong-lumpability oracle: a partition of a full product and a check
# that every member of a block sends equal rates into every block.


@dataclass(frozen=True)
class Partition:
    """A lumping of a state set into blocks of equivalent states."""

    blocks: tuple  # tuple of tuples of state indices
    block_of: tuple  # state index -> block index
    representatives: tuple  # one state index per block

    @property
    def size(self):
        return len(self.blocks)


def _block_indicator(block_of, nb):
    """Sparse 0/1 matrix mapping each state to its block."""
    n = len(block_of)
    return sparse.csr_array(
        (np.ones(n), (np.arange(n), np.asarray(block_of))), shape=(n, nb)
    )


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

    forests = labels(m)
    lengths = {len(forest) for forest in forests}
    if len(lengths) == 1 and lengths.pop() > 1 and m.size <= 5000:
        src, dst, rates = off_diagonal(q)
        for i, j in zip(src[rates != 0], dst[rates != 0]):
            fi, fj = forests[i], forests[j]
            changed = sum(a != b for a, b in zip(fi, fj))
            if changed > 1:
                failures.append(
                    f"transition {i}->{j} changes {changed} sibling components"
                )

    return LumpabilityReport(not failures, worst, tuple(failures))


def leaf_map(rate=1.0):
    return build_single_cache(Exponential(rate), Exponential(0.5), Exponential(1.0))


def coxian_leaf():
    return build_single_cache(Coxian((2.0, 1.0), (0.4,)), Exponential(0.5), Erlang(2, 2.0))


def line_subtree():
    """A parent over two different leaves: one sibling with a nested label."""
    children = level_superpose([leaf_map(1.0), leaf_map(2.0)])
    delay = Erlang(2, 2.0)
    return line_superpose(
        build_parent_cache(Exponential(0.25), delay),
        children,
        fetch_entry_distribution(delay),
        [(fetch_entry_distribution(Exponential(1.0)), 1)] * 2,
    )


def product_then_lump(sibling, n):
    """Reference: lump the full product of ``n`` siblings by sorted labels.

    Returns the product, its sibling-permutation partition and the lumped
    MAP, whose rows are the representatives' rates summed per target block
    and whose states are the representatives' code rows.
    """
    product = level_superpose([sibling] * n)
    forests = labels(product)
    signature = [tuple(sorted(forest)) for forest in forests]
    signatures = sorted(set(signature))
    block_index = {sig: b for b, sig in enumerate(signatures)}
    block_of = tuple(block_index[sig] for sig in signature)
    blocks = [[] for _ in signatures]
    for s, b in enumerate(block_of):
        blocks[b].append(s)
    reps = [min(members, key=forests.__getitem__) for members in blocks]
    partition = Partition(tuple(map(tuple, blocks)), block_of, tuple(reps))
    indicator = _block_indicator(block_of, len(blocks))
    lumped = LabeledMap(
        product.d0[reps] @ indicator,
        product.d1[reps] @ indicator,
        StateCodes(product.codes.table[reps], product.codes.shape),
    )
    # A block's smallest member lists its siblings sorted: its label is the
    # block's signature.
    assert labels(lumped) == tuple(signatures)
    return product, partition, lumped


# p_hit of fifty exponential leaves under one root, lumped, from the LU
# before the Krylov path existed.
FLAT_FIFTY_P_HIT = 0.8632834559919254


def flat_fifty():
    """The spec of fifty identical leaves under one root, and its lumped MAP
    (3,927 states)."""
    spec = flat_tree(50)
    return spec, build_tree(spec, lump_per_level=True)


CONSTRUCTION_CASES = [
    *((leaf_map, n) for n in (2, 3, 4)),
    *((coxian_leaf, n) for n in (2, 3, 4, 5)),
    *((line_subtree, n) for n in (2, 3)),  # 21,952 product states at n = 3
]


class TestConstruction:
    @pytest.mark.parametrize(
        "make, n", CONSTRUCTION_CASES,
        ids=[f"{make.__name__}-{n}" for make, n in CONSTRUCTION_CASES],
    )
    def test_matches_product_then_lump(self, make, n):
        sibling = make()
        product, partition, reference = product_then_lump(sibling, n)
        lumped = lump_symmetric_level(sibling, n).map
        # Blocks are found by key: the level's code rows strictly increase.
        keys = row_keys(lumped.codes.table).tolist()
        assert keys == sorted(set(keys))
        assert labels(lumped) == labels(reference)
        assert abs(lumped.d0 - reference.d0).max() <= 1e-12
        assert abs(lumped.d1 - reference.d1).max() <= 1e-12
        assert lumped.size == partition.size == partition_count(sibling.size, n)
        assert verify_lumpability(product, partition).passed
        assert validate_map(lumped) == []

    def test_capacity_checked_before_enumeration(self, monkeypatch):
        sibling = leaf_map()
        with pytest.raises(CapacityError):
            lump_symmetric_level(sibling, 10**9)  # 5e17 blocks, never listed
        monkeypatch.setenv("TTLDELAY_NUMERICS", f"state_cap={partition_count(3, 40) - 1}")
        with pytest.raises(CapacityError):
            lump_symmetric_level(sibling, 40)
        monkeypatch.setenv("TTLDELAY_NUMERICS", f"state_cap={partition_count(3, 40)}")
        assert lump_symmetric_level(sibling, 40).map.size == 861

    def test_flat_fifty_leaves_solve(self, caplog):
        spec, system = flat_fifty()
        assert system.size == 3927 > KRYLOV_MIN_STATES
        # Preconditioned GCROT answers with no fallback; p_hit is the LU's
        # value from before the Krylov path existed.
        with caplog.at_level(logging.INFO, logger="ttldelay.map_algebra"):
            ss = steady_state(system)
        assert ss.method == "krylov"
        assert caplog.records == []
        p_hit = 1.0 - event_rate(system, ss) / spec.total_request_rate()
        assert p_hit == pytest.approx(FLAT_FIFTY_P_HIT, rel=0, abs=1e-12)

    def test_flat_fifty_leaves_fall_back_when_gcrot_is_stuck(self, caplog, monkeypatch):
        def stuck(a, b, **kwargs):
            return np.zeros_like(b), 1

        monkeypatch.setattr(map_algebra, "gcrotmk", stuck)
        spec, system = flat_fifty()
        with caplog.at_level(logging.INFO, logger="ttldelay.map_algebra"):
            ss = steady_state(system)
        assert ss.method == "direct"
        (record,) = caplog.records
        assert "3927 states falls back to LU" in record.getMessage()
        p_hit = 1.0 - event_rate(system, ss) / spec.total_request_rate()
        assert p_hit == pytest.approx(FLAT_FIFTY_P_HIT, rel=0, abs=1e-12)


class TestLumpSymmetricLevel:
    def test_pair_of_identical_caches(self):
        pair, partition, _ = product_then_lump(leaf_map(), 2)
        lumped = lump_symmetric_level(leaf_map(), 2)
        assert [encode(forest) for forest in labels(lumped.map)] == [
            "F1F1", "F1I", "F1O", "II", "IO", "OO",
        ]
        forests = labels(pair)
        blocks = {
            frozenset(encode(forests[s]) for s in block)
            for block in partition.blocks
        }
        assert blocks == {
            frozenset({"OO"}), frozenset({"OI", "IO"}), frozenset({"OF1", "F1O"}),
            frozenset({"II"}), frozenset({"IF1", "F1I"}), frozenset({"F1F1"}),
        }
        assert validate_map(lumped.map) == []

    def test_identity_for_single_sibling(self):
        # One sibling lumps to itself, its states in label order.
        m = leaf_map()
        lumped = lump_symmetric_level(m, 1).map
        forests = labels(m)
        order = sorted(range(m.size), key=forests.__getitem__)
        assert labels(lumped) == tuple(forests[s] for s in order)
        assert (lumped.d0 != m.d0[order][:, order]).nnz == 0
        assert (lumped.d1 != m.d1[order][:, order]).nnz == 0

    def test_block_count_law(self):
        lumped = lump_symmetric_level(leaf_map(), 3)
        assert lumped.map.size == partition_count(3, 3) == 10

    def test_lumped_chain_preserves_hit_metrics(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        lumped = lump_symmetric_level(leaf_map(), 2)
        assert event_rate(lumped.map) == pytest.approx(event_rate(pair), abs=1e-12)

    def test_canonical_representatives_sorted(self):
        # Each block's label is the sorted forest of its smallest member.
        pair, partition, _ = product_then_lump(leaf_map(), 2)
        lumped = lump_symmetric_level(leaf_map(), 2).map
        forests = labels(pair)
        for block, rep, forest in zip(
            partition.blocks, partition.representatives, labels(lumped)
        ):
            rep_forest = forests[rep]
            assert rep_forest == min(forests[s] for s in block)
            assert forest == rep_forest == tuple(sorted(rep_forest))


class TestVerifyLumpability:
    def test_symmetric_partition_passes(self):
        pair, partition, _ = product_then_lump(leaf_map(), 2)
        report = verify_lumpability(pair, partition)
        assert report.passed
        assert report.worst_deviation < 1e-12

    def test_bad_merge_fails_with_named_blocks(self):
        pair, partition, _ = product_then_lump(leaf_map(), 2)
        blocks = list(partition.blocks)
        # Merge the all-out block with the all-in block.
        forests = labels(pair)
        out_b = next(i for i, b in enumerate(blocks) if encode(forests[b[0]]) == "OO")
        in_b = next(i for i, b in enumerate(blocks) if encode(forests[b[0]]) == "II")
        merged = blocks[out_b] + blocks[in_b]
        new_blocks = [b for i, b in enumerate(blocks) if i not in (out_b, in_b)]
        new_blocks.append(merged)
        block_of = [0] * pair.size
        for i, b in enumerate(new_blocks):
            for s in b:
                block_of[s] = i
        bad = Partition(tuple(new_blocks), tuple(block_of),
                        tuple(b[0] for b in new_blocks))
        report = verify_lumpability(pair, bad)
        assert not report.passed
        assert any("block" in f for f in report.failures)

    def test_asymmetric_siblings_fail_symmetric_partition(self):
        _, partition, _ = product_then_lump(leaf_map(), 2)
        asym = level_superpose([leaf_map(1.0), leaf_map(2.0)])
        report = verify_lumpability(asym, partition)
        assert not report.passed


class TestPartitionCount:
    def test_two_level_binary_subtree_values(self):
        assert partition_count(27, 2) == 378
        assert partition_count(18, 2) == 171
        assert partition_count(3, 1) == 3

    def test_reference_count_table(self):
        lump = [27, 378, 3654, 27405, 169911, 906192, 4272048, 18156204,
                70607460, 254186856]
        lump_plus = [18, 171, 1140, 5985, 26334, 100947, 346104, 1081575,
                     3124550, 8436285]
        for n in range(1, 11):
            assert partition_count(27, n) == lump[n - 1]
            assert partition_count(18, n) == lump_plus[n - 1]

    def test_exponential_bound(self):
        # Count never exceeds the raw product size (induction claim).
        for m_s in range(3, 12):
            for n in range(1, 8):
                assert partition_count(m_s, n) <= m_s**n

    def test_polynomial_bound(self):
        for m_s in range(3, 31):
            for n in range(1, 11):
                bound = (n + m_s - 1) ** (m_s - 1) / math.factorial(m_s - 1)
                assert partition_count(m_s, n) <= bound

    def test_huge_counts_are_exact_integers(self):
        assert partition_count(27, 10) == 254186856
        assert partition_count(100, 50) > 10**40  # arbitrary precision


class TestPermutationCovariance:
    def test_transition_rates_invariant_under_sibling_permutation(self):
        n = 3
        triple = level_superpose([leaf_map()] * n)
        q = triple.generator()
        forests = labels(triple)
        index = {forest: i for i, forest in enumerate(forests)}
        rng = np.random.default_rng(3)
        perms = list(permutations(range(n)))
        for _ in range(200):
            a, b = rng.integers(0, triple.size, 2)
            f = perms[rng.integers(len(perms))]
            fa = tuple(forests[a][i] for i in f)
            fb = tuple(forests[b][i] for i in f)
            assert q[index[fa], index[fb]] == q[a, b]

    def test_no_transition_changes_two_siblings(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        q = pair.generator().toarray()
        forests = labels(pair)
        for i, j in zip(*np.nonzero(q - np.diag(np.diag(q)))):
            changed = sum(x != y for x, y in zip(forests[i], forests[j]))
            assert changed <= 1
