import math
from itertools import permutations

import numpy as np
import pytest

from ttldelay.cache_builders import build_single_cache
from ttldelay.distributions import Exponential
from ttldelay.errors import NotSymmetricError
from ttldelay.hierarchy import level_superpose
from ttldelay.lumping import (
    Partition,
    lump_symmetric_level,
    partition_count,
    verify_lumpability,
)
from ttldelay.map_algebra import event_rate, steady_state, validate_map


def leaf_map(rate=1.0):
    return build_single_cache(Exponential(rate), Exponential(0.5), Exponential(1.0))


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


class TestLumpSymmetricLevel:
    def test_pair_of_identical_caches(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        lumped = lump_symmetric_level(pair, [3, 3])
        assert lumped.partition.size == 6
        blocks = {
            frozenset(pair.labels[s].encode() for s in block)
            for block in lumped.partition.blocks
        }
        assert blocks == {
            frozenset({"OO"}), frozenset({"OI", "IO"}), frozenset({"OF1", "F1O"}),
            frozenset({"II"}), frozenset({"IF1", "F1I"}), frozenset({"F1F1"}),
        }
        assert validate_map(lumped.map) == []

    def test_identity_for_single_sibling(self):
        m = leaf_map()
        lumped = lump_symmetric_level(m, [3])
        assert lumped.map is m
        assert lumped.partition.size == 3

    def test_block_count_law(self):
        triple = level_superpose([leaf_map()] * 3)
        lumped = lump_symmetric_level(triple, [3, 3, 3])
        assert lumped.partition.size == partition_count(3, 3) == 10

    def test_asymmetric_siblings_rejected(self):
        pair = level_superpose([leaf_map(1.0), leaf_map(2.0)])
        with pytest.raises(NotSymmetricError):
            lump_symmetric_level(pair, [3, 3])

    def test_lumped_chain_preserves_hit_metrics(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        lumped = lump_symmetric_level(pair, [3, 3])
        assert event_rate(lumped.map) == pytest.approx(event_rate(pair), abs=1e-12)

    def test_canonical_representatives_sorted(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        lumped = lump_symmetric_level(pair, [3, 3])
        for block, rep in zip(lumped.partition.blocks, lumped.partition.representatives):
            rep_forest = pair.labels[rep].forest
            assert rep_forest == min(pair.labels[s].forest for s in block)


class TestVerifyLumpability:
    def test_symmetric_partition_passes(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        lumped = lump_symmetric_level(pair, [3, 3])
        report = verify_lumpability(pair, lumped.partition)
        assert report.passed
        assert report.worst_deviation < 1e-12

    def test_bad_merge_fails_with_named_blocks(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        lumped = lump_symmetric_level(pair, [3, 3])
        blocks = list(lumped.partition.blocks)
        # Merge the all-out block with the all-in block.
        out_b = next(i for i, b in enumerate(blocks)
                     if pair.labels[b[0]].encode() == "OO")
        in_b = next(i for i, b in enumerate(blocks)
                    if pair.labels[b[0]].encode() == "II")
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
        sym = level_superpose([leaf_map(), leaf_map()])
        partition = lump_symmetric_level(sym, [3, 3]).partition
        asym = level_superpose([leaf_map(1.0), leaf_map(2.0)])
        report = verify_lumpability(asym, partition)
        assert not report.passed


class TestPermutationCovariance:
    def test_transition_rates_invariant_under_sibling_permutation(self):
        n = 3
        triple = level_superpose([leaf_map()] * n)
        q = triple.generator()
        index = {lab.forest: i for i, lab in enumerate(triple.labels)}
        rng = np.random.default_rng(3)
        perms = list(permutations(range(n)))
        for _ in range(200):
            a, b = rng.integers(0, triple.size, 2)
            f = perms[rng.integers(len(perms))]
            fa = tuple(triple.labels[a].forest[i] for i in f)
            fb = tuple(triple.labels[b].forest[i] for i in f)
            assert q[index[fa], index[fb]] == q[a, b]

    def test_no_transition_changes_two_siblings(self):
        pair = level_superpose([leaf_map(), leaf_map()])
        q = pair.generator().toarray()
        for i, j in zip(*np.nonzero(q - np.diag(np.diag(q)))):
            changed = sum(
                x != y for x, y in zip(pair.labels[i].forest, pair.labels[j].forest)
            )
            assert changed <= 1
