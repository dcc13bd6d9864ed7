"""The multiset kernel ``spec.lumped_copies`` against the key search it replaced.

The exact engine's lumped level used to find each move's target block by a
binary search of the target's code row among the level's byte keys
(``map_algebra.row_keys``).  That search is kept here as the reference: on
every chain tried, the kernel's ranks must be the indices it found.
"""

from itertools import chain, combinations_with_replacement

import numpy as np
import pytest

from ttldelay.map_algebra import row_keys
from ttldelay.spec import lumped_copies, partition_count


def searched_lumped_triplets(m, n, rows, cols, rates):
    """The lumped triplets with every target block found by ``np.searchsorted``
    over the byte keys of the lexicographic listing."""
    count = partition_count(m, n)
    ranks = chain.from_iterable(combinations_with_replacement(range(m), n))
    blocks = np.fromiter(ranks, np.intp, count * n).reshape(count, n)
    i, j = np.nonzero(np.diff(blocks, axis=1, prepend=-1))
    a, c = blocks[i, j], np.diff(i * n + j, append=count * n)
    keys = row_keys(blocks.astype(np.uint8))
    indptr = np.searchsorted(rows, np.arange(m + 1))
    starts, sizes = indptr[a], np.diff(indptr)[a]
    pick = np.repeat(np.arange(len(a)), sizes)
    entry = np.arange(len(pick)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    moved = blocks[i[pick]]
    moved[np.arange(len(pick)), j[pick]] = cols[entry]
    moved.sort(axis=1)
    targets = np.searchsorted(keys, row_keys(moved.astype(np.uint8)))
    return blocks, (i[pick], targets, c[pick] * rates[entry])


def random_chain(rng, m):
    """Row-sorted triplets of a random sparse m-state chain, diagonal included."""
    dense = np.where(rng.random((m, m)) < 0.5, rng.uniform(0.1, 3.0, (m, m)), 0.0)
    dense[np.diag_indices(m)] = -dense.sum(axis=1) - 1.0
    rows, cols = dense.nonzero()
    return rows, cols, dense[rows, cols]


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_ranks_equal_the_key_search(m, n):
    triplets = random_chain(np.random.default_rng(10 * m + n), m)
    blocks, [lumped] = lumped_copies(m, n, triplets)
    expected_blocks, expected = searched_lumped_triplets(m, n, *triplets)
    np.testing.assert_array_equal(blocks, expected_blocks)
    for got, want in zip(lumped, expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("m, n", [(1, 4), (3, 1), (4, 3), (7, 5)])
def test_every_block_ranks_to_its_own_index(m, n):
    # A self-move leaves a block where it is, so its target is its own rank.
    states = np.arange(m)
    blocks, [(rows, cols, rates)] = lumped_copies(m, n, (states, states, np.ones(m)))
    assert len(blocks) == partition_count(m, n)
    np.testing.assert_array_equal(cols, rows)
    # Each block keeps one self-move per distinct state, weighted by its copies.
    np.testing.assert_array_equal(np.bincount(rows, rates), np.full(len(blocks), n))


def test_several_matrices_share_one_listing():
    rng = np.random.default_rng(3)
    first, second = random_chain(rng, 4), random_chain(rng, 4)
    blocks, lumped = lumped_copies(4, 3, first, second)
    for triplets, got in zip((first, second), lumped):
        _, want = searched_lumped_triplets(4, 3, *triplets)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
