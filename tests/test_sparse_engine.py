"""The sparse exact engine against dense oracles computed here.

Generated trees (arity 1-3, depth up to 2, exponential, Erlang and Coxian
arrivals and delays with up to 3 phases) are composed, and the stationary
vector of the sparse solver is compared with a dense solve of the same
generator.  ``pytest -m slow`` runs the same property on more examples.
"""

from itertools import count

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.linalg import lapack

from ttldelay.cache_builders import CacheNode, CacheTreeSpec, build_single_cache
from ttldelay.distributions import Coxian, Erlang, Exponential
from ttldelay.errors import ConditioningError
from ttldelay.hierarchy import build_tree
from ttldelay.map_algebra import steady_state
from ttldelay.metrics import tree_hit_probability, zero_delay_variant
from ttldelay.settings import NumericSettings

from conftest import two_level_tree

MAX_STATES = 600  # bound on the raw product of per-cache state counts
MIN_CACHE = 3  # Out, In and one fetch phase


def _ph(draw, max_phases):
    kind = draw(st.sampled_from(["exp", "erlang", "coxian"]))
    rate = draw(st.floats(0.2, 5.0))
    if kind == "exp" or max_phases < 2:
        return Exponential(rate)
    k = draw(st.integers(2, max_phases))
    if kind == "erlang":
        return Erlang(k, rate)
    rates = tuple(draw(st.floats(0.2, 5.0)) for _ in range(k))
    probs = tuple(draw(st.floats(0.05, 0.95)) for _ in range(k - 1))
    return Coxian(rates, probs)


def _phases(d):
    return len(d.ph()[0])


def _node(draw, depth, budget, ids, root=False):
    """A subtree whose raw product state count stays within ``budget``.

    The root has exactly ``depth`` levels below it; other nodes at most.
    Returns the node and its count.
    """
    ttl = Exponential(draw(st.floats(0.2, 2.0)))
    name = f"c{next(ids)}"
    inner = depth > 0 and budget >= MIN_CACHE**2 and (root or draw(st.booleans()))
    if not inner:
        delay = _ph(draw, min(3, budget - 2))
        own = 2 + _phases(delay)
        arrival = _ph(draw, min(3, budget // own))
        return CacheNode(name, ttl, delay, arrival=arrival), own * _phases(arrival)
    delay = _ph(draw, min(3, budget // MIN_CACHE - 2))
    own = 2 + _phases(delay)
    remaining = budget // own
    arity = draw(st.integers(1, 3))
    while remaining < MIN_CACHE**arity:
        arity -= 1
    children, total = [], own
    for i in range(arity):
        # Leave room for the remaining siblings at their smallest size.
        child, size = _node(draw, depth - 1, remaining // MIN_CACHE ** (arity - 1 - i), ids)
        children.append(child)
        remaining //= size
        total *= size
    return CacheNode(name, ttl, delay, children=tuple(children)), total


@st.composite
def trees(draw):
    root, _ = _node(draw, draw(st.integers(0, 2)), MAX_STATES, count(), root=True)
    return CacheTreeSpec(root)


def balance_system(q):
    """q^T with its last balance row replaced by normalization: A pi = e_n."""
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(q.shape[0])
    b[-1] = 1.0
    return a, b


def dense_stationary(q):
    """The stationary vector by a dense LU solve."""
    return scipy.linalg.solve(*balance_system(q))


def dense_condition(q):
    """1-norm condition estimate of the same system from LAPACK ``dgecon``."""
    a, _ = balance_system(q)
    lu, _ = scipy.linalg.lu_factor(a)
    anorm = np.abs(a).sum(axis=0).max()
    return 1.0 / lapack.dgecon(lu, anorm, norm="1")[0]


def check_against_dense(spec):
    system = build_tree(spec, lump_per_level=False)
    assert system.size <= MAX_STATES
    pi = steady_state(system).pi
    np.testing.assert_allclose(
        pi, dense_stationary(system.generator().toarray()), rtol=0, atol=1e-12
    )
    p_plain = tree_hit_probability(spec, lump_per_level=False)
    p_lumped = tree_hit_probability(spec, lump_per_level=True)
    assert p_lumped == pytest.approx(p_plain, abs=1e-10)
    assert 0.0 <= p_plain <= 1.0


@hyp_settings(max_examples=15, deadline=None)
@given(trees())
def test_sparse_engine_matches_dense_oracle(spec):
    check_against_dense(spec)


@pytest.mark.slow
@hyp_settings(max_examples=300, deadline=None)
@given(trees())
def test_sparse_engine_matches_dense_oracle_many(spec):
    check_against_dense(spec)


CONDITION_CASES = {
    "single_cache": lambda: build_single_cache(
        Exponential(1.0), Exponential(0.5), Exponential(1.0)
    ),
    "two_level_zero_delay": lambda: build_tree(
        zero_delay_variant(two_level_tree(1.0)), lump_per_level=False
    ),
}


@pytest.mark.parametrize("case", sorted(CONDITION_CASES))
def test_condition_estimate_matches_dgecon(case):
    m = CONDITION_CASES[case]()
    expected = dense_condition(m.generator().toarray())
    assert steady_state(m).condition == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("case", sorted(CONDITION_CASES))
def test_cond_limit_just_below_the_estimate_rejects(case):
    m = CONDITION_CASES[case]()
    estimate = dense_condition(m.generator().toarray())
    with pytest.raises(ConditioningError, match="condition estimate"):
        steady_state(m, settings=NumericSettings(cond_limit=0.999 * estimate))
    steady_state(m, settings=NumericSettings(cond_limit=1.001 * estimate))


def test_steady_state_leaves_global_random_state_alone():
    m = CONDITION_CASES["two_level_zero_delay"]()
    np.random.seed(12345)
    before = np.random.get_state()
    steady_state(m)
    after = np.random.get_state()
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
