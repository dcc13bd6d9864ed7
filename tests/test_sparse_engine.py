"""The sparse exact engine against dense oracles computed here.

Generated trees (arity 1-3, depth up to 2, exponential, Erlang and Coxian
arrivals and delays with up to 3 phases, two-phase hyperexponential delays
whose entry is spread over both phases, three-phase chain delays whose entry
skips the middle phase, and siblings repeated as copies of a drawn subtree)
are composed, and the stationary vector of the sparse solver, and of GCROT
whenever it does not report a miss, is compared with a dense solve of the
same generator.  A chain start snaps a sibling caught in a skipped phase
back to its entry, which in a lumped run must keep the run's roots sorted.
``pytest -m slow`` runs the same property on more examples.  GCROT is also
checked against the subtraction-free GTH elimination on small and stiff
chains, and on three lumped trees large enough to take the GCROT path; its
stall rule and the independence of its results from earlier calls are
checked directly.
"""

import logging
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.linalg import lapack

from ttldelay import map_algebra
from ttldelay.cache_builders import CacheNode, CacheTreeSpec, build_single_cache
from ttldelay.cli import load_config
from ttldelay.distributions import Coxian, Erlang, Exponential, GeneralPH
from ttldelay.errors import ConditioningError
from ttldelay.hierarchy import build_tree
from ttldelay.map_algebra import (
    CONDITION_RTOL,
    STALL_CYCLES,
    KrylovMiss,
    direct_steady_state,
    event_rate,
    krylov_steady_state,
    steady_state,
)
from ttldelay.metrics import tree_hit_probability, with_delay_means, zero_delay_variant
from ttldelay.settings import NumericSettings

from conftest import two_level_tree

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAX_STATES = 600  # bound on the raw product of per-cache state counts
MIN_CACHE = 3  # Out, In and one fetch phase
ARRIVAL_KINDS = ("exp", "erlang", "coxian")
DELAY_KINDS = ARRIVAL_KINDS + ("hyper", "skip")


def _ph(draw, max_phases, kinds):
    kind = draw(st.sampled_from(kinds))
    rate = draw(st.floats(0.2, 5.0))
    if kind == "exp" or max_phases < 2 or (kind == "skip" and max_phases < 3):
        return Exponential(rate)
    if kind == "hyper":
        p = draw(st.floats(0.05, 0.95))
        other = draw(st.floats(0.2, 5.0))
        return GeneralPH((p, 1.0 - p), ((-rate, 0.0), (0.0, -other)))
    if kind == "skip":
        p = draw(st.floats(0.05, 0.95))
        r2, r3 = (draw(st.floats(0.2, 5.0)) for _ in range(2))
        chain = ((-rate, rate, 0.0), (0.0, -r2, r2), (0.0, 0.0, -r3))
        return GeneralPH((p, 0.0, 1.0 - p), chain)
    k = draw(st.integers(2, max_phases))
    if kind == "erlang":
        return Erlang(k, rate)
    rates = tuple(draw(st.floats(0.2, 5.0)) for _ in range(k))
    probs = tuple(draw(st.floats(0.05, 0.95)) for _ in range(k - 1))
    return Coxian(rates, probs)


def _phases(d):
    return len(d.ph()[0])


def _fresh_ids(node, ids):
    """A copy of the subtree under new cache ids."""
    children = tuple(_fresh_ids(child, ids) for child in node.children)
    return replace(node, id=f"c{next(ids)}", children=children)


def _node(draw, depth, budget, ids, root=False):
    """A subtree whose raw product state count stays within ``budget``.

    The root has exactly ``depth`` levels below it; other nodes at most.
    Returns the node and its count.
    """
    ttl = Exponential(draw(st.floats(0.2, 2.0)))
    name = f"c{next(ids)}"
    inner = depth > 0 and budget >= MIN_CACHE**2 and (root or draw(st.booleans()))
    if not inner:
        delay = _ph(draw, min(3, budget - 2), DELAY_KINDS)
        own = 2 + _phases(delay)
        arrival = _ph(draw, min(3, budget // own), ARRIVAL_KINDS)
        return CacheNode(name, ttl, delay, arrival=arrival), own * _phases(arrival)
    delay = _ph(draw, min(3, budget // MIN_CACHE - 2), DELAY_KINDS)
    own = 2 + _phases(delay)
    remaining = budget // own
    arity = draw(st.integers(1, 3))
    while remaining < MIN_CACHE**arity:
        arity -= 1
    children, total = [], own
    while len(children) < arity:
        # Leave room for the remaining siblings at their smallest size.
        left = arity - 1 - len(children)
        child, size = _node(draw, depth - 1, remaining // MIN_CACHE**left, ids)
        children.append(child)
        remaining //= size
        total *= size
        # An identical next sibling, which per-level lumping merges.
        if left and remaining // size >= MIN_CACHE ** (left - 1) and draw(st.booleans()):
            children.append(_fresh_ids(child, ids))
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


def gth_stationary(q):
    """The stationary vector by Grassmann-Taksar-Heyman state reduction.

    Only sums and products of nonnegative off-diagonal rates occur, so no
    digits cancel, however stiff the chain (Grassmann, Taksar & Heyman,
    Oper. Res. 1985).
    """
    a = np.array(q, dtype=float)
    np.fill_diagonal(a, 0.0)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def dense_condition(q):
    """1-norm condition estimate of the same system from LAPACK ``dgecon``."""
    a, _ = balance_system(q)
    lu, _ = scipy.linalg.lu_factor(a)
    anorm = np.abs(a).sum(axis=0).max()
    return 1.0 / lapack.dgecon(lu, anorm, norm="1")[0]


def check_against_dense(spec):
    system = build_tree(spec, lump_per_level=False)
    assert system.size <= MAX_STATES
    q = system.generator()
    dense = dense_stationary(q.toarray())
    np.testing.assert_allclose(steady_state(system).pi, dense, rtol=0, atol=1e-12)
    try:
        krylov = krylov_steady_state(q)
    except KrylovMiss:
        pass
    else:
        np.testing.assert_allclose(krylov.pi, dense, rtol=0, atol=1e-10)
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


GTH_CASES = {
    "single_cache": ("single_cache_mmm", False),
    "two_level": ("binary_two_level_mmm", False),
    "three_level": ("binary_three_level_mme2", True),
}


@pytest.mark.parametrize("zero", [False, True], ids=["delayed", "zero_delay"])
@pytest.mark.parametrize("case", sorted(GTH_CASES))
def test_krylov_matches_gth(case, zero):
    name, lump = GTH_CASES[case]
    spec, _ = load_config(CONFIGS / f"{name}.yaml")
    q = build_tree(zero_delay_variant(spec) if zero else spec, lump_per_level=lump).generator()
    krylov = krylov_steady_state(q)
    assert krylov.method == "krylov"
    np.testing.assert_allclose(krylov.pi, gth_stationary(q.toarray()), rtol=0, atol=1e-12)
    assert krylov.condition == pytest.approx(direct_steady_state(q).condition, rel=0.01)


def _uniform_tree(arity, depth, delay, arrival):
    """An arity-ary tree of the given depth; TTL means 2, 4, 6 from the leaves up."""

    def node(name, level):
        ttl = Exponential(1.0 / (2.0 * (level + 1)))
        if level == 0:
            return CacheNode(name, ttl, delay, arrival=arrival)
        children = tuple(node(f"{name}{i}", level - 1) for i in range(arity))
        return CacheNode(name, ttl, delay, children=children)

    return CacheTreeSpec(node("c", depth))


TERNARY = _uniform_tree(3, 2, Exponential(1.0), Exponential(1.0))
# At this delay mean GMRES(60) reached relative residuals 1.11e-13, 1.003e-13
# and 9.8e-14 against PI_RTOL = 1e-13, and its stall rule sent the solve to LU.
TERNARY_SLOW_CYCLE = with_delay_means(TERNARY, 3.0)

LARGE_CASES = {
    "ternary_depth2": TERNARY,
    "ternary_depth2_tau3": TERNARY_SLOW_CYCLE,
    "coxian_three_level": _uniform_tree(2, 2, Erlang(2, 2.0), Coxian((1.5, 0.75), (0.5,))),
}


def test_slow_cycle_near_target_is_not_a_miss(caplog):
    system = build_tree(TERNARY_SLOW_CYCLE, lump_per_level=True)
    with caplog.at_level(logging.DEBUG, logger="ttldelay.map_algebra"):
        ss = steady_state(system)
    assert ss.method == "krylov"
    assert caplog.records == []


# A residual stuck far from the target stalls once STALL_CYCLES cycles pass
# without halving it; one stuck within STALL_BAND times the target runs to
# the cap, 3 * ceil(log2(1 / CONDITION_RTOL)) = 42 cycles.
@pytest.mark.parametrize("stuck_at, cycles", [(0.5, STALL_CYCLES + 1), (5 * CONDITION_RTOL, 42)])
def test_stuck_solve_is_a_miss(monkeypatch, stuck_at, cycles):
    calls = []

    def stuck(a, b, **kwargs):
        calls.append(kwargs["discard_C"])
        return (1.0 - stuck_at) * b, 1

    monkeypatch.setattr(map_algebra, "gcrotmk", stuck)
    with pytest.raises(KrylovMiss, match=f"after {cycles} cycles"):
        map_algebra._gcrotmk(np.eye(3), np.ones(3), CONDITION_RTOL, [])
    assert calls == [True] + [False] * (cycles - 1)


def test_krylov_results_depend_on_the_generator_alone():
    spec, _ = load_config(CONFIGS / "binary_three_level_mme2.yaml")
    first, other = (
        build_tree(with_delay_means(spec, mean), lump_per_level=True).generator()
        for mean in (1.0, 2.0)
    )
    np.random.seed(12345)
    before = np.random.get_state()
    a = krylov_steady_state(first)
    krylov_steady_state(other)
    again = krylov_steady_state(first)
    assert np.array_equal(a.pi, again.pi)
    assert a.condition == again.condition
    after = np.random.get_state()
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_large_lumped_trees_take_krylov(case):
    spec = LARGE_CASES[case]
    system = build_tree(spec, lump_per_level=True)
    krylov = steady_state(system)
    assert krylov.method == "krylov"
    direct = direct_steady_state(system.generator())
    rate = spec.total_request_rate()
    p_krylov = 1.0 - event_rate(system, krylov) / rate
    p_direct = 1.0 - event_rate(system, direct) / rate
    assert p_krylov == pytest.approx(p_direct, rel=0, abs=1e-12)
