"""The sparse exact engine against dense oracles computed here.

Generated trees (arity 1-3, depth up to 2, exponential, Erlang and Coxian
arrivals and delays with up to 3 phases, two-phase hyperexponential delays
whose entry is spread over both phases, three-phase chain delays whose entry
skips the middle phase, and siblings repeated as copies of a drawn subtree)
are composed, and the stationary vector of the sparse solver, and of GCROT
whenever it does not report a miss, is compared with a dense solve of the
same generator.  A chain start snaps a sibling caught in a skipped phase
back to its entry, which in a lumped run must keep the run's roots sorted.
``pytest -m slow`` runs the same property on more examples, and checks that
p_hit tends to the zero-delay variant's as the delay means go to 0.  On the
same trees, lumped and unlumped, one delay pencil A + B/tau gives the labels
and ``d1`` of the tree built at delay mean tau exactly and its ``d0`` to
1e-12 relative, also on more examples under ``-m slow``.  Each cache's state
count matches the MAP its builder returns, and the recursively lumped count
equals the raw product exactly when no two adjacent siblings are copies.  GCROT is also checked against the
subtraction-free GTH elimination on small and stiff chains, against the LU
on a stiff unlumped zero-delay chain and on five lumped trees large enough
to take the GCROT path; its symmetric Gauss-Seidel preconditioner is checked
against the dense inverse, and its stall rule and the independence of its
results from earlier calls are checked directly.
"""

import logging
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy import sparse
from scipy.linalg import lapack

from ttldelay import map_algebra
from ttldelay.cache_builders import (
    CacheNode,
    CacheTreeSpec,
    build_parent_cache,
    build_single_cache,
    cache_state_count,
)
from ttldelay.cli import load_config
from ttldelay.distributions import Coxian, Erlang, Exponential, GeneralPH
from ttldelay.errors import ConditioningError
from ttldelay.hierarchy import build_tree, delay_pencil, lump_plus_width
from ttldelay.map_algebra import (
    CONDITION_RTOL,
    KRYLOV_MIN_STATES,
    STALL_CYCLES,
    KrylovMiss,
    direct_steady_state,
    event_rate,
    krylov_steady_state,
    steady_state,
)
from ttldelay.metrics import (
    _max_tree_rate,
    tree_hit_probability,
    with_delay_means,
    zero_delay_variant,
)

from conftest import flat_tree, two_level_tree

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAX_STATES = 600  # bound on the raw product of per-cache state counts
MIN_CACHE = 3  # Out, In and one fetch phase
ARRIVAL_KINDS = ("exp", "erlang", "coxian")
DELAY_KINDS = ARRIVAL_KINDS + ("hyper", "skip")


def draw_ph(draw, max_phases, kinds):
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
        delay = draw_ph(draw, min(3, budget - 2), DELAY_KINDS)
        own = 2 + _phases(delay)
        arrival = draw_ph(draw, min(3, budget // own), ARRIVAL_KINDS)
        return CacheNode(name, ttl, delay, arrival=arrival), own * _phases(arrival)
    delay = draw_ph(draw, min(3, budget // MIN_CACHE - 2), DELAY_KINDS)
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


# Delay means at which the pencil is checked, in units of the pencil's own.
PENCIL_MEANS = (0.3, 1.0, 4.5)


def check_pencil(spec):
    """One delay pencil against a tree built anew at each delay mean."""
    for lump in (False, True):
        pencil = delay_pencil(with_delay_means(spec, 1.0), lump_per_level=lump)
        for mean in PENCIL_MEANS:
            built = build_tree(with_delay_means(spec, mean), lump_per_level=lump)
            system = pencil.at(1.0 / mean)
            assert system.labels == built.labels
            np.testing.assert_array_equal(system.d1.toarray(), built.d1.toarray())
            np.testing.assert_allclose(
                system.d0.toarray(), built.d0.toarray(), rtol=1e-12, atol=0
            )


@hyp_settings(max_examples=15, deadline=None)
@given(trees())
def test_delay_pencil_matches_per_mean_builds(spec):
    check_pencil(spec)


@pytest.mark.slow
@hyp_settings(max_examples=200, deadline=None)
@given(trees())
def test_delay_pencil_matches_per_mean_builds_many(spec):
    check_pencil(spec)


def _id_free(node):
    """The subtree with its cache ids blanked, so copies compare equal."""
    return replace(node, id="", children=tuple(map(_id_free, node.children)))


def _has_sibling_run(node):
    """Whether two adjacent siblings anywhere below ``node`` are copies."""
    shapes = [_id_free(child) for child in node.children]
    return any(a == b for a, b in zip(shapes, shapes[1:])) or any(
        map(_has_sibling_run, node.children)
    )


@hyp_settings(max_examples=30, deadline=None)
@given(trees())
def test_state_counts_match_the_builders(spec):
    for node in spec.nodes():
        if node.is_leaf:
            built = build_single_cache(node.arrival, node.ttl, node.delay)
        else:
            built = build_parent_cache(node.ttl, node.delay)
        assert cache_state_count(node) == built.size
    raw = spec.state_count()
    if _has_sibling_run(spec.root):
        assert lump_plus_width(spec.root) < raw
    else:
        assert lump_plus_width(spec.root) == raw


# Small delays raise this cache's p_hit and larger ones lower it.  The gap
# to the zero-delay limit changes sign between delay means 1e-2 and 3e-2 (in
# units of the mean inter-request time), and at 1e-2 it is 4.3e-5, above the
# 3.1e-5 at 1e-3.
SIGN_CHANGE = CacheTreeSpec(
    CacheNode(
        "c0",
        Exponential(1.05),
        GeneralPH((0.05, 0.95), ((-0.2, 0.0), (0.0, -2.8))),
        arrival=Coxian((2.8, 4.3), (0.83,)),
    )
)


@pytest.mark.slow
@hyp_settings(max_examples=200, deadline=None)
@given(trees())
@example(SIGN_CHANGE)
def test_zero_delay_limit(spec):
    """p_hit tends to the zero-delay variant's as every delay mean goes to 0.

    Delay means are in units of the fastest TTL or arrival timescale.  Over
    the decade from 1e-3 to 1e-4 the gap is in its linear regime and shrinks
    at least 5x; the decade above can still hold a sign change of the gap.
    """
    p_zero = tree_hit_probability(zero_delay_variant(spec))
    unit = 1.0 / _max_tree_rate(spec)
    coarse, fine = (
        abs(tree_hit_probability(with_delay_means(spec, eps * unit)) - p_zero)
        for eps in (1e-3, 1e-4)
    )
    assert fine * 5 <= coarse
    assert fine < 1e-4


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
def test_cond_limit_just_below_the_estimate_rejects(case, monkeypatch):
    m = CONDITION_CASES[case]()
    estimate = dense_condition(m.generator().toarray())
    monkeypatch.setenv("TTLDELAY_NUMERICS", f"cond_limit={0.999 * estimate!r}")
    with pytest.raises(ConditioningError, match="condition estimate"):
        steady_state(m)
    monkeypatch.setenv("TTLDELAY_NUMERICS", f"cond_limit={1.001 * estimate!r}")
    steady_state(m)


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


SGS_CASES = {
    "two_level": two_level_tree(1.0),
    "two_level_zero_delay": zero_delay_variant(two_level_tree(1.0)),
}


@pytest.mark.parametrize("case", sorted(SGS_CASES))
def test_symmetric_gauss_seidel_is_the_dense_inverse(case):
    """The preconditioners apply M^-1 and M^-T, M = (D + U) D^-1 (D + L), from
    the scaled system with its normalisation row replaced by e_n^T."""
    q = build_tree(SGS_CASES[case], lump_per_level=False).generator()
    a, _ = map_algebra._balance_system(q)
    s = a.toarray() / -q.diagonal()
    forward, transposed = map_algebra._symmetric_gauss_seidel(sparse.csr_array(s))
    g = s.copy()
    g[-1] = 0.0
    g[-1, -1] = 1.0
    d = np.diag(np.diag(g))
    m = (d + np.triu(g, 1)) @ np.linalg.inv(d) @ (d + np.tril(g, -1))
    inverse = np.linalg.inv(m)
    columns = np.eye(len(g))
    for op, expected in ((forward, inverse), (transposed, inverse.T)):
        applied = np.column_stack([op.matvec(e) for e in columns])
        np.testing.assert_allclose(applied, expected, rtol=0, atol=1e-12)


def test_stiff_zero_delay_chain_takes_krylov(caplog):
    """The unlumped zero-delay three-level chain, delay rates up to 4e6, is
    solved by preconditioned GCROT; a sweep that also covered the
    normalisation row would make this preconditioner nearly singular."""
    spec, _ = load_config(CONFIGS / "binary_three_level_mme2.yaml")
    system = build_tree(zero_delay_variant(spec), lump_per_level=False)
    assert system.size == 1263 > KRYLOV_MIN_STATES
    with caplog.at_level(logging.DEBUG, logger="ttldelay.map_algebra"):
        krylov = steady_state(system)
    assert krylov.method == "krylov"
    assert caplog.records == []
    direct = direct_steady_state(system.generator())
    np.testing.assert_allclose(krylov.pi, direct.pi, rtol=0, atol=1e-12)
    assert krylov.condition == pytest.approx(direct.condition, rel=0.01)


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
    # Lumped wide flat levels, where GCROT without a preconditioner missed.
    "flat40": flat_tree(40),
    "flat50": flat_tree(50),
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
