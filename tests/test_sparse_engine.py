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
1e-12 relative, also on more examples under ``-m slow``.  The pencil's exact
zero-delay limit, on the non-fetching states, equals Richardson
extrapolation 2 p(2r) - p(r) of the same pencil to 1e-10, lumped and
unlumped alike (more examples under ``-m slow``), and a pencil whose delay
transitions do not keep their end state is refused.  Each cache's state
count matches the MAP its builder returns, and the recursively lumped count
equals the raw product exactly when no two siblings are copies.  Shuffling
every parent's children moves no lumped state count, p_hit by at most 1e-10
and the approximation by at most 1e-12 relative.  GCROT is also checked against the
subtraction-free GTH elimination on small and stiff chains, against the LU
on a stiff unlumped zero-delay chain and on five lumped trees large enough
to take the GCROT path; its symmetric Gauss-Seidel preconditioner is checked
against the dense inverse, and its stall rule and the independence of its
results from earlier calls are checked directly.  The matrices both paths
hand to SuperLU and GCROT equal, array for array, their former
constructions from COO triplets and SciPy's stacking and triangle helpers,
and the recurrent-class count matches its former one on reducible chains.
"""

import logging
import random
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from ttldelay import map_algebra
from ttldelay.approximation import hierarchy_approx
from ttldelay.cache_builders import build_parent_cache, build_single_cache
from ttldelay.cli import load_config
from ttldelay.distributions import Coxian, Erlang, Exponential, GeneralPH
from ttldelay.errors import ConditioningError, PencilLimitError
from ttldelay.hierarchy import DelayPencil, build_tree, delay_pencil
from ttldelay.map_algebra import (
    CONDITION_RTOL,
    KRYLOV_MIN_STATES,
    STALL_CYCLES,
    KrylovMiss,
    StateCodes,
    direct_steady_state,
    event_rate,
    krylov_steady_state,
    off_diagonal,
    steady_state,
    triplet_matrix,
)
from ttldelay.metrics import hit_probability, tree_hit_probability
from ttldelay.spec import (
    CacheNode,
    CacheTreeSpec,
    _max_tree_rate,
    cache_state_count,
    lump_plus_width,
    with_delay_means,
    zero_delay_variant,
)

from conftest import flat_tree, labels, reference_labels, single_mmm, two_level_tree

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
def trees(draw, max_states=MAX_STATES):
    root, _ = _node(draw, draw(st.integers(0, 2)), max_states, count(), root=True)
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
            assert labels(system) == labels(built)
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


# Factor on the delay rates, times the tree's fastest TTL or arrival rate,
# at which Richardson extrapolation stands in for the zero-delay limit: its
# O(1/r^2) remainder is near 1e-12, and the chain is not yet stiff enough
# for rounding to matter.
RICHARDSON_RATE = 1e6


def richardson_zero_delay(pencil, spec):
    """2 p(2r) - p(r) from the pencil of ``spec`` at delay mean 1, which
    cancels the 1/r term of p(r) - p(infinity)."""
    r = RICHARDSON_RATE * _max_tree_rate(spec)
    total = spec.total_request_rate()
    return 2 * hit_probability(pencil.at(2 * r), total) - hit_probability(pencil.at(r), total)


def check_limit(spec):
    """The exact zero-delay limit of the pencil against Richardson
    extrapolation of the same pencil, lumped and unlumped."""
    total = spec.total_request_rate()
    limits = []
    for lump in (False, True):
        pencil = delay_pencil(with_delay_means(spec, 1.0), lump_per_level=lump)
        limit = pencil.limit()
        rows, _, rates = off_diagonal(pencil.b)
        assert limit.size == pencil.a.shape[0] - np.unique(rows[rates != 0]).size
        limits.append(hit_probability(limit, total))
        assert limits[-1] == pytest.approx(richardson_zero_delay(pencil, spec), abs=1e-10)
    assert limits[1] == pytest.approx(limits[0], abs=1e-12)


@hyp_settings(max_examples=15, deadline=None)
@given(trees())
def test_pencil_limit_matches_richardson(spec):
    check_limit(spec)


@pytest.mark.slow
@hyp_settings(max_examples=300, deadline=None)
@given(trees())
def test_pencil_limit_matches_richardson_many(spec):
    check_limit(spec)


def test_pencil_limit_of_the_single_cache():
    """P_h = tau_T / (tau_T + 1) for the M/M/M cache without delay."""
    pencil = delay_pencil(single_mmm(1.0, tau_t=2.0))
    assert pencil.limit().size == 2  # Out and In; the fetch phase is gone
    assert hit_probability(pencil.limit(), 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


# The 1e6 emulation's error here is 1.05e-6 relative: limit 0.096761431146,
# emulation 0.096761533053.
EMULATION_MISS = CacheTreeSpec(
    CacheNode(
        "c0",
        Exponential(1.5726900644118222),
        Erlang(2, 1.2769581049088077),
        children=(
            CacheNode(
                "c1",
                Exponential(1.819718741278386),
                Exponential(1.8064755819581397),
                arrival=Erlang(3, 1.0418136034108365),
            ),
        ),
    )
)


def test_pencil_limit_where_the_emulation_misses():
    check_limit(EMULATION_MISS)
    limit = delay_pencil(EMULATION_MISS).limit()
    p = hit_probability(limit, EMULATION_MISS.total_request_rate())
    assert p == pytest.approx(0.096761431146, abs=1e-12)


def test_pencil_limit_rejects_a_delay_edge_between_end_states():
    """States 0 and 1 fetch into 2 and 3; the delay edge 0 -> 1 would leave
    state 0 with two end states."""
    b = sparse.csr_array(np.array([
        [-2.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]))
    a = sparse.csr_array(np.diag([0.0, 0.0, -1.0, -1.0]))
    d1 = sparse.csr_array((np.ones(2), ([2, 3], [1, 0])), shape=(4, 4))
    codes = StateCodes(np.arange(4, dtype=np.uint8)[:, None], (((), False),))
    with pytest.raises(PencilLimitError, match="end state"):
        DelayPencil(a, b, d1, codes).limit()


def _id_free(node):
    """The subtree with its cache ids blanked, so copies compare equal."""
    return replace(node, id="", children=tuple(map(_id_free, node.children)))


def _has_sibling_run(node):
    """Whether two siblings anywhere below ``node`` are copies, wherever
    they stand."""
    shapes = [_id_free(child) for child in node.children]
    return len(set(shapes)) < len(shapes) or any(map(_has_sibling_run, node.children))


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


def _shuffled(node, rng):
    """The subtree with every parent's children in a random order."""
    children = [_shuffled(child, rng) for child in node.children]
    rng.shuffle(children)
    return replace(node, children=tuple(children))


# Two copies apart, which the shuffle of ``random.Random(0)`` brings together.
APART = CacheTreeSpec(CacheNode("r", Exponential(0.25), Exponential(1.0), children=(
    CacheNode("a1", Exponential(0.5), Erlang(2, 2.0), arrival=Exponential(1.0)),
    CacheNode("b", Exponential(1.0), Exponential(1.0), arrival=Coxian((3.0, 0.75), (0.4,))),
    CacheNode("a2", Exponential(0.5), Erlang(2, 2.0), arrival=Exponential(1.0)),
)))


@hyp_settings(max_examples=20, deadline=None)
@given(trees(), st.randoms(use_true_random=False))
@example(APART, random.Random(0))
def test_sibling_order_moves_no_count_and_no_answer(spec, rng):
    # Copies drawn next to each other stand apart once shuffled; they still
    # form one class, whose states the codes list first.
    shuffled = CacheTreeSpec(_shuffled(spec.root, rng))
    total = spec.total_request_rate()
    system, moved = (build_tree(s, lump_per_level=True) for s in (spec, shuffled))
    assert moved.size == system.size
    assert labels(moved) == tuple(reference_labels(shuffled.root, lump_per_level=True))
    assert hit_probability(moved, total) == pytest.approx(hit_probability(system, total), abs=1e-10)
    for strategy in ("renewal", "poisson"):
        assert hierarchy_approx(shuffled, strategy).p_hit_sys == pytest.approx(
            hierarchy_approx(spec, strategy).p_hit_sys, rel=1e-12, abs=0)


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
# Here the sign change lies lower, between 1e-2 and 1e-3 (in units of the
# fastest TTL or arrival timescale): the gap is -7.0e-5 at 1e-2, 5.9e-7 at
# 1e-3, then 1.38e-7, 1.46e-8 and 1.47e-9 at 1e-4, 1e-5 and 1e-6.
LATE_SIGN_CHANGE = CacheTreeSpec(
    CacheNode(
        "c0",
        Exponential(0.546875),
        Exponential(1.0),
        arrival=Coxian((1.65625, 3.5), (0.78125,)),
    )
)


@pytest.mark.slow
@hyp_settings(max_examples=200, deadline=None)
@given(trees())
@example(spec=SIGN_CHANGE)
@example(spec=LATE_SIGN_CHANGE)
def test_zero_delay_limit(spec):
    """p_hit tends to the delay pencil's exact zero-delay limit as every
    delay mean goes to 0.

    Delay means are in units of the fastest TTL or arrival timescale.  Over
    the decade from 1e-4 to 1e-5 the gap is in its linear regime and shrinks
    at least 5x; the decades above 1e-4 can still hold a sign change of the
    gap, as ``LATE_SIGN_CHANGE`` does between 1e-2 and 1e-3.
    """
    limit = delay_pencil(spec, lump_per_level=True).limit()
    p_zero = hit_probability(limit, spec.total_request_rate())
    unit = 1.0 / _max_tree_rate(spec)
    coarse, fine = (
        abs(tree_hit_probability(with_delay_means(spec, eps * unit)) - p_zero)
        for eps in (1e-4, 1e-5)
    )
    assert fine * 5 <= coarse
    assert coarse < 1e-4


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
    monkeypatch.setattr(map_algebra, "COND_LIMIT", 0.999 * estimate)
    with pytest.raises(ConditioningError, match="condition estimate"):
        steady_state(m)
    monkeypatch.setattr(map_algebra, "COND_LIMIT", 1.001 * estimate)
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


# The systems the steady-state paths hand to SuperLU and GCROT, built here
# the way the engine built them from COO triplets and SciPy's stacking,
# slicing and triangle helpers, before it built them from q's CSR arrays.
def old_balance_system(q):
    n = q.shape[0]
    return sparse.vstack([q.T.tocsr()[:-1], np.ones((1, n))], format="csc")


def old_scaled_system(q):
    return (old_balance_system(q) @ sparse.diags_array(1.0 / -q.diagonal())).tocsr()


def old_gauss_seidel_parts(s):
    n = s.shape[0]
    s = s.tocoo()
    keep = s.row < n - 1
    g = triplet_matrix(n, (s.row[keep], s.col[keep], s.data[keep]), ([n - 1], [n - 1], [1.0]))
    return [part(g, format="csc") for part in (sparse.tril, sparse.triu)]


def old_recurrent_class_count(q):
    n_comp, assignment = connected_components(q != 0, directed=True, connection="strong")
    leaves = np.zeros(n_comp, dtype=bool)
    rows, cols, rates = off_diagonal(q)
    src, dst = assignment[rows[rates > 0]], assignment[cols[rates > 0]]
    leaves[np.unique(src[src != dst])] = True
    return int(np.sum(~leaves))


class _Handed(Exception):
    """Stops a GCROT solve once its system is captured."""


def solver_inputs(q):
    """What ``direct_steady_state(q)`` hands to SuperLU, then what
    ``krylov_steady_state(q)`` hands to SuperLU and to its first GCROT solve."""
    handed, real_splu = [], map_algebra.splu

    def splu(a, **kwargs):
        handed.append(a.copy())
        return real_splu(a, **kwargs)

    def gcrot(a, *args, **kwargs):
        handed.append(a.copy())
        raise _Handed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(map_algebra, "splu", splu)
        patch.setattr(map_algebra, "_gcrotmk", gcrot)
        direct_steady_state(q)
        with pytest.raises(_Handed):
            krylov_steady_state(q)
    return handed


def assert_same_arrays(new, old):
    assert new.format == old.format and new.dtype == old.dtype
    for name in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(new, name), getattr(old, name))
    assert new.data.tobytes() == old.data.tobytes()


def check_solver_inputs(system):
    q = system.generator()
    assert map_algebra._recurrent_class_count(q) == old_recurrent_class_count(q) == 1
    lu, lower, upper, scaled = solver_inputs(q)
    old_scaled = old_scaled_system(q)
    assert_same_arrays(lu, old_balance_system(q))
    assert_same_arrays(scaled, old_scaled)
    for new, old in zip((lower, upper), old_gauss_seidel_parts(old_scaled)):
        assert_same_arrays(new, old)


@hyp_settings(max_examples=10, deadline=None)
@given(trees(max_states=3 * KRYLOV_MIN_STATES), st.booleans())
def test_solver_inputs_match_the_triplet_constructions(spec, lump):
    check_solver_inputs(build_tree(spec, lump_per_level=lump))


# A pencil point at tau_delta = 0.25 on both sides of KRYLOV_MIN_STATES: the
# three-level config has 834 states lumped and 4,218 unlumped.
@pytest.mark.parametrize("lump", [True, False], ids=["lumped", "unlumped"])
def test_solver_inputs_match_at_a_pencil_point(lump):
    spec, _ = load_config(CONFIGS / "binary_three_level_mme2.yaml")
    system = delay_pencil(spec, lump_per_level=lump).at(1.0 / 0.25)
    assert (system.size > KRYLOV_MIN_STATES) != lump
    check_solver_inputs(system)


def _chain(n, moves):
    """The generator of ``n`` states with the off-diagonal rates ``moves``."""
    q = np.zeros((n, n))
    for (i, j), rate in moves.items():
        q[i, j] = rate
    q -= np.diag(q.sum(axis=1))
    return sparse.csr_array(q)


@pytest.mark.parametrize("q, expected", [
    (_chain(4, {(0, 1): 1.0, (1, 0): 2.0, (2, 3): 0.5, (3, 2): 1.5}), 2),
    (_chain(4, {(0, 1): 1.0, (1, 2): 2.0, (2, 1): 0.5, (0, 3): 1.0, (3, 0): 3.0}), 1),
    (_chain(5, {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (4, 2): 1.0}), 1),
], ids=["two_closed_classes", "transient_class", "transient_pair_into_a_cycle"])
def test_recurrent_class_count(q, expected):
    assert map_algebra._recurrent_class_count(q) == old_recurrent_class_count(q) == expected
