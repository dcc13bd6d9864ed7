from itertools import product

import numpy as np
import pytest

from ttldelay import hierarchy
from ttldelay.cache_builders import (
    build_parent_cache,
    build_single_cache,
    fetch_entry_distribution,
)
from ttldelay.distributions import Erlang, Exponential, GeneralPH
from ttldelay.errors import ConfigError
from ttldelay.hierarchy import build_tree, level_superpose, line_superpose
from ttldelay.lumping import lump_symmetric_level
from ttldelay.map_algebra import (
    event_rate,
    kronecker_sum,
    steady_state,
)
from ttldelay.metrics import hit_probability, tree_hit_probability
from ttldelay.simulator import SimConfig, simulate
from ttldelay.spec import CacheNode, CacheTreeSpec

from conftest import (
    encode, labels, reference_labels, two_level_tree, single_mmm, validate_map,
)


def mmm_leaf():
    return build_single_cache(Exponential(1.0), Exponential(0.5), Exponential(1.0))


def mmm_parent(ttl_rate=0.25, delay_rate=1.0):
    return build_parent_cache(Exponential(ttl_rate), Exponential(delay_rate))


class TestLevelSuperpose:
    def test_pair_of_leaves(self):
        pair = level_superpose([mmm_leaf(), mmm_leaf()])
        assert pair.size == 9
        assert validate_map(pair) == []

    def test_singleton(self):
        m = mmm_leaf()
        same = level_superpose([m])
        assert same is m

    def test_three_identical(self):
        triple = level_superpose([mmm_leaf()] * 3)
        assert triple.size == 27

    def test_order_independence_of_identical_siblings(self):
        a = build_single_cache(Exponential(1.0), Exponential(0.5), Exponential(1.0))
        b = build_single_cache(Exponential(2.0), Exponential(0.5), Exponential(1.0))
        m1 = level_superpose([a, b, a])
        m2 = level_superpose([a, a, b])
        r1 = event_rate(m1)
        r2 = event_rate(m2)
        assert r1 == pytest.approx(r2, abs=1e-10)


class TestLineSuperpose:
    def test_two_caches_in_line_state_set(self):
        line = line_superpose(mmm_parent(), mmm_leaf(), [1.0], [([1.0], 1)])
        names = {encode(forest) for forest in labels(line)}
        assert names == {"(O)O", "(O)I", "(I)O", "(I)I", "(F1)O", "(F1)I", "(F1)F1"}
        assert validate_map(line) == []

    def test_two_caches_in_line_active_transitions(self):
        line = line_superpose(mmm_parent(), mmm_leaf(), [1.0], [([1.0], 1)])
        forests = labels(line)
        actives = {
            (encode(forests[i]), encode(forests[j]))
            for i, j in zip(*np.nonzero(line.d1.toarray()))
        }
        assert actives == {("(O)O", "(F1)F1"), ("(F1)F1", "(F1)F1")}

    def test_erlang_parent_delay_valid_states(self):
        parent = build_parent_cache(Exponential(0.25), Erlang(2, 2.0))
        line = line_superpose(parent, mmm_leaf(), [0.0, 1.0], [([1.0], 1)])
        # Enumerate: child in {O, I, F1} x parent in {O, I, F1, F2}; a fetching
        # parent requires the child fetching, so {O,I} x {F1,F2} drop out.
        assert line.size == 12 - 4

    def test_pair_plus_parent_valid_states(self):
        pair = level_superpose([mmm_leaf(), mmm_leaf()])
        tree = line_superpose(mmm_parent(), pair, [1.0], [([1.0], 1)] * 2)
        # Invalid states: parent fetching while both children are in {O, I}.
        expected = 27 - 4
        assert tree.size == expected
        brute = sum(
            1
            for c1, c2, p in product("OIF", repeat=3)
            if not (p == "F" and c1 in "OI" and c2 in "OI")
        )
        assert tree.size == brute

    def test_active_contract_after_composition(self):
        # Every active transition runs under a fetching parent or starts the
        # parent's fetch chain.
        pair = level_superpose([mmm_leaf(), mmm_leaf()])
        tree = line_superpose(mmm_parent(), pair, [1.0], [([1.0], 1)] * 2)
        forests = labels(tree)
        for i, j in zip(*np.nonzero(tree.d1.toarray())):
            src_parent = forests[i][0][1]
            dst_parent = forests[j][0][1]
            assert src_parent[0] == "F" or (
                src_parent[0] == "O" and dst_parent[0] == "F"
            )

    def test_no_invalid_state_survives(self):
        pair = level_superpose([mmm_leaf(), mmm_leaf()])
        tree = line_superpose(mmm_parent(), pair, [1.0], [([1.0], 1)] * 2)
        for forest in labels(tree):
            children, parent_sym = forest[0]
            if parent_sym[0] == "F":
                assert any(node[1][0] == "F" for node in children)

    def test_conservation(self):
        for delay in (Exponential(1.0), Erlang(3, 3.0)):
            parent = build_parent_cache(Exponential(0.25), delay)
            pair = level_superpose([mmm_leaf(), mmm_leaf()])
            entry = fetch_entry_distribution(delay)
            assert validate_map(line_superpose(parent, pair, entry, [([1.0], 1)] * 2)) == []

    def test_child_entry_count_must_match_children(self):
        pair = level_superpose([mmm_leaf(), mmm_leaf()])
        with pytest.raises(ConfigError, match="child entry distributions"):
            line_superpose(mmm_parent(), pair, [1.0], [([1.0], 1)])


class TestBuildTree:
    def test_single_leaf_equals_single_cache(self):
        spec = single_mmm(1.0)
        tree = build_tree(spec)
        direct = build_single_cache(Exponential(1.0), Exponential(0.5), Exponential(1.0))
        np.testing.assert_allclose(tree.d0.toarray(), direct.d0.toarray())
        np.testing.assert_allclose(tree.d1.toarray(), direct.d1.toarray())

    def test_two_level_tree_zero_delay(self):
        # At zero delay the engine reproduces the reference two-level value.
        tree = build_tree(two_level_tree(0))
        p = hit_probability(tree, 2.0)
        assert p == pytest.approx(0.9051, abs=1e-3)

    def test_two_level_tree_delay_regression(self):
        # Engine values under the normative escalation semantics; the
        # acceptance suite carries the externally pinned delayed-tree
        # values and the analysis of why they differ.
        for tau, expected in [(1.0, 0.801515239172), (5.0, 0.579648914104)]:
            p = hit_probability(build_tree(two_level_tree(tau)), 2.0)
            assert p == pytest.approx(expected, abs=1e-9)

    def test_lumping_is_exact(self):
        for tau in (0, 1.0, 5.0):
            spec = two_level_tree(tau)
            full = hit_probability(build_tree(spec, lump_per_level=False), 2.0)
            lumped = hit_probability(build_tree(spec, lump_per_level=True), 2.0)
            assert lumped == pytest.approx(full, abs=1e-9)

    def test_multiphase_delays_match_simulator(self):
        # Branching plus Erlang links exercises entry pinning and the
        # snap-to-entry of mid-fetch siblings on chain starts.
        delay = Erlang(2, 2.0)
        spec = CacheTreeSpec(
            CacheNode(
                "r", ttl=Exponential(0.25), delay=delay,
                children=tuple(
                    CacheNode(f"l{i}", ttl=Exponential(0.5), delay=delay,
                              arrival=Exponential(1.0))
                    for i in (1, 2)
                ),
            )
        )
        exact = tree_hit_probability(spec)
        est = simulate(SimConfig(spec=spec, requests=300_000, seed=23))
        se = est.half_width_95 / 1.96
        assert abs(est.p_hit - exact) <= 3 * se

    def test_deep_tree_matches_simulator(self):
        delay = Exponential(1.0)
        leaf = CacheNode("leaf", ttl=Exponential(0.5), delay=delay,
                         arrival=Exponential(1.0))
        mid = CacheNode("mid", ttl=Exponential(0.5), delay=delay, children=(leaf,))
        spec = CacheTreeSpec(
            CacheNode("root", ttl=Exponential(0.25), delay=delay, children=(mid,))
        )
        exact = hit_probability(build_tree(spec), 1.0)
        est = simulate(SimConfig(spec=spec, requests=200_000, seed=5))
        se = est.half_width_95 / 1.96
        assert abs(est.p_hit - exact) <= 3 * se


def leaf_node(name, ttl_rate=0.5):
    return CacheNode(name, ttl=Exponential(ttl_rate), delay=Exponential(1.0),
                     arrival=Exponential(1.0))


def star(leaves):
    return CacheTreeSpec(
        CacheNode("root", ttl=Exponential(0.25), delay=Exponential(1.0),
                  children=tuple(leaves))
    )


class TestSiblingRuns:
    """Per-level lumping groups siblings by their id-free spec, wherever they
    stand."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"build": 0, "lump": []}

        def counting_build(*args):
            calls["build"] += 1
            return build_single_cache(*args)

        def recording_lump(sibling, n):
            calls["lump"].append(n)
            return lump_symmetric_level(sibling, n)

        monkeypatch.setattr(hierarchy, "build_single_cache", counting_build)
        monkeypatch.setattr(hierarchy, "lump_symmetric_level", recording_lump)
        return calls

    def test_leaves_differing_only_in_id_are_built_once(self, calls):
        system = build_tree(star(leaf_node(f"l{i}") for i in range(8)), lump_per_level=True)
        assert calls == {"build": 1, "lump": [8]}
        # 45 blocks of 8 three-state leaves times 3 root states, less the 9
        # blocks without a fetching leaf under a fetching root.
        assert system.size == 126

    def test_non_adjacent_equal_siblings_are_merged(self, calls):
        spec = star([leaf_node("a1"), leaf_node("b", ttl_rate=1.0), leaf_node("a2")])
        lumped = build_tree(spec, lump_per_level=True)
        assert calls == {"build": 2, "lump": [2]}
        # The class of a1 and a2 comes first, then b.
        assert labels(lumped) == tuple(reference_labels(spec.root, lump_per_level=True))
        assert hit_probability(lumped, spec.total_request_rate()) == pytest.approx(
            tree_hit_probability(spec, lump_per_level=False), abs=1e-10)

    def test_different_ttl_between_equal_siblings_keeps_one_class(self, calls):
        leaves = [leaf_node("a1"), leaf_node("a2"), leaf_node("c", ttl_rate=0.6),
                  leaf_node("a3"), leaf_node("a4")]
        lumped = tree_hit_probability(star(leaves), lump_per_level=True)
        assert calls == {"build": 2, "lump": [4]}
        plain = tree_hit_probability(star(leaves), lump_per_level=False)
        assert lumped == pytest.approx(plain, abs=1e-10)

    @pytest.mark.parametrize("order", ["AAB", "BAA", "AA"])
    def test_snapped_targets_sorted_within_runs(self, order):
        # A's delay enters at F_1 or F_3, never F_2: a chain start snaps an A
        # caught in F_2 back to an entry phase, and the snapped lumped label
        # is sorted within the A run, not across the whole level.
        chain = GeneralPH(
            (0.5, 0.0, 0.5),
            ((-3.0, 3.0, 0.0), (0.0, -3.0, 3.0), (0.0, 0.0, -3.0)),
        )
        leaves = [
            CacheNode(f"{kind}{i}", ttl=Exponential(0.5), delay=chain,
                      arrival=Exponential(1.0)) if kind == "A" else leaf_node(f"{kind}{i}")
            for i, kind in enumerate(order)
        ]
        lumped = tree_hit_probability(star(leaves), lump_per_level=True)
        plain = tree_hit_probability(star(leaves), lump_per_level=False)
        assert lumped == pytest.approx(plain, abs=1e-10)
