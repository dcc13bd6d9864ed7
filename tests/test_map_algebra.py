import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import sparse

from ttldelay.cache_builders import build_single_cache
from ttldelay.distributions import Coxian, Erlang, Exponential
from ttldelay.errors import CapacityError, ReducibleChainError
from ttldelay.map_algebra import (
    IN_CODE,
    OUT_CODE,
    LabeledMap,
    StateCodes,
    event_rate,
    kron_sum_triplets,
    kron_triplets,
    kronecker_sum,
    steady_state,
)

from conftest import encode, labels, ph_renewal_map, single_mmm, state_index, validate_map


def mmm_map():
    return build_single_cache(Exponential(1.0), Exponential(0.5), Exponential(1.0))


class TestValidate:
    def test_paper_single_cache_is_valid(self):
        assert validate_map(mmm_map()) == []

    def test_negated_active_rate_flagged(self):
        m = mmm_map()
        d1 = m.d1.copy()
        d1[0, 2] = -d1[0, 2]
        bad = LabeledMap(m.d0, d1, m.codes)
        issues = validate_map(bad)
        assert any("negative active rate" in msg for msg in issues)

    def test_row_sum_perturbation_flagged(self):
        m = mmm_map()
        d0 = m.d0.copy()
        d0[1, 1] += 1e-6
        issues = validate_map(LabeledMap(d0, m.d1, m.codes))
        assert any("row sum nonzero" in msg for msg in issues)

    def test_duplicate_labels_flagged(self):
        m = mmm_map()
        repeated = StateCodes(m.codes.table[[0, 0, 0]], m.codes.shape)
        issues = validate_map(LabeledMap(m.d0, m.d1, repeated))
        assert any("distinct" in msg for msg in issues)
        short = StateCodes(m.codes.table[:2], m.codes.shape)
        assert validate_map(LabeledMap(m.d0, m.d1, short)) == ["2 code rows for 3 states"]


class TestKroneckerSum:
    def test_two_caches_give_nine_states(self):
        pair = kronecker_sum(mmm_map(), mmm_map())
        assert pair.size == 9
        encoded = {encode(forest) for forest in labels(pair)}
        assert encoded == {a + b for a in ("O", "I", "F1") for b in ("O", "I", "F1")}
        assert validate_map(pair) == []

    def test_two_ph_renewal_maps(self):
        r = ph_renewal_map(Erlang(2, 2.0))
        pair = kronecker_sum(r, r)
        assert pair.size == 4
        np.testing.assert_allclose((pair.d0 + pair.d1).sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("to_sparse", [False, True], ids=["dense", "sparse"])
    def test_triplets_equal_numpy_kron(self, to_sparse):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4)) * (rng.random((3, 4)) < 0.5)
        b = (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))) * (rng.random((2, 5)) < 0.5)
        s, t = rng.normal(size=(3, 3)), rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.5)
        form = sparse.csr_array if to_sparse else np.asarray
        rows, cols, vals = kron_triplets(form(a), form(b))
        got = sparse.csr_array((vals, (rows, cols)), shape=(6, 20)).toarray()
        assert np.array_equal(got, np.kron(a, b))
        rows, cols, vals = kron_sum_triplets(form(s), form(t))
        got = sparse.csr_array((vals, (rows, cols)), shape=(12, 12)).toarray()
        assert np.array_equal(got, np.kron(s, np.eye(4)) + np.kron(np.eye(3), t))

    def test_capacity_cap(self, monkeypatch):
        m = mmm_map()
        monkeypatch.setenv("TTLDELAY_NUMERICS", "state_cap=8")
        with pytest.raises(CapacityError, match="lumping"):
            kronecker_sum(m, m)


class TestSteadyState:
    def test_mmm_hand_solved_balance(self):
        # Balance equations give pi_Out = pi_Fetch = pi_In / 2.
        ss = steady_state(mmm_map())
        np.testing.assert_allclose(ss.pi, [0.25, 0.5, 0.25], atol=1e-12)

    def test_symmetric_two_state(self):
        m = LabeledMap(
            [[-1.0, 1.0], [1.0, -1.0]],
            np.zeros((2, 2)),
            StateCodes(np.array([[OUT_CODE], [IN_CODE]], dtype=np.uint8), (((), False),)),
        )
        np.testing.assert_allclose(steady_state(m).pi, [0.5, 0.5], atol=1e-12)

    def test_product_of_factors(self):
        m = mmm_map()
        pair = kronecker_sum(m, m)
        pi = steady_state(m).pi
        np.testing.assert_allclose(steady_state(pair).pi, np.kron(pi, pi), atol=1e-8)

    def test_reducible_chain_rejected(self):
        d0 = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -2.0, 2.0],
                [0.0, 0.0, 2.0, -2.0],
            ]
        )
        fetching = StateCodes(np.arange(4, dtype=np.uint8)[:, None], (((), False),))
        with pytest.raises(ReducibleChainError):
            steady_state(LabeledMap(d0, np.zeros((4, 4)), fetching))


class TestEventRate:
    def test_mmm_miss_rate(self):
        m = mmm_map()
        assert event_rate(m) == pytest.approx(0.5, abs=1e-12)

    def test_no_events(self):
        m = mmm_map()
        silent = LabeledMap(m.generator(), np.zeros((3, 3)), m.codes)
        assert event_rate(silent) == 0.0

    def test_erlang_renewal_rate_is_inverse_mean(self):
        r = ph_renewal_map(Erlang(2, 2.0))
        assert event_rate(r) == pytest.approx(1.0, abs=1e-9)


def _random_renewal(data):
    kind = data.draw(st.sampled_from(["exp", "erlang", "coxian"]))
    rate = data.draw(st.floats(0.1, 5.0))
    if kind == "exp":
        return Exponential(rate)
    if kind == "erlang":
        return Erlang(data.draw(st.integers(1, 3)), rate)
    p = data.draw(st.floats(0.05, 0.95))
    r2 = data.draw(st.floats(0.1, 5.0))
    return Coxian((rate, r2), (p,))


@hyp_settings(max_examples=25, deadline=None)
@given(st.data())
def test_kronecker_sum_of_valid_maps_is_valid(data):
    m1 = ph_renewal_map(_random_renewal(data))
    m2 = ph_renewal_map(_random_renewal(data))
    combined = kronecker_sum(m1, m2)
    assert validate_map(combined) == []
    pi = np.kron(steady_state(m1).pi, steady_state(m2).pi)
    np.testing.assert_allclose(steady_state(combined).pi, pi, atol=1e-8)


@hyp_settings(max_examples=25, deadline=None)
@given(st.data())
def test_renewal_event_rate_matches_mean(data):
    d = _random_renewal(data)
    assert event_rate(ph_renewal_map(d)) == pytest.approx(1.0 / d.mean(), abs=1e-9)


@hyp_settings(max_examples=25, deadline=None)
@given(st.data(), st.floats(0.01, 100.0))
def test_time_rescaling(data, c):
    m = ph_renewal_map(_random_renewal(data))
    scaled = LabeledMap(c * m.d0, c * m.d1, m.codes)
    np.testing.assert_allclose(steady_state(scaled).pi, steady_state(m).pi, atol=1e-9)
    assert event_rate(scaled) == pytest.approx(c * event_rate(m), rel=1e-12)


def assert_round_trip(m):
    """``state_index`` inverts ``encode`` on ``m``'s labels, so ``encode`` is
    injective on them."""
    for s, forest in enumerate(labels(m)):
        assert state_index(m, encode(forest)) == s


class TestLabels:
    def test_encode_decode_round_trip(self):
        assert_round_trip(build_single_cache(Erlang(2, 2.0), Exponential(0.5), Erlang(2, 2.0)))

    def test_round_trip_on_composed_labels(self):
        assert_round_trip(kronecker_sum(mmm_map(), mmm_map()))
