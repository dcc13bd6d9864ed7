"""Phase-type sampling and validation of the distribution kinds."""

import math

import numpy as np
import pytest

from ttldelay.distributions import (
    Coxian,
    Deterministic,
    Erlang,
    Exponential,
    GeneralPH,
    ph_moment,
    sample_ph,
)

@pytest.mark.parametrize("phases", [2.5, 2.0, True, "2", 0])
def test_erlang_requires_an_integral_phase_count(phases):
    with pytest.raises(ValueError, match="phase count"):
        Erlang(phases, 1.0)


def test_erlang_accepts_numpy_integers():
    assert Erlang(np.int64(3), 2.0).mean() == 1.5


DRAWS = 200_000
SAMPLED = {
    "coxian2": Coxian((1.5, 0.75), (0.5,)),
    "coxian3_sure_continue": Coxian((2.0, 1.0, 3.0), (1.0, 0.4)),
    "erlang3": Erlang(3, 2.0),
    # Back-jumps from phases 1 and 2 to 0, and no initial mass on phase 1.
    "general_back_jumps": GeneralPH(
        (0.5, 0.0, 0.5),
        ((-2.0, 1.0, 0.5), (1.0, -3.0, 1.0), (0.5, 0.0, -1.0)),
    ),
}


def _draw(d, via, rng, size):
    if via == "sample_ph":
        return sample_ph(rng, *d.ph(), size=size)
    return d.sample(rng, size)


@pytest.mark.parametrize("via", ["sample_ph", "sample"])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_first_three_moments_match_ph_moment(name, via):
    d = SAMPLED[name]
    x = _draw(d, via, np.random.default_rng(2024), DRAWS)
    for k in (1, 2, 3):
        se = np.std(x**k, ddof=1) / np.sqrt(DRAWS)
        assert abs(np.mean(x**k) - ph_moment(*d.ph(), k)) <= 5 * se, k


@pytest.mark.parametrize("via", ["sample_ph", "sample"])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_size_contract(name, via):
    d = SAMPLED[name]
    rng = np.random.default_rng(7)
    assert type(_draw(d, via, rng, None)) is float
    block = _draw(d, via, rng, (3, 5))
    assert block.shape == (3, 5)
    assert np.all(block > 0)


def test_exponential_keeps_numpy_sampler():
    # Exponential and Erlang draw directly, not through the jump chain.
    got = Exponential(2.0).sample(np.random.default_rng(3), 5)
    np.testing.assert_array_equal(got, np.random.default_rng(3).exponential(0.5, 5))
    got = Erlang(3, 2.0).sample(np.random.default_rng(3), 5)
    np.testing.assert_array_equal(got, np.random.default_rng(3).gamma(3, 0.5, 5))


class TestGeneralPHValidation:
    def test_trap_phase_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            GeneralPH((0.5, 0.5), ((-1.0, 0.0), (0.0, 0.0)))

    def test_closed_cycle_rejected(self):
        cycle = ((-1.0, 1.0, 0.0), (1.0, -1.0, 0.0), (0.0, 0.0, -1.0))
        with pytest.raises(ValueError, match=r"singular.*\[0, 1\]"):
            GeneralPH((1.0, 0.0, 0.0), cycle)

    def test_exit_reached_through_other_phases_accepted(self):
        # Only phase 2 exits; 0 and 1 reach it through a back-and-forth.
        s = ((-1.0, 1.0, 0.0), (0.5, -1.0, 0.5), (0.0, 0.0, -2.0))
        # Mean times to absorption: t2 = 0.5, t1 = 1 + (t0 + t2) / 2, t0 = 1 + t1.
        assert GeneralPH((1.0, 0.0, 0.0), s).mean() == pytest.approx(4.5)


NON_FINITE = {
    "exponential-inf": lambda: Exponential(math.inf),
    "exponential-nan": lambda: Exponential(math.nan),
    "erlang-inf": lambda: Erlang(2, math.inf),
    "erlang-nan": lambda: Erlang(2, math.nan),
    "coxian-inf": lambda: Coxian((1.0, math.inf), (0.5,)),
    "coxian-nan": lambda: Coxian((math.nan, 1.0), (0.5,)),
    "deterministic-inf": lambda: Deterministic(math.inf),
    "deterministic-nan": lambda: Deterministic(math.nan),
    "general-inf": lambda: GeneralPH((1.0, 0.0), ((-math.inf, 1.0), (0.0, -1.0))),
    "general-nan": lambda: GeneralPH((1.0, 0.0), ((-1.0, math.nan), (0.0, -1.0))),
    "general-initial-nan": lambda: GeneralPH((math.nan, 1.0), ((-1.0, 0.0), (0.0, -1.0))),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_parameters_rejected(name):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE[name]()
