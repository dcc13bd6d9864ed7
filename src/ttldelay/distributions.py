"""Distribution specifications for arrivals, TTLs and fetch delays.

Every kind except :class:`Deterministic` has a phase-type representation
``(alpha, S)``: ``alpha`` is the initial probability row vector and ``S`` the
subgenerator, so the exit-rate column is ``-S @ 1``.  ``Deterministic.ph()``
raises :class:`UnsupportedDistributionError`, so deterministic values are
accepted by the simulator only; ``ph()`` is the one phase-type test.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ttldelay.errors import UnsupportedDistributionError


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {self.rate}")

    def mean(self):
        return 1.0 / self.rate

    def ph(self):
        return np.array([1.0]), np.array([[-self.rate]])

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def scaled_to_mean(self, mean):
        return Exponential(1.0 / mean)


@dataclass(frozen=True)
class Erlang:
    phases: int
    rate: float  # per-phase rate

    def __post_init__(self):
        k = self.phases
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
            raise ValueError(f"phase count must be an integer >= 1, got {k!r}")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {self.rate}")

    def mean(self):
        return self.phases / self.rate

    def ph(self):
        k, lam = self.phases, self.rate
        s = np.diag(np.full(k, -lam)) + np.diag(np.full(k - 1, lam), k=1)
        alpha = np.zeros(k)
        alpha[0] = 1.0
        return alpha, s

    def sample(self, rng, size=None):
        return rng.gamma(self.phases, 1.0 / self.rate, size=size)

    def scaled_to_mean(self, mean):
        return Erlang(self.phases, self.phases / mean)


@dataclass(frozen=True)
class Coxian:
    """Sequential phases; after phase i the process continues with the given
    probability or exits to absorption."""

    rates: tuple
    continue_probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(
            self, "continue_probs", tuple(float(p) for p in self.continue_probs)
        )
        if len(self.continue_probs) != len(self.rates) - 1:
            raise ValueError("need one continue probability per non-final phase")
        if not all(0 < r < math.inf for r in self.rates):
            raise ValueError(f"phase rates must be finite and positive, got {self.rates}")
        if any(not 0.0 <= p <= 1.0 for p in self.continue_probs):
            raise ValueError("continue probabilities must lie in [0, 1]")

    def mean(self):
        return ph_mean(*self.ph())

    def ph(self):
        k = len(self.rates)
        s = np.diag([-r for r in self.rates])
        for i, p in enumerate(self.continue_probs):
            s[i, i + 1] = self.rates[i] * p
        alpha = np.zeros(k)
        alpha[0] = 1.0
        return alpha, s

    def sample(self, rng, size=None):
        return sample_ph(rng, *self.ph(), size=size)

    def scaled_to_mean(self, mean):
        factor = self.mean() / mean
        return Coxian(tuple(r * factor for r in self.rates), self.continue_probs)


@dataclass(frozen=True)
class GeneralPH:
    initial: tuple
    subgenerator: tuple  # rows as tuples

    def __post_init__(self):
        alpha = np.asarray(self.initial, dtype=float)
        s = np.asarray(self.subgenerator, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != alpha.size:
            raise ValueError("subgenerator must be square and match the initial vector")
        if not (np.isfinite(alpha).all() and np.isfinite(s).all()):
            raise ValueError("initial vector and subgenerator must be finite")
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-12:
            raise ValueError("initial vector must be a probability distribution")
        off = s - np.diag(np.diag(s))
        if np.any(off < 0) or np.any(np.diag(s) > 0):
            raise ValueError("subgenerator has invalid signs")
        rows = s.sum(axis=1)
        if np.any(rows > 1e-12):
            raise ValueError("subgenerator rows must sum <= 0")
        # Absorption must be certain from every phase, i.e. S nonsingular:
        # every phase reaches an exiting one within len(alpha) - 1 jumps.
        reach = rows < -1e-12
        for _ in range(alpha.size - 1):
            reach = reach | ((off > 0) @ reach)
        if not reach.all():
            raise ValueError(
                "subgenerator is singular: absorption is not certain from "
                f"phases {np.flatnonzero(~reach).tolist()}"
            )
        object.__setattr__(self, "initial", tuple(alpha))
        object.__setattr__(self, "subgenerator", tuple(map(tuple, s)))

    def mean(self):
        return ph_mean(*self.ph())

    def ph(self):
        return np.asarray(self.initial), np.asarray(self.subgenerator, dtype=float)

    def sample(self, rng, size=None):
        return sample_ph(rng, *self.ph(), size=size)

    def scaled_to_mean(self, mean):
        factor = self.mean() / mean
        s = np.asarray(self.subgenerator, dtype=float) * factor
        return GeneralPH(self.initial, tuple(map(tuple, s)))


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if not 0 <= self.value < math.inf:
            raise ValueError(f"value must be finite and nonnegative, got {self.value}")

    def mean(self):
        return self.value

    def ph(self):
        raise UnsupportedDistributionError(
            "deterministic distributions have no phase-type representation; "
            "they are accepted by the simulator only"
        )

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def scaled_to_mean(self, mean):
        return Deterministic(mean)


def ph_mean(alpha, s):
    """Mean of a PH distribution, -alpha S^-1 1."""
    return float(-alpha @ np.linalg.solve(s, np.ones(len(alpha))))


def ph_moment(alpha, s, k):
    """k-th raw moment, k! alpha (-S)^-k 1."""
    v = np.ones(len(alpha))
    for _ in range(k):
        v = np.linalg.solve(-s, v)
    return math.factorial(k) * float(alpha @ v)


def sample_ph(rng, alpha, s, size=None):
    """Draw absorption times of the PH Markov chain, a whole block at once.

    Runs the embedded jump chain (Bladt & Nielsen, *Matrix-Exponential
    Distributions in Applied Probability*, Springer 2017) in lockstep over
    every draw: the initial phases come by inverse CDF on ``cumsum(alpha)``;
    each round adds an exponential holding time to every live draw and moves
    it with one uniform against its phase's cumulative jump row, whose last
    column (absorption) is ``+inf`` so rounding cannot carry a draw past it.
    Absorbed draws leave the live index; the loop ends when none is left.
    ``size=None`` gives a Python float, else an array of shape ``size``.
    """
    n = 1 if size is None else int(np.prod(size))
    k = len(alpha)
    totals = -np.diag(s)
    # Row i: cumulative probabilities of jumping to phases 0..k-1, then +inf.
    jump = np.where(np.eye(k, dtype=bool), 0.0, s) / totals[:, None]
    cum = np.hstack([np.cumsum(jump, axis=1), np.full((k, 1), np.inf)])
    start = np.cumsum(alpha)
    start[-1] = np.inf
    phase = np.searchsorted(start, rng.random(n), side="right")
    out = np.zeros(n)
    live = np.arange(n)
    while live.size:
        out[live] += rng.standard_exponential(live.size) / totals[phase]
        phase = (rng.random(live.size)[:, None] >= cum[phase]).sum(axis=1)
        going = phase < k
        live, phase = live[going], phase[going]
    if size is None:
        return float(out[0])
    return out.reshape(size)
