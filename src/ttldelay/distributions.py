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


def erlang_ph(phases, rate):
    """``(alpha, S)`` of the Erlang law of ``phases`` phases (one: the
    exponential) at per-phase ``rate``; an array of rates stacks the laws
    along its axes."""
    rate = np.asarray(rate, dtype=float)[..., None]
    alpha = np.zeros(rate.shape[:-1] + (phases,))
    alpha[..., 0] = 1.0
    # S flattened: the diagonal is every (phases + 1)-th entry, the
    # superdiagonal the same stride from 1; slices, not index arrays.
    s = np.zeros(rate.shape[:-1] + (phases * phases,))
    s[..., ::phases + 1] = -rate
    s[..., 1::phases + 1] = rate
    return alpha, s.reshape(alpha.shape + (phases,))


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {self.rate}")

    def mean(self):
        return 1.0 / self.rate

    def ph(self):
        return erlang_ph(1, self.rate)

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
        return erlang_ph(self.phases, self.rate)

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
        return ph_moment(*self.ph(), 1)

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
        check_ph(alpha, s)
        object.__setattr__(self, "initial", tuple(alpha))
        object.__setattr__(self, "subgenerator", tuple(map(tuple, s)))

    def mean(self):
        return ph_moment(*self.ph(), 1)

    def ph(self):
        return np.asarray(self.initial), np.asarray(self.subgenerator, dtype=float)

    def sample(self, rng, size=None):
        return sample_ph(rng, *self.ph(), size=size)

    def scaled_to_mean(self, mean):
        factor = self.mean() / mean
        with np.errstate(invalid="ignore", over="ignore"):  # check_ph rejects inf and nan
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


def check_ph(alpha, s):
    """Raise ``ValueError`` unless ``(alpha, S)`` is a phase-type law, or a
    stack of them: ``alpha`` of shape ``(..., n)``, ``S`` of ``(..., n, n)``.

    Each condition is checked over the whole stack before the next, so a
    stack with one bad law raises that law's own error.
    """
    if alpha.ndim < 1 or s.shape != alpha.shape + alpha.shape[-1:]:
        raise ValueError("subgenerator must be square and match the initial vector")
    if not (np.isfinite(alpha).all() and np.isfinite(s).all()):
        raise ValueError("initial vector and subgenerator must be finite")
    if np.any(alpha < 0) or np.any(abs(alpha.sum(axis=-1) - 1.0) > 1e-12):
        raise ValueError("initial vector must be a probability distribution")
    n = alpha.shape[-1]
    diagonal = np.eye(n, dtype=bool)
    # No positive diagonal entry, no negative move between phases.
    if np.any(np.where(diagonal, s, -s) > 0):
        raise ValueError("subgenerator has invalid signs")
    moves = np.where(diagonal, 0.0, s) > 0
    # Row sums are judged relative to each phase's rate |S_ii|: any time unit.
    rows, tol = s.sum(axis=-1), -1e-12 * np.diagonal(s, axis1=-2, axis2=-1)
    if np.any(rows > tol):
        raise ValueError("subgenerator rows must sum <= 0")
    # Absorption must be certain from every phase, i.e. S nonsingular:
    # every phase reaches an exiting one within n - 1 jumps.
    reach = rows < -tol
    for _ in range(n - 1):
        reach = reach | (moves @ reach[..., None])[..., 0]
    if not reach.all():
        first = np.argwhere(~reach.all(axis=-1))[0]
        raise ValueError(
            "subgenerator is singular: absorption is not certain from "
            f"phases {np.flatnonzero(~reach[tuple(first)]).tolist()}"
        )


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
