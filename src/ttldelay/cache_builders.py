"""Constructors for single-cache MAPs.

A cache's life cycle for one object has states ``Out``, ``In`` and, while a
miss is being resolved, a block of fetching states ``F_1 .. F_f`` driven by
the fetch-delay distribution.  Fetch phases count down: a miss enters at
``F_f`` and the object is admitted from ``F_1``.  For delay distributions
whose entry is spread over several phases (general PH initial vectors), the
miss transition is split proportionally.

Each state's codes (:class:`ttldelay.map_algebra.StateCodes`) are its arrival
phase, when the arrival has more than one, then the cache's own state.

Active transitions denote misses.  Under exponential TTLs a hit needs no
transition of its own: the refreshed TTL is statistically indistinguishable
from the running one, so hits only show up as arrival-phase resets.
"""

import numpy as np

from ttldelay import distributions as dist
from ttldelay.errors import UnsupportedDistributionError
from ttldelay.map_algebra import IN_CODE, OUT_CODE, LabeledMap, StateCodes


def own_codes(n):
    """Codes of a cache's own states ``[Out, In, F_1, ..., F_{n-2}]``."""
    return np.r_[OUT_CODE, IN_CODE, np.arange(n - 2)].astype(np.uint8)


def _cache_codes(n, phases):
    """Codes of a cache's ``n`` own states (slow) times ``phases`` arrival
    phases; a single phase has no arrival node."""
    if max(n - 2, phases) > IN_CODE:
        raise UnsupportedDistributionError(
            f"the exact engine supports at most {IN_CODE} phases per distribution"
        )
    own = np.repeat(own_codes(n), phases)
    if phases == 1:
        return StateCodes(own[:, None], (((), False),))
    arrival = np.tile(np.arange(phases, dtype=np.uint8), n)
    return StateCodes(np.column_stack([arrival, own]), (((((), True),), False),))


def _reversed_ph(d):
    """PH representation with phases renumbered so the entry sits at F_f."""
    alpha, s = d.ph()
    perm = np.arange(len(alpha))[::-1]
    return alpha[perm], s[np.ix_(perm, perm)]


def build_parent_cache(ttl, delay, delay_unit=1.0):
    """MAP of one cache without a direct request stream (d1 = 0).

    States are ordered ``[Out, In, F_1, ..., F_f]``; the only transitions are
    TTL expiry (In -> Out) and the fetch chain ending in admission
    (F_1 -> In).  Every rate of the fetch chain is multiplied by
    ``delay_unit``; :func:`ttldelay.hierarchy.delay_pencil` passes ``1j`` to
    carry the delay rates in the imaginary part.
    """
    if not isinstance(ttl, dist.Exponential):
        raise UnsupportedDistributionError(
            "the exact engine supports exponential TTLs only"
        )
    _, s_rev = _reversed_ph(delay)
    s_rev = s_rev * delay_unit
    exit_rev = -s_rev.sum(axis=1)
    f = s_rev.shape[0]
    n = 2 + f
    d0 = np.zeros((n, n), dtype=s_rev.dtype)
    d0[1, 0] = ttl.rate
    d0[1, 1] = -ttl.rate
    d0[2:, 2:] = s_rev
    d0[2:, 1] = exit_rev
    return LabeledMap(d0, np.zeros((n, n)), _cache_codes(n, 1))


def fetch_entry_distribution(delay):
    """Entry probabilities over fetch phases F_1..F_f for a fresh miss."""
    alpha_rev, _ = _reversed_ph(delay)
    return alpha_rev


def build_single_cache(arrival, ttl, delay, delay_unit=1.0):
    """MAP of a leaf cache fed by a PH renewal request stream.

    The state space is the product of cache states (slow index) and arrival
    phases.  With ``R`` the arrival's renewal matrix, a completion is hidden
    in In (a hit: ``hit`` marks In -> In) and active elsewhere (a miss:
    ``miss`` holds Out -> F by the fetch entry distribution and F_k -> F_k).
    ``delay_unit`` multiplies the delay rates, as in :func:`build_parent_cache`.
    """
    cache = build_parent_cache(ttl, delay, delay_unit)
    alpha_a, s_a = arrival.ph()
    renewal = np.outer(-s_a.sum(axis=1), alpha_a)
    na = len(alpha_a)
    nc = cache.size
    hit = np.zeros((nc, nc))
    hit[1, 1] = 1.0
    miss = np.zeros((nc, nc))
    miss[0, 2:] = fetch_entry_distribution(delay)
    miss[2:, 2:] = np.eye(nc - 2)
    d0 = (
        np.kron(cache.d0.toarray(), np.eye(na))
        + np.kron(np.eye(nc), s_a)
        + np.kron(hit, renewal)
    )
    d1 = np.kron(miss, renewal)
    return LabeledMap(d0, d1, _cache_codes(nc, na))
