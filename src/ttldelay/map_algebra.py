"""Core MAP representation and linear algebra.

A MAP is stored as a pair of sparse CSR matrices: ``d0`` holds hidden
transition rates and ``d1`` active (event-emitting) ones.  Composition keeps
them sparse (a Kronecker sum of sparse factors is sparse).  The steady state
of a large chain comes from GCROT(m,k) on the embedded-chain scaling of the
balance equations, preconditioned by a symmetric Gauss-Seidel sweep; a small
chain, or one where GCROT misses, is solved by a sparse LU factorization.
Every state carries a :class:`StateLabel` describing what the state means in
terms of the cache tree: one symbol per cache plus the phase of each
phase-type arrival process.

Labels are nested tuples so that composition operations (Kronecker sums, line
superposition, lumping) can manipulate them structurally:

* a node is ``(children, symbol)`` where ``children`` is a tuple of nodes,
* cache symbols are ``("O", 0)`` (out), ``("I", 0)`` (in cache) or
  ``("F", k)`` (fetching, phase ``k``),
* the arrival phase of a phase-type request stream appears as a pseudo-node
  ``((), ("A", k))`` attached below its leaf cache.

A :class:`StateLabel` is a tuple of such nodes (a forest): level superposition
concatenates forests, line superposition wraps a forest under a new root.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, gcrotmk, onenormest, splu

from ttldelay.errors import CapacityError, ConditioningError, ReducibleChainError
from ttldelay.settings import default_settings

log = logging.getLogger(__name__)

OUT = ("O", 0)
IN = ("I", 0)

# Chains above this size are solved by GCROT first.  Below it the LU is
# about as fast: its fill is still small, and GCROT pays a fixed cost of
# about ten preconditioned solves for the condition estimate.
KRYLOV_MIN_STATES = 1000
# GCROT(m,k): m inner FGMRES steps per cycle, k recycled vectors kept.
KRYLOV_M = 20
KRYLOV_K = 10
# A solve stalls when its residual has not halved over this many cycles
# (about 60 matvecs) and is above STALL_BAND times the target.
STALL_CYCLES = 3
STALL_BAND = 10.0
# GCROT residuals relative to the right-hand side: pi must pass the residual
# check; the condition estimate needs only its leading digits.
PI_RTOL = 1e-13
CONDITION_RTOL = 1e-4


def fetch(phase):
    """Symbol of a cache fetching in delay phase ``phase`` (1-based)."""
    return ("F", int(phase))


def cache_node(children, symbol):
    """Label node for a cache with the given child nodes."""
    return (tuple(children), symbol)


def arrival_node(phase):
    """Pseudo-node recording the phase of a PH arrival process."""
    return ((), ("A", int(phase)))


@dataclass(frozen=True)
class StateLabel:
    """Semantic label of one MAP state: a forest of cache-tree nodes."""

    forest: tuple


class RateMatrix(sparse.csr_array):
    """CSR matrix of transition rates.

    On top of ``csr_array`` it answers ``|`` of two nonzero patterns and
    ``np.count_nonzero``, so nonzero counts written for dense arrays, such as
    ``np.count_nonzero((m.d0 != 0) | (m.d1 != 0))`` in perfbench's tracer,
    stay exact without densifying.  Every other NumPy function refuses it
    instead of silently wrapping it in an object array.
    """

    def __or__(self, other):
        return (self != 0) + (other != 0)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.count_nonzero()
        return NotImplemented


def _rate_matrix(x):
    """Canonical, read-only CSR copy of a dense or sparse matrix, complex for
    complex input (a delay pencil, :func:`ttldelay.hierarchy.delay_pencil`)
    and float64 otherwise."""
    m = RateMatrix(x, copy=True)
    if m.dtype.kind != "c":
        m = m.astype(float, copy=False)
    m.sum_duplicates()
    m.eliminate_zeros()
    for arr in (m.data, m.indices, m.indptr):
        arr.setflags(write=False)
    return m


@dataclass(frozen=True)
class LabeledMap:
    """A MAP: hidden matrix ``d0``, active matrix ``d1``, one label per state.

    Both matrices are stored as read-only CSR; dense input is converted.
    """

    d0: RateMatrix
    d1: RateMatrix
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "d0", _rate_matrix(self.d0))
        object.__setattr__(self, "d1", _rate_matrix(self.d1))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self):
        return self.d0.shape[0]

    def generator(self):
        return self.d0 + self.d1


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution of a MAP's background process.

    ``condition`` is the 1-norm condition estimate of the solved system and
    ``method`` the path that solved it: ``"direct"`` (sparse LU) or
    ``"krylov"`` (GCROT(m,k)).
    """

    pi: np.ndarray
    condition: float = 1.0
    method: str = "direct"

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        self.pi.setflags(write=False)


def empty_map():
    """The one-state MAP with no caches; identity element of superposition."""
    return LabeledMap(np.zeros((1, 1)), np.zeros((1, 1)), (StateLabel(()),))


def off_diagonal(m):
    """COO triplets of the off-diagonal entries of a sparse matrix."""
    coo = m.tocoo()
    keep = coo.row != coo.col
    return coo.row[keep], coo.col[keep], coo.data[keep]


def kronecker_sum(m1, m2):
    """Superpose two independent MAPs via the Kronecker sum.

    The left operand's index varies slowest; labels concatenate in the same
    order.
    """
    n1, n2 = m1.size, m2.size
    cap = default_settings().state_cap
    if n1 * n2 > cap:
        raise CapacityError(n1 * n2, cap)
    eye1, eye2 = sparse.eye_array(n1), sparse.eye_array(n2)

    def ksum(a, b):
        return sparse.kron(a, eye2, format="csr") + sparse.kron(eye1, b, format="csr")

    labels = tuple(
        StateLabel(a.forest + b.forest) for a in m1.labels for b in m2.labels
    )
    return LabeledMap(ksum(m1.d0, m2.d0), ksum(m1.d1, m2.d1), labels)


def _recurrent_class_count(q):
    n_comp, assignment = connected_components(q != 0, directed=True, connection="strong")
    # A class is recurrent when no transition leaves it.
    leaves = np.zeros(n_comp, dtype=bool)
    rows, cols, rates = off_diagonal(q)
    src, dst = assignment[rows[rates > 0]], assignment[cols[rates > 0]]
    leaves[np.unique(src[src != dst])] = True
    return int(np.sum(~leaves))


def steady_state(m):
    """Solve pi (d0 + d1) = 0 with pi >= 0 summing to one.

    One balance equation is replaced by the normalization constraint.  A
    chain of more than ``KRYLOV_MIN_STATES`` states is first solved by
    :func:`krylov_steady_state`; when GCROT misses, the miss is logged and
    the system goes to :func:`direct_steady_state`, as every smaller chain
    does.  Both paths estimate the 1-norm condition number the same way and
    check the result against the same limits (see :class:`NumericSettings`);
    ``SteadyState.method`` tells which path answered.
    """
    q = m.generator()
    n = q.shape[0]
    if n == 1:
        return SteadyState(np.ones(1))

    n_rec = _recurrent_class_count(q)
    if n_rec != 1:
        raise ReducibleChainError(
            f"generator has {n_rec} recurrent classes; steady state is not unique"
        )
    if n > KRYLOV_MIN_STATES:
        try:
            return krylov_steady_state(q)
        except KrylovMiss as miss:
            log.info("steady state of %d states falls back to LU: %s", n, miss)
    return direct_steady_state(q)


def _balance_system(q):
    """A = [q^T without its last row; 1^T]; A pi = e_n is the steady state."""
    n = q.shape[0]
    a = sparse.vstack([q.T.tocsr()[:-1], np.ones((1, n))], format="csc")
    b = np.zeros(n)
    b[-1] = 1.0
    return a, b


def _condition(a, solve, solve_transposed, settings):
    """Hager's 1-norm condition estimate of ``a``, as LAPACK's ``dgecon``.

    ``solve`` and ``solve_transposed`` apply the inverse of ``a`` and of its
    transpose.  An estimate above ``cond_limit`` raises.
    """
    n = a.shape[0]
    inverse = LinearOperator((n, n), matvec=solve, rmatvec=solve_transposed, dtype=float)
    # t=1 keeps the estimate deterministic: larger t draws random columns.
    cond = abs(a).sum(axis=0).max() * onenormest(inverse, t=1)
    if not np.isfinite(cond) or cond > settings.cond_limit:
        raise ConditioningError(
            f"steady-state condition estimate {cond:.2e} "
            f"exceeds limit {settings.cond_limit:.2e}"
        )
    return float(cond)


def _checked_pi(pi, q, settings):
    """``pi`` clipped at zero and normalised; raises if it is not a steady state."""
    if np.any(pi < -settings.residual_tol):
        raise ConditioningError("steady-state solution has negative components")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = np.max(np.abs(q.T @ pi))
    # Written so that a NaN residual fails too.
    if not residual <= settings.residual_tol * max(abs(q).max(), 1.0):
        raise ConditioningError(f"steady-state residual {residual:.3e} above tolerance")
    return pi


def direct_steady_state(q):
    """Steady state of the irreducible generator ``q`` by sparse LU.

    SuperLU with a minimum degree ordering on A^T + A, which keeps the fill
    of composed generators low; the condition estimate solves with the same
    factors.
    """
    settings = default_settings()
    a, b = _balance_system(q)
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ConditioningError(f"steady-state system is singular: {exc}") from exc
    cond = _condition(a, lu.solve, lambda x: lu.solve(x, trans="T"), settings)
    return SteadyState(_checked_pi(lu.solve(b), q, settings), cond, "direct")


class KrylovMiss(Exception):
    """GCROT gave no steady state that passes the checks."""


def _symmetric_gauss_seidel(s):
    """Symmetric Gauss-Seidel preconditioners of ``s`` and of its transpose.

    The sweeps cover the embedded-chain rows of ``s``; its last
    (normalisation) row is replaced by the identity's, so it passes through.
    With g = D + L + U split that way, M = (D + U) D^-1 (D + L), and the two
    operators apply M^-1 and M^-T.  Each sweep is one triangular solve in
    natural order, so SuperLU adds no fill.
    """
    n = s.shape[0]
    coo = s.tocoo()
    keep = coo.row < n - 1
    g = sparse.coo_array(
        (np.append(coo.data[keep], 1.0),
         (np.append(coo.row[keep], n - 1), np.append(coo.col[keep], n - 1))),
        shape=(n, n),
    )
    lower, upper = (
        splu(part(g, format="csc"), permc_spec="NATURAL", diag_pivot_thresh=0.0,
             relax=1, panel_size=1)
        for part in (sparse.tril, sparse.triu)
    )
    diag = g.diagonal()
    forward = LinearOperator(
        (n, n), matvec=lambda x: lower.solve(diag * upper.solve(x)), dtype=float
    )
    transposed = LinearOperator(
        (n, n),
        matvec=lambda x: upper.solve(diag * lower.solve(x, trans="T"), trans="T"),
        dtype=float,
    )
    return forward, transposed


def _gcrotmk(a, b, rtol, cu, precond=None):
    """x with |a x - b| <= rtol |b| by GCROT(m,k), or raise KrylovMiss.

    ``cu`` is the recycle list of ``a``: it seeds the solve and holds the
    subspace the solve leaves behind for the next one.  ``precond``, an
    approximate inverse of ``a``, preconditions the solve from the right, so
    the residual tested is still that of ``a``.  Each cycle is one
    ``gcrotmk`` call, and the true residual is tested after it.  A residual
    that has not halved over the last ``STALL_CYCLES`` cycles is a stall,
    unless it is within ``STALL_BAND`` times the target, so a slow solve
    close to the target keeps going.  A solve that halves its residual at
    that rate reaches the target within ``max_cycles``, which caps the rest.
    """
    b = np.ravel(b)
    target = rtol * np.linalg.norm(b)
    max_cycles = STALL_CYCLES * int(np.ceil(np.log2(1.0 / rtol)))
    x, history = None, []
    for cycle in range(max_cycles):
        # The first cycle recomputes C = a U: stale (c, u) pairs from an
        # earlier solve break the projection on stiff chains.
        x, _ = gcrotmk(a, b, x0=x, rtol=rtol, atol=0.0, maxiter=1, m=KRYLOV_M,
                       k=KRYLOV_K, M=precond, CU=cu, discard_C=cycle == 0)
        residual = np.linalg.norm(b - a @ x)
        if residual <= target:
            return x
        history.append(residual)
        if (len(history) > STALL_CYCLES and not residual <= STALL_BAND * target
                and not residual <= history[-1 - STALL_CYCLES] / 2):
            break
    raise KrylovMiss(
        f"GCROT stalled at relative residual {residual / np.linalg.norm(b):.1e} "
        f"after {len(history)} cycles"
    )


def krylov_steady_state(q):
    """Steady state of the irreducible generator ``q`` by GCROT(m,k).

    GCROT runs on the embedded-chain scaling of the balance system: with
    D = diag(-q_ii), A = S D where S = [(D^-1 q)^T without its last row;
    (D^-1 1)^T], which takes the spread of the rates (such as the 1e6
    zero-delay emulation) out of the system.  So A^-1 x = D^-1 S^-1 x and
    A^-T x = S^-T D^-1 x, and the condition estimate of A runs on solves
    with S and S^T to ``CONDITION_RTOL``.  Every solve is preconditioned by
    a symmetric Gauss-Seidel sweep of S (of S^T for the transposed ones);
    most converge in one or two cycles.  The solves with S share one
    recycled subspace, so the forward condition solves start from the
    subspace the pi solve built, and the solves with S^T share another; both
    are dropped on return, so each call depends on ``q`` alone.  Raises
    :class:`KrylovMiss` when a solve stalls or pi fails the negativity or
    residual check.
    """
    settings = default_settings()
    a, b = _balance_system(q)
    d = -q.diagonal()
    scaled = (a @ sparse.diags_array(1.0 / d)).tocsr()
    scaled_t = scaled.T
    precond, precond_t = _symmetric_gauss_seidel(scaled)
    cu, cu_t = [], []
    try:
        pi = _checked_pi(_gcrotmk(scaled, b, PI_RTOL, cu, precond) / d, q, settings)
    except ConditioningError as exc:
        raise KrylovMiss(str(exc)) from exc
    cond = _condition(
        a,
        lambda x: _gcrotmk(scaled, x, CONDITION_RTOL, cu, precond) / d,
        lambda x: _gcrotmk(scaled_t, np.ravel(x) / d, CONDITION_RTOL, cu_t, precond_t),
        settings,
    )
    return SteadyState(pi, cond, "krylov")


def event_rate(m, ss=None):
    """Stationary rate of active transitions, pi d1 1."""
    if ss is None:
        ss = steady_state(m)
    return float(ss.pi @ m.d1.sum(axis=1))
