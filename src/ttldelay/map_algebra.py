"""Core MAP representation and linear algebra.

A MAP is stored as a pair of sparse CSR matrices: ``d0`` holds hidden
transition rates and ``d1`` active (event-emitting) ones.  Composition keeps
them sparse (a Kronecker sum of sparse factors is sparse).  The steady state
of a large chain comes from GCROT(m,k) on the embedded-chain scaling of the
balance equations, preconditioned by a symmetric Gauss-Seidel sweep; a small
chain, or one where GCROT misses, is solved by a sparse LU factorization.

Each state's meaning in the cache tree (Out, In or the fetch phase of each
cache, and the phase of each phase-type arrival process) is one row of small
integers, held by :class:`StateCodes`.  Composition works on the rows: a
Kronecker sum places its factors' rows side by side, as its state index is
their mixed-radix number (Plateau, SIGMETRICS 1985).
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, gcrotmk, onenormest, splu

from ttldelay.errors import ConditioningError, ReducibleChainError
from ttldelay.settings import check_state_count

log = logging.getLogger(__name__)

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
# A steady state passes when no component is below -RESIDUAL_TOL and its
# balance residual is within RESIDUAL_TOL times the largest rate (at least 1);
# a solve whose 1-norm condition estimate exceeds COND_LIMIT is rejected.
RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e12


# Node codes: phase k of a fetch (F_k) or of an arrival (A_k) is k - 1, and
# In and Out come last, so a cache's codes sort F_1 < ... < F_f < I < O.
IN_CODE, OUT_CODE = 254, 255


def node_width(node):
    """Columns a node of a :class:`StateCodes` shape takes: its subtree's."""
    return 1 + sum(map(node_width, node[0]))


def row_keys(table):
    """One byte-string key per row of a ``uint8`` table, ordered as the rows are."""
    table = np.ascontiguousarray(table)
    return table.view(f"V{table.shape[1]}").ravel()


@dataclass(frozen=True, eq=False)
class StateCodes:
    """The states of a composed MAP as rows of integer node codes.

    All states share one forest ``shape``: a tuple of ``(children shape,
    is_arrival)`` per node, a node for each cache and for each phase-type
    arrival process below its leaf.  Row ``s`` of the ``uint8`` array
    ``table`` holds the codes of state ``s``'s nodes in post-order, a node's
    children before the node.  A row's bytes are its mixed-radix key, and
    code order, the rows' lexicographic order, is the order in which
    lumping ranks sibling states.
    """

    table: np.ndarray
    shape: tuple

    def order(self):
        """The states in code order."""
        return np.argsort(row_keys(self.table), kind="stable")


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
    """A MAP: hidden matrix ``d0``, active matrix ``d1`` and the
    :class:`StateCodes` of its states.

    Both matrices are stored as read-only CSR; dense input is converted.
    """

    d0: RateMatrix
    d1: RateMatrix
    codes: StateCodes

    def __post_init__(self):
        object.__setattr__(self, "d0", _rate_matrix(self.d0))
        object.__setattr__(self, "d1", _rate_matrix(self.d1))

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


def _triplets(m):
    """COO triplets of the nonzeros of a dense or sparse matrix."""
    if sparse.issparse(m):
        m = m.tocoo()
        return m.row, m.col, m.data
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def off_diagonal(m):
    """COO triplets of the off-diagonal entries of a dense or sparse matrix."""
    rows, cols, vals = _triplets(m)
    keep = rows != cols
    return rows[keep], cols[keep], vals[keep]


def _kron(ta, tb, shape):
    """Triplets of ``a (x) b`` from those of ``a`` and of ``b``, whose shape is ``shape``."""
    (ra, ca, va), (rb, cb, vb) = ta, tb
    rows, cols = ((x.astype(np.int64)[:, None] * n + y).ravel()
                  for x, y, n in ((ra, rb, shape[0]), (ca, cb, shape[1])))
    return rows, cols, (va[:, None] * vb).ravel()


def kron_triplets(a, b):
    """COO triplets of the Kronecker product ``a (x) b`` of two dense or
    sparse matrices, the index of ``a`` varying slowest."""
    return _kron(_triplets(a), _triplets(b), b.shape)


def kron_sum_triplets(a, b):
    """COO triplets of the Kronecker sum ``a (x) I + I (x) b`` of two square
    dense or sparse matrices, the index of ``a`` varying slowest, without
    duplicates or zeros.  The values are those of the CSR sum of the two
    Kronecker products: ``x * 1 + 0`` off the diagonal and ``a_ii * 1 +
    b_jj * 1`` on it, in complex arithmetic for a pencil, which fixes the
    sign of each zero real or imaginary part.  Raises :class:`CapacityError`
    when the product has more states than the cap (:mod:`ttldelay.settings`).
    """
    n1, n2 = a.shape[0], b.shape[0]
    check_state_count(n1 * n2)
    eye = [(np.arange(n), np.arange(n), np.ones(n)) for n in (n1, n2)]
    (r1, c1, v1), (r2, c2, v2) = (_kron(off_diagonal(a), eye[1], b.shape),
                                  _kron(eye[0], off_diagonal(b), b.shape))
    diag = (a.diagonal()[:, None] * 1.0 + b.diagonal() * 1.0).ravel()
    on = np.flatnonzero(diag)
    return (np.concatenate([r1, r2, on]), np.concatenate([c1, c2, on]),
            np.concatenate([v1 + 0.0, v2 + 0.0, diag[on]]))


def triplet_matrix(n, *parts):
    """The ``n`` x ``n`` CSR matrix of COO triplet parts, duplicates summed."""
    rows, cols, values = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return sparse.csr_array((values, (rows, cols)), shape=(n, n))


def kronecker_sum(m1, m2):
    """Superpose two independent MAPs via the Kronecker sum.

    The left operand's index varies slowest, and each state's code row is
    its factors' rows side by side in the same order.
    """
    n = m1.size * m2.size
    codes = StateCodes(
        np.hstack([np.repeat(m1.codes.table, m2.size, axis=0),
                   np.tile(m2.codes.table, (m1.size, 1))]),
        m1.codes.shape + m2.codes.shape,
    )
    return LabeledMap(triplet_matrix(n, kron_sum_triplets(m1.d0, m2.d0)),
                      triplet_matrix(n, kron_sum_triplets(m1.d1, m2.d1)), codes)


def _recurrent_class_count(q):
    # A canonical CSR sum stores no zeros, so the pattern of q is its edges.
    n_comp, assignment = connected_components(q, directed=True, connection="strong")
    src = assignment[np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))]
    dst = assignment[q.indices]
    # A class is recurrent when no transition leaves it.
    leaves = np.zeros(n_comp, dtype=bool)
    leaves[src[(src != dst) & (q.data > 0)]] = True
    return int(np.sum(~leaves))


def steady_state(m):
    """Solve pi (d0 + d1) = 0 with pi >= 0 summing to one.

    One balance equation is replaced by the normalization constraint.  A
    chain of more than ``KRYLOV_MIN_STATES`` states is first solved by
    :func:`krylov_steady_state`; when GCROT misses, the miss is logged and
    the system goes to :func:`direct_steady_state`, as every smaller chain
    does.  Both paths estimate the 1-norm condition number the same way and
    check the result against the same limits, ``RESIDUAL_TOL`` and
    ``COND_LIMIT``; ``SteadyState.method`` tells which path answered.
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


def _kept(m, keep):
    """The (data, indices, indptr) of compressed ``m`` left with the entries ``keep`` marks."""
    return m.data[keep], m.indices[keep], np.concatenate([[0], np.cumsum(keep)])[m.indptr]


def _balance_system(q):
    """A = [q^T without its last row; 1^T]; A pi = e_n is the steady state.  Column j
    of the CSC A is row j of the canonical CSR ``q`` less its last-column entry, then 1."""
    n = q.shape[0]
    data, indices, ptr = _kept(q, q.indices < n - 1)
    a = sparse.csc_array((np.insert(data, ptr[1:], 1.0), np.insert(indices, ptr[1:], n - 1),
                          ptr + np.arange(n + 1)), shape=(n, n))
    b = np.zeros(n)
    b[-1] = 1.0
    return a, b


def _condition(a, solve, solve_transposed):
    """Hager's 1-norm condition estimate of ``a``, as LAPACK's ``dgecon``.

    ``solve`` and ``solve_transposed`` apply the inverse of ``a`` and of its
    transpose.  An estimate above ``COND_LIMIT`` raises.
    """
    n = a.shape[0]
    inverse = LinearOperator((n, n), matvec=solve, rmatvec=solve_transposed, dtype=float)
    # t=1 keeps the estimate deterministic: larger t draws random columns.
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        cond = abs(a).sum(axis=0).max() * onenormest(inverse, t=1)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"steady-state condition estimate {cond:.2e} exceeds limit {COND_LIMIT:.2e}"
        )
    return float(cond)


def _checked_pi(pi, q):
    """``pi`` clipped at zero and normalised; raises if it is not a steady state."""
    if np.any(pi < -RESIDUAL_TOL):
        raise ConditioningError("steady-state solution has negative components")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = np.max(np.abs(q.T @ pi))
    # Written so that a NaN residual fails too.
    if not residual <= RESIDUAL_TOL * max(abs(q).max(), 1.0):
        raise ConditioningError(f"steady-state residual {residual:.3e} above tolerance")
    return pi


def direct_steady_state(q):
    """Steady state of the irreducible generator ``q`` by sparse LU.

    SuperLU with a minimum degree ordering on A^T + A, which keeps the fill
    of composed generators low; the condition estimate solves with the same
    factors.
    """
    a, b = _balance_system(q)
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ConditioningError(f"steady-state system is singular: {exc}") from exc
    cond = _condition(a, lu.solve, lambda x: lu.solve(x, trans="T"))
    return SteadyState(_checked_pi(lu.solve(b), q), cond, "direct")


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
    s = s.tocsc()
    data, indices, ptr = _kept(s, s.indices < n - 1)
    ptr[-1] += 1
    g = sparse.csc_array((np.append(data, 1.0), np.append(indices, n - 1), ptr), shape=(n, n))
    cols = np.repeat(np.arange(n), np.diff(g.indptr))
    lower, upper = (
        splu(sparse.csc_array(_kept(g, part), shape=(n, n)), permc_spec="NATURAL",
             diag_pivot_thresh=0.0, relax=1, panel_size=1)
        for part in (g.indices >= cols, g.indices <= cols)
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
    a, b = _balance_system(q)
    d = -q.diagonal()
    scaled = a.copy()  # S = A D^-1: column j of A times 1/d_j
    scaled.data *= np.repeat(1.0 / d, np.diff(a.indptr))
    precond, precond_t = _symmetric_gauss_seidel(scaled)
    scaled = scaled.tocsr()
    scaled_t = scaled.T
    cu, cu_t = [], []
    try:
        pi = _checked_pi(_gcrotmk(scaled, b, PI_RTOL, cu, precond) / d, q)
    except ConditioningError as exc:
        raise KrylovMiss(str(exc)) from exc
    cond = _condition(
        a,
        lambda x: _gcrotmk(scaled, x, CONDITION_RTOL, cu, precond) / d,
        lambda x: _gcrotmk(scaled_t, np.ravel(x) / d, CONDITION_RTOL, cu_t, precond_t),
    )
    return SteadyState(pi, cond, "krylov")


def event_rate(m, ss=None):
    """Stationary rate of active transitions, pi d1 1."""
    if ss is None:
        ss = steady_state(m)
    return float(ss.pi @ m.d1.sum(axis=1))
