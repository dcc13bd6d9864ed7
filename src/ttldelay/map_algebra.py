"""Core MAP representation and linear algebra.

A MAP is stored as a pair of sparse CSR matrices: ``d0`` holds hidden
transition rates and ``d1`` active (event-emitting) ones.  Composition keeps
them sparse (a Kronecker sum of sparse factors is sparse), and the steady
state comes from a sparse LU factorization.  Every state carries a
:class:`StateLabel` describing what the state means in terms of the cache
tree: one symbol per cache plus the phase of each phase-type arrival process.

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

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from ttldelay.errors import CapacityError, ConditioningError, ReducibleChainError
from ttldelay.settings import default_settings

OUT = ("O", 0)
IN = ("I", 0)


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

    def root_symbols(self):
        """Symbols of the top-level subtree roots."""
        return tuple(node[1] for node in self.forest)

    def encode(self):
        """Compact, invertible text form, e.g. ``((O|A2)F1)I``."""
        return "".join(_encode_node(node) for node in self.forest)

    @staticmethod
    def decode(text):
        forest, rest = _decode_forest(text)
        if rest:
            raise ValueError(f"trailing characters in label: {rest!r}")
        return StateLabel(forest)


def _encode_sym(symbol):
    kind, phase = symbol
    return kind if kind in ("O", "I") else f"{kind}{phase}"


def _encode_node(node):
    children, symbol = node
    if children:
        inner = "|".join(_encode_node(c) for c in children)
        return f"({inner}){_encode_sym(symbol)}"
    return _encode_sym(symbol)


def _decode_sym(text):
    kind = text[0]
    if kind in ("O", "I"):
        return (kind, 0), text[1:]
    digits = ""
    rest = text[1:]
    while rest and rest[0].isdigit():
        digits += rest[0]
        rest = rest[1:]
    return (kind, int(digits)), rest


def _decode_node(text):
    if text.startswith("("):
        depth, i = 1, 1
        while depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        inner = text[1 : i - 1]
        children = []
        seg, d = "", 0
        for ch in inner + "|":
            if ch == "|" and d == 0:
                node, leftover = _decode_node(seg)
                if leftover:
                    raise ValueError(f"bad label segment: {seg!r}")
                children.append(node)
                seg = ""
            else:
                d += {"(": 1, ")": -1}.get(ch, 0)
                seg += ch
        symbol, rest = _decode_sym(text[i:])
        return (tuple(children), symbol), rest
    symbol, rest = _decode_sym(text)
    return ((), symbol), rest


def _decode_forest(text):
    nodes = []
    while text:
        node, text = _decode_node(text)
        nodes.append(node)
    return tuple(nodes), text


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
    """Canonical, read-only CSR copy of a dense or sparse matrix."""
    m = RateMatrix(x, dtype=float, copy=True)
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

    def index_of(self, label):
        return self.labels.index(label)


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution of a MAP's background process.

    ``condition`` is the 1-norm condition estimate of the solved system.
    """

    pi: np.ndarray
    condition: float = 1.0

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


def validate_map(m, settings=None):
    """Check all structural invariants of ``m``.

    Returns a list of human-readable violation strings; an empty list means
    the MAP is valid.  Violations are data, not exceptions.
    """
    settings = settings or default_settings()
    issues = []
    d0, d1 = m.d0, m.d1
    n = d0.shape[0]
    if d0.ndim != 2 or d0.shape != (n, n):
        return [f"d0 is not square: shape {d0.shape}"]
    if d1.shape != (n, n):
        return [f"d1 shape {d1.shape} differs from d0 shape {d0.shape}"]
    if n < 1:
        return ["empty state space"]
    if len(m.labels) != n:
        issues.append(f"{len(m.labels)} labels for {n} states")
    elif len(set(m.labels)) != n:
        issues.append("labels are not pairwise distinct")

    diag = d0.diagonal()
    for i in np.flatnonzero(diag > 0):
        issues.append(f"positive d0 diagonal at state {i}: {diag[i]:.3e}")
    rows, cols, vals = off_diagonal(d0)
    for k in np.flatnonzero(vals < 0):
        issues.append(f"negative hidden rate at ({rows[k]},{cols[k]}): {vals[k]:.3e}")
    active = d1.tocoo()
    for k in np.flatnonzero(active.data < 0):
        issues.append(
            f"negative active rate at ({active.row[k]},{active.col[k]}): "
            f"{active.data[k]:.3e}"
        )

    scale = max(abs(d0).max(), abs(d1).max(), 1.0)
    row_sums = d0.sum(axis=1) + d1.sum(axis=1)
    for i in np.flatnonzero(np.abs(row_sums) > settings.row_sum_tol * scale):
        issues.append(f"row sum nonzero at state {i}: {row_sums[i]:.3e}")
    return issues


def kronecker_sum(m1, m2, settings=None):
    """Superpose two independent MAPs via the Kronecker sum.

    The left operand's index varies slowest; labels concatenate in the same
    order.
    """
    settings = settings or default_settings()
    n1, n2 = m1.size, m2.size
    if n1 * n2 > settings.state_cap:
        raise CapacityError(n1 * n2, settings.state_cap)
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


def steady_state(m, settings=None):
    """Solve pi (d0 + d1) = 0 with pi >= 0 summing to one.

    One balance equation is replaced by the normalization constraint and the
    system is solved by a sparse LU factorization (SuperLU with a minimum
    degree ordering on A^T + A, which keeps the fill of composed generators
    low).  The 1-norm condition number is estimated with Hager's method, as
    LAPACK's ``dgecon`` does; see :class:`NumericSettings` for the limits.
    """
    settings = settings or default_settings()
    q = m.generator()
    n = q.shape[0]
    if n == 1:
        return SteadyState(np.ones(1))

    n_rec = _recurrent_class_count(q)
    if n_rec != 1:
        raise ReducibleChainError(
            f"generator has {n_rec} recurrent classes; steady state is not unique"
        )

    a = sparse.vstack([q.T.tocsr()[:-1], np.ones((1, n))], format="csc")
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ConditioningError(f"steady-state system is singular: {exc}") from exc
    anorm = abs(a).sum(axis=0).max()
    inverse = LinearOperator(
        (n, n),
        matvec=lu.solve,
        rmatvec=lambda x: lu.solve(x, trans="T"),
        dtype=float,
    )
    # t=1 keeps the estimate deterministic: larger t draws random columns.
    cond = anorm * onenormest(inverse, t=1)
    if not np.isfinite(cond) or cond > settings.cond_limit:
        raise ConditioningError(
            f"steady-state condition estimate {cond:.2e} "
            f"exceeds limit {settings.cond_limit:.2e}"
        )
    pi = lu.solve(b)

    if np.any(pi < -settings.residual_tol):
        raise ConditioningError("steady-state solution has negative components")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = q.T @ pi
    if np.max(np.abs(residual)) > settings.residual_tol * max(abs(q).max(), 1.0):
        raise ConditioningError(
            f"steady-state residual {np.max(np.abs(residual)):.3e} above tolerance"
        )
    return SteadyState(pi, float(cond))


def event_rate(m, ss=None, settings=None):
    """Stationary rate of active transitions, pi d1 1."""
    if ss is None:
        ss = steady_state(m, settings=settings)
    return float(ss.pi @ m.d1.sum(axis=1))
