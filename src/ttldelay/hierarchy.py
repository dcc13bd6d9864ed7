"""Composition of single-cache MAPs over a cache tree.

Two operations build the system MAP bottom-up:

* level superposition: independent sibling subtrees combine via the
  Kronecker sum; with per-level lumping, each class of siblings whose specs
  are equal up to cache ids, wherever they stand, is built once and expanded
  directly as a lumped level (:mod:`ttldelay.lumping`),
* line superposition: a parent cache joins the MAP of its children in four
  steps: Kronecker sum, removal of causally impossible states, demotion of
  active transitions that no longer escape the tree, and rewiring of the
  all-out miss so the parent fetches from the origin alongside its child.

What the tree spec states is taken from it, not recovered from the composed
matrices: sibling classes are classes of equal node specs, and the phases a
fresh fetch enters are the initial vector of each cache's delay
(:func:`ttldelay.cache_builders.fetch_entry_distribution`).  After the full
composition the active transitions of the system MAP are exactly the
requests answered by an origin fetch (system misses).

A delay sweep scales every delay rate by one factor and moves nothing else,
so :func:`delay_pencil` composes the tree once, as the pencil
``A + rate * B`` with fixed state codes and ``d1``, and each point of the
sweep is a sparse sum instead of a new composition, and its limit is the
exact zero-delay MAP.

Every step works on sparse matrices and integer state codes: the
children-parent Kronecker sum as COO triplets by index arithmetic, a state
mask, and the reclassified child events as COO triplets.  Child events are
classified from per-state root codes (each child's kind and whether it sits
at an entry phase), as masks over all nonzeros at once, and a snapped target
is found by a binary search on its codes.  No per-state object is built;
the cost grows with the nonzeros of the composed MAP, and the dominating
cost is the steady-state solve, whose fill per-level lumping keeps small for
symmetric trees.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from ttldelay.cache_builders import (
    build_parent_cache,
    build_single_cache,
    fetch_entry_distribution,
    own_codes,
)
from ttldelay.errors import ConfigError, PencilLimitError
from ttldelay.map_algebra import (
    IN_CODE,
    OUT_CODE,
    LabeledMap,
    StateCodes,
    kron_sum_triplets,
    kron_triplets,
    kronecker_sum,
    off_diagonal,
    node_width,
    row_keys,
    triplet_matrix,
)
from ttldelay.lumping import lump_symmetric_level
from ttldelay.settings import state_cap
from ttldelay.spec import sibling_runs


def level_superpose(maps):
    """Superpose independent sibling sub-MAPs, a left fold of Kronecker sums."""
    return reduce(kronecker_sum, maps)


def _snap_matrix(codes, targets, tops, restart, entries, bounds):
    """Rows ``targets`` of the children's snap matrix: the ``restart``
    (mid-fetch) children collapse onto their entry distribution, since a
    chain start freezes their clocks and the parent's admission restarts
    them from scratch.  Each target expands into every combination of entry
    phases, the first child's varying slowest, with the child's root code at
    column ``tops[j]``.  Snapped subtrees are re-sorted within each sibling
    class (between consecutive ``bounds``), as a lumped level orders them, and
    each combination's state is found by its codes' key.
    """
    rows, table, shares = targets, codes.table[targets], np.ones(len(targets))
    for j, entry in enumerate(entries):
        phases = np.flatnonzero(entry > 0)
        snap = restart[rows, j]
        copies = np.where(snap, len(phases), 1)
        pick = np.repeat(np.arange(len(rows)), copies)
        option = np.arange(len(pick)) - np.repeat(np.cumsum(copies) - copies, copies)
        rows, table, shares, snap = rows[pick], table[pick], shares[pick], snap[pick]
        k = phases[option[snap]]
        table[snap, tops[j]] = k
        shares[snap] *= entry[k]
    starts = np.r_[0, tops[:-1] + 1]
    for a, b in zip(bounds, bounds[1:]):
        if b - a > 1:  # a class's subtrees are equal-width byte strings
            lo, hi = starts[a], tops[b - 1] + 1
            run = np.ascontiguousarray(table[:, lo:hi]).view(f"V{(hi - lo) // (b - a)}")
            table[:, lo:hi] = np.sort(run, axis=1).view(np.uint8)
    order = codes.order()
    cols = order[np.searchsorted(row_keys(codes.table)[order], row_keys(table))]
    return triplet_matrix(len(codes.table), (rows, cols, shares))


def line_superpose(parent, children, parent_entry, child_runs):
    """Join a parent cache MAP with the superposed MAP of its children.

    ``parent`` must come from :func:`build_parent_cache` (no active
    transitions of its own).  ``child_runs`` holds one ``(entry, n)`` per
    part of ``children``, in the order of the children's code columns: a
    part is one child subtree (``n = 1``) or a lumped level of ``n``
    identical siblings, whose code rows keep their subtrees in code order.
    ``parent_entry`` and each ``entry`` give the probability split of a
    fresh fetch over the fetch phases ``F_1..F_f`` of that cache, as
    :func:`fetch_entry_distribution` returns it for its delay.
    """
    if parent.d1.count_nonzero():
        raise ConfigError("parent MAP must have no active transitions")
    npar = parent.size
    if (parent.codes.shape != (((), False),)
            or not np.array_equal(parent.codes.table[:, 0], own_codes(npar))):
        raise ConfigError("parent MAP states must be ordered [Out, In, F_1..F_f]")
    codes = children.codes
    entries = [np.asarray(entry) for entry, n in child_runs for _ in range(n)]
    if len(codes.shape) != len(entries):
        raise ConfigError(
            f"{len(entries)} child entry distributions for children MAP "
            f"codes of width {len(codes.shape)}"
        )
    bounds = np.cumsum([0] + [n for _, n in child_runs]).tolist()
    nc, n_children = children.size, len(entries)

    # Root codes of every children state, one per child, in its column
    # ``tops[j]``: its kind, and whether it is at an entry phase of its delay
    # (a fetching child waits there until the parent admits; its delay clock
    # only starts then).
    tops = np.cumsum([node_width(node) for node in codes.shape]) - 1
    roots = codes.table[:, tops]
    entry_phase = np.zeros((n_children, OUT_CODE + 1), dtype=bool)
    for j, entry in enumerate(entries):
        entry_phase[j, :len(entry)] = entry > 0
    at_entry = entry_phase[np.arange(n_children), roots]
    fetching = roots < IN_CODE

    # Every child transition moves exactly one child, so the change in how
    # many children are out, in and fetching names that child's root move,
    # for plain and sorted code rows alike.
    counts = {"O": (roots == OUT_CODE).sum(axis=1), "I": (roots == IN_CODE).sum(axis=1),
              "F": fetching.sum(axis=1)}

    def moves(src, dst, leaving, entering):
        change = {k: counts[k][dst] - counts[k][src] for k in (leaving, entering)}
        return (change[leaving] == -1) & (change[entering] == 1)

    # Step (a): Kronecker sum, children index varying slowest, as COO
    # triplets.  State (child ci, parent pi) has index ci * npar + pi.
    h_row, h_col, h_data = kron_sum_triplets(children.d0, parent.d0)
    a_row, a_col, a_data = kron_sum_triplets(children.d1, parent.d1)

    # Step (b), states: a fetching parent needs some child fetching and every
    # fetching child at an entry phase.  The rule treats all fetch phases of
    # the parent alike.
    valid = np.ones((nc, npar), dtype=bool)
    valid[~(fetching.any(axis=1) & (at_entry == fetching).all(axis=1)), 2:] = False
    valid = valid.ravel()

    # Steps (c) and (d): reclassify the children's miss events.
    #
    # Under a fetching parent they stay active: the object is coming from the
    # origin, so these requests remain system misses.  Under a present parent
    # they are hits and become hidden.  Under an idle parent, an event that
    # starts a fresh fetch chain (it moves one child root from out to
    # fetching) escalates: the parent begins fetching from the origin and the
    # event stays an active system miss; an event that merely joins an
    # ongoing child fetch becomes hidden.
    #
    # A chain start freezes every running child fetch, so the escalated
    # target snaps any mid-fetch sibling back to its entry distribution.
    #
    # The Kronecker sum places every child event under every parent state
    # unchanged; those under an idle or present parent are masked out below
    # and re-added as the hidden and escalated triplets built here.
    events = children.d1.tocoo()
    src, dst, rates = events.row.astype(np.int64), events.col.astype(np.int64), events.data
    starts_chain = moves(src, dst, "O", "F")
    chain = triplet_matrix(nc, (src[starts_chain], dst[starts_chain], rates[starts_chain]))
    snap = _snap_matrix(
        codes, np.unique(dst[starts_chain]), tops, fetching & ~at_entry, entries, bounds
    )
    origin_fetch = np.zeros((npar, npar))
    origin_fetch[0, 2:] = parent_entry  # Out -> F_k: the parent fetches too
    # Hidden self-loops change nothing: the diagonal is rebuilt below.
    moved = src != dst
    absorbed = moved & ~starts_chain

    # Step (b), transitions: a child cannot be admitted while the parent is
    # still fetching, whatever the surrounding states look like.
    row_child, row_parent = np.divmod(h_row, npar)
    admission_blocked = (row_parent >= 2) & moves(row_child, h_col // npar, "F", "I")
    keep0 = (h_row != h_col) & ~admission_blocked
    keep1 = a_row % npar >= 2  # events under a fetching parent

    d0 = _restrict(
        valid,
        (h_row[keep0], h_col[keep0], h_data[keep0]),
        (src[moved] * npar + 1, dst[moved] * npar + 1, rates[moved]),
        (src[absorbed] * npar, dst[absorbed] * npar, rates[absorbed]),
    )
    d1 = _restrict(valid, (a_row[keep1], a_col[keep1], a_data[keep1]),
                   kron_triplets(chain @ snap, origin_fetch))

    # Deleted transitions freeze the affected clocks: restore conservation.
    d0 = d0 - sparse.diags_array(d0.sum(axis=1) + d1.sum(axis=1))

    ci, pi = np.divmod(np.flatnonzero(valid), npar)
    table = np.hstack([codes.table[ci], parent.codes.table[pi]])
    return LabeledMap(d0, d1, StateCodes(table, ((codes.shape, False),)))


def _restrict(valid, *parts):
    """CSR over the states where ``valid`` holds, from COO triplet parts of the
    full product, without entries touching other states; duplicates summed."""
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    inside = valid[rows] & valid[cols]
    index = np.cumsum(valid) - 1
    return triplet_matrix(int(index[-1]) + 1,
                          (index[rows[inside]], index[cols[inside]], vals[inside]))


def _compose(spec, lump_per_level, delay_unit):
    """Post-order composition of the system MAP, with every delay rate
    multiplied by ``delay_unit``."""
    spec.validate(exact=True)
    state_cap()  # a bad override fails even where nothing is composed

    def build(node):
        if node.is_leaf:
            return build_single_cache(node.arrival, node.ttl, node.delay, delay_unit)
        runs = sibling_runs(node.children) if lump_per_level else [[c] for c in node.children]
        parts = []
        for first, *rest in runs:
            sibling = build(first)
            if rest:
                sibling = lump_symmetric_level(sibling, 1 + len(rest)).map
            parts.append(sibling)
        return line_superpose(
            build_parent_cache(node.ttl, node.delay, delay_unit),
            level_superpose(parts),
            fetch_entry_distribution(node.delay),
            [(fetch_entry_distribution(run[0].delay), len(run)) for run in runs],
        )

    return build(spec.root)


def build_tree(spec, lump_per_level=False):
    """Build the full system MAP of a cache tree by post-order composition.

    With ``lump_per_level``, each class of siblings of equal shape, wherever
    they stand, is built once and expanded as a lumped level; state order and
    codes follow the classes in order of first appearance, which is the
    spec's order when equal siblings are adjacent, and the spec's without it.
    """
    return _compose(spec, lump_per_level, 1.0)


@dataclass(frozen=True)
class DelayPencil:
    """A tree's MAP as a function of one factor on all its delay rates.

    Multiplying every delay rate by ``rate`` (every delay mean by
    ``1 / rate``, shapes kept) gives the hidden matrix ``a + rate * b``:
    ``b`` holds the delay rates, ``a`` the others.  The active matrix ``d1``
    and the state codes do not depend on the delays.
    """

    a: sparse.csr_array
    b: sparse.csr_array
    d1: sparse.csr_array
    codes: StateCodes

    def at(self, rate):
        """The MAP with every delay rate multiplied by ``rate``."""
        return LabeledMap(self.a + rate * self.b, self.d1, self.codes)

    def limit(self):
        """The exact zero-delay MAP, ``at(rate)`` as rate -> infinity: the
        stochastic complement of the non-fetching states S, the rows of ``b``
        without an off-diagonal entry (Meyer, SIAM Review 1989).  Delay
        transitions take each state to one end state in S; with E that 0/1
        map, the limit is ``(a[S] @ E, d1[S] @ E)``.  Raises
        :class:`PencilLimitError` if a delay transition changes the end state.
        """
        n = self.a.shape[0]
        rows, cols, vals = off_diagonal(self.b)
        rows, cols = rows[vals != 0], cols[vals != 0]  # ``b`` keeps ``a``'s pattern
        stops = np.setdiff1d(np.arange(n), rows)
        # Each state's nearest stop along delay edges: one search from every
        # stop at once over the reversed edges.
        graph = sparse.csr_array((np.ones(rows.size), (cols, rows)), shape=(n, n))
        end = dijkstra(graph, indices=stops, return_predecessors=True, min_only=True)[2]
        if np.any(end < 0) or np.any(end[rows] != end[cols]):
            raise PencilLimitError("a delay transition changes its fetch chain's end state")
        e = sparse.csr_array((np.ones(n), (np.arange(n), np.searchsorted(stops, end))))
        codes = StateCodes(self.codes.table[stops], self.codes.shape)
        return LabeledMap(self.a[stops] @ e, self.d1[stops] @ e, codes)


def delay_pencil(spec, lump_per_level=False):
    """The :class:`DelayPencil` of ``spec``, whose ``at(1.0)`` is
    ``build_tree``'s MAP up to rounding.  One composition carries each delay
    rate times the imaginary unit; every step is real-linear in the rates
    (Kronecker sums, line superposition's masks and snap weights, a lumped
    level's ``c * r``, the diagonal rebuild), so the composed ``d0`` is
    ``a + 1j * b``.
    """
    system = _compose(spec, lump_per_level, 1j)
    return DelayPencil(system.d0.real, system.d0.imag, system.d1, system.codes)
