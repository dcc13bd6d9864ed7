"""Composition of single-cache MAPs over a cache tree.

Two operations build the system MAP bottom-up:

* level superposition: independent sibling subtrees combine via the
  Kronecker sum; with per-level lumping, each run of adjacent siblings whose
  specs are equal up to cache ids is built once and expanded directly as a
  lumped level (:mod:`ttldelay.lumping`),
* line superposition: a parent cache joins the MAP of its children in four
  steps: Kronecker sum, removal of causally impossible states, demotion of
  active transitions that no longer escape the tree, and rewiring of the
  all-out miss so the parent fetches from the origin alongside its child.

What the tree spec states is taken from it, not recovered from the composed
matrices: sibling runs are runs of equal node specs, and the phases a fresh
fetch enters are the initial vector of each cache's delay
(:func:`ttldelay.cache_builders.fetch_entry_distribution`).  After the full
composition the active transitions of the system MAP are exactly the
requests answered by an origin fetch (system misses).

A delay sweep scales every delay rate by one factor and moves nothing else,
so :func:`delay_pencil` composes the tree once, as the pencil
``A + rate * B`` with fixed labels and ``d1``, and each point of the sweep is
a sparse sum instead of a new composition, and its limit is the exact
zero-delay MAP.

Every step works on sparse matrices: a Kronecker sum of sparse factors, a
state mask, and the reclassified child events as COO triplets.  Child events
are classified from per-state root codes (each child's kind and whether it
sits at an entry phase), as masks over all nonzeros at once.  The cost grows
with the nonzeros of the composed MAP and the labels it builds; the
dominating cost is the sparse LU of the steady-state solve, whose fill
per-level lumping keeps small for symmetric trees.
"""

import math
from dataclasses import dataclass
from itertools import groupby, product

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from ttldelay.cache_builders import (
    build_parent_cache,
    build_single_cache,
    fetch_entry_distribution,
)
from ttldelay.errors import ConfigError, PencilLimitError
from ttldelay.map_algebra import (
    LabeledMap,
    StateLabel,
    empty_map,
    kronecker_sum,
    off_diagonal,
)
from ttldelay.lumping import lump_symmetric_level, partition_count
from ttldelay.spec import cache_state_count


def level_superpose(maps):
    """Superpose independent sibling sub-MAPs; empty input gives the unit MAP."""
    maps = list(maps)
    if not maps:
        return empty_map()
    result = maps[0]
    for m in maps[1:]:
        result = kronecker_sum(result, m)
    return result


def _snap_matrix(targets, forests, restart, entries, bounds):
    """Rows ``targets`` of the children's snap matrix: the ``restart``
    (mid-fetch) children collapse onto their entry distribution, since a
    chain start freezes their clocks and the parent's admission restarts
    them from scratch.  Snapped roots are re-sorted within each sibling run
    (between consecutive ``bounds``), as a lumped level labels its states.
    """
    index = {forest: i for i, forest in enumerate(forests)}
    rows, cols, shares = [], [], []
    for t in targets.tolist():
        options = [
            [((node[0], ("F", k + 1)), w) for k, w in enumerate(entry) if w > 0]
            if snap else [(node, 1.0)]
            for node, snap, entry in zip(forests[t], restart[t], entries)
        ]
        for combo in product(*options):
            nodes, weights = zip(*combo)
            forest = tuple(
                node for a, b in zip(bounds, bounds[1:]) for node in sorted(nodes[a:b])
            )
            rows.append(t)
            cols.append(index[forest])
            shares.append(math.prod(weights))
    n = len(forests)
    return sparse.csr_array((shares, (rows, cols)), shape=(n, n))


def line_superpose(parent, children, parent_entry, child_runs):
    """Join a parent cache MAP with the superposed MAP of its children.

    ``parent`` must come from :func:`build_parent_cache` (no active
    transitions of its own).  ``child_runs`` holds one ``(entry, n)`` per
    part of ``children``, in label order: a part is one child subtree
    (``n = 1``) or a lumped level of ``n`` identical siblings, whose labels
    keep their roots sorted.  ``parent_entry`` and each ``entry`` give the
    probability split of a fresh fetch over the fetch phases ``F_1..F_f`` of
    that cache, as :func:`fetch_entry_distribution` returns it for its delay.
    """
    if parent.d1.count_nonzero():
        raise ConfigError("parent MAP must have no active transitions")
    p_syms = [label.forest[0][1] for label in parent.labels]
    if p_syms[:2] != [("O", 0), ("I", 0)] or any(s[0] != "F" for s in p_syms[2:]):
        raise ConfigError("parent MAP states must be ordered [Out, In, F_1..F_f]")
    forests = [label.forest for label in children.labels]
    entries = [entry for entry, n in child_runs for _ in range(n)]
    widths = {len(forest) for forest in forests}
    if widths != {len(entries)}:
        raise ConfigError(
            f"{len(entries)} child entry distributions for children MAP "
            f"labels of width {sorted(widths)}"
        )
    bounds = np.cumsum([0] + [n for _, n in child_runs]).tolist()
    nc, npar, width = children.size, parent.size, len(entries)

    # Root codes of every children state, one per child: its kind, and
    # whether it is at an entry phase of its delay (a fetching child waits
    # there until the parent admits; its delay clock only starts then).
    roots = [(node[1], e) for forest in forests for node, e in zip(forest, entries)]
    kind = np.array([s[0] for s, _ in roots]).reshape(nc, width)  # O, I or F
    at_entry = np.array([s[0] == "F" and e[s[1] - 1] > 0 for s, e in roots])
    at_entry = at_entry.reshape(nc, width)
    fetching = kind == "F"

    # Every child transition moves exactly one child, so the change in how
    # many children are out, in and fetching names that child's root move,
    # for plain and sorted labels alike.
    counts = {k: (kind == k).sum(axis=1) for k in "OIF"}

    def moves(src, dst, leaving, entering):
        change = {k: counts[k][dst] - counts[k][src] for k in (leaving, entering)}
        return (change[leaving] == -1) & (change[entering] == 1)

    # Step (a): Kronecker sum, children index varying slowest.  State
    # (child ci, parent pi) has index ci * npar + pi.  Only its rates are
    # kept; the labels of the valid states are built at the end, so the
    # product's own labels are freed here.
    combo = kronecker_sum(children, parent)
    hidden, active = combo.d0.tocoo(), combo.d1.tocoo()
    del combo

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
    chain = sparse.csr_array(
        (rates[starts_chain], (src[starts_chain], dst[starts_chain])), shape=(nc, nc)
    )
    snap = _snap_matrix(
        np.unique(dst[starts_chain]), forests, fetching & ~at_entry, entries, bounds
    )
    origin_fetch = np.zeros((npar, npar))
    origin_fetch[0, 2:] = parent_entry  # Out -> F_k: the parent fetches too
    escalated = sparse.kron(chain @ snap, origin_fetch, format="coo")
    # Hidden self-loops change nothing: the diagonal is rebuilt below.
    moved = src != dst
    absorbed = moved & ~starts_chain

    # Step (b), transitions: a child cannot be admitted while the parent is
    # still fetching, whatever the surrounding states look like.
    row_child, row_parent = np.divmod(hidden.row.astype(np.int64), npar)
    admission_blocked = (row_parent >= 2) & moves(
        row_child, hidden.col.astype(np.int64) // npar, "F", "I"
    )
    keep0 = (hidden.row != hidden.col) & ~admission_blocked
    keep1 = active.row % npar >= 2  # events under a fetching parent

    d0 = _restrict(
        valid,
        [hidden.row[keep0], src[moved] * npar + 1, src[absorbed] * npar],
        [hidden.col[keep0], dst[moved] * npar + 1, dst[absorbed] * npar],
        [hidden.data[keep0], rates[moved], rates[absorbed]],
    )
    d1 = _restrict(
        valid,
        [active.row[keep1], escalated.row],
        [active.col[keep1], escalated.col],
        [active.data[keep1], escalated.data],
    )

    # Deleted transitions freeze the affected clocks: restore conservation.
    d0 = d0 - sparse.diags_array(d0.sum(axis=1) + d1.sum(axis=1))

    labels = []
    for s in np.flatnonzero(valid):
        ci, pi = divmod(int(s), npar)
        labels.append(StateLabel(((forests[ci], p_syms[pi]),)))
    return LabeledMap(d0, d1, tuple(labels))


def _restrict(valid, rows, cols, vals):
    """CSR over the states where ``valid`` holds, from COO parts on the full
    product; entries touching another state are dropped, duplicates summed."""
    rows, cols, vals = (np.concatenate(parts) for parts in (rows, cols, vals))
    inside = valid[rows] & valid[cols]
    index = np.cumsum(valid) - 1
    n = int(index[-1]) + 1
    return sparse.csr_array(
        (vals[inside], (index[rows[inside]], index[cols[inside]])), shape=(n, n)
    )


def sibling_runs(children):
    """Runs of adjacent siblings of equal shape: the exchangeable sub-trees
    that per-level lumping merges."""
    return [list(run) for _, run in groupby(children, key=lambda node: node.shape)]


def lump_plus_width(node):
    """State count of a subtree with every sibling run lumped, at every level,
    before invalid-state removal."""
    width = cache_state_count(node)
    for first, *rest in sibling_runs(node.children):
        width *= partition_count(lump_plus_width(first), 1 + len(rest))
    return width


def _compose(spec, lump_per_level, delay_unit):
    """Post-order composition of the system MAP, with every delay rate
    multiplied by ``delay_unit``."""
    spec.validate(exact=True)

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

    With ``lump_per_level``, each run of adjacent siblings of equal shape is
    built once and expanded as a lumped level; runs keep their positions, so
    state order and labels follow the spec either way.
    """
    return _compose(spec, lump_per_level, 1.0)


@dataclass(frozen=True)
class DelayPencil:
    """A tree's MAP as a function of one factor on all its delay rates.

    Multiplying every delay rate by ``rate`` (every delay mean by
    ``1 / rate``, shapes kept) gives the hidden matrix ``a + rate * b``:
    ``b`` holds the delay rates, ``a`` the others.  The active matrix ``d1``
    and the labels do not depend on the delays.
    """

    a: sparse.csr_array
    b: sparse.csr_array
    d1: sparse.csr_array
    labels: tuple

    def at(self, rate):
        """The MAP with every delay rate multiplied by ``rate``."""
        return LabeledMap(self.a + rate * self.b, self.d1, self.labels)

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
        labels = [self.labels[i] for i in stops]
        return LabeledMap(self.a[stops] @ e, self.d1[stops] @ e, labels)


def delay_pencil(spec, lump_per_level=False):
    """The :class:`DelayPencil` of ``spec``, whose ``at(1.0)`` is
    ``build_tree``'s MAP up to rounding.  One composition carries each delay
    rate times the imaginary unit; every step is real-linear in the rates
    (Kronecker sums, line superposition's masks and snap weights, a lumped
    level's ``c * r``, the diagonal rebuild), so the composed ``d0`` is
    ``a + 1j * b``.
    """
    system = _compose(spec, lump_per_level, 1j)
    return DelayPencil(system.d0.real, system.d0.imag, system.d1, system.labels)
