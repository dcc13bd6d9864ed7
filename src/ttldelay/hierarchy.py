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

Every step works on sparse matrices: a Kronecker sum of sparse factors, a
state mask, and the reclassified child events as COO triplets.  The cost
grows with the nonzeros of the composed MAP and the label scans over child
transitions; the dominating cost is the sparse LU of the steady-state solve,
whose fill per-level lumping keeps small for symmetric trees.
"""

from collections import Counter
from itertools import groupby, product

import numpy as np
from scipy import sparse

from ttldelay.cache_builders import (
    build_parent_cache,
    build_single_cache,
    fetch_entry_distribution,
)
from ttldelay.errors import ConfigError
from ttldelay.map_algebra import (
    LabeledMap,
    StateLabel,
    empty_map,
    kronecker_sum,
    off_diagonal,
)
from ttldelay.lumping import lump_symmetric_level
from ttldelay.settings import default_settings


def level_superpose(maps, settings=None):
    """Superpose independent sibling sub-MAPs; empty input gives the unit MAP."""
    maps = list(maps)
    if not maps:
        return empty_map()
    result = maps[0]
    for m in maps[1:]:
        result = kronecker_sum(result, m, settings=settings)
    return result


def _moved_root_pair(forest_a, forest_b):
    """Root symbols (before, after) of the single child that moved.

    Compares forests as multisets so it also works on lumped, canonically
    sorted labels.  Returns ``None`` when no single-child move explains the
    difference (e.g. identical forests).
    """
    if forest_a == forest_b:
        return None
    if len(forest_a) == len(forest_b):
        # One differing position is one moved child under either reading.
        diffs = [k for k, (a, b) in enumerate(zip(forest_a, forest_b)) if a != b]
        if len(diffs) == 1:
            return forest_a[diffs[0]][1], forest_b[diffs[0]][1]
    ca, cb = Counter(forest_a), Counter(forest_b)
    removed = list((ca - cb).elements())
    added = list((cb - ca).elements())
    if len(removed) == 1 and len(added) == 1:
        return removed[0][1], added[0][1]
    return None


def _invalid(roots, supports):
    """True when no fetching parent fits these child root symbols: some child
    must be fetching, and a fetching child waits at one of its entry phases
    until the parent admits (its delay clock only starts then)."""
    at_entry = [s[1] in support for s, support in zip(roots, supports) if s[0] == "F"]
    return not at_entry or not all(at_entry)


def _snap_to_entry(forest, entries, children_index):
    """Targets and weights after mid-fetch children restart at their entry.

    A chain start freezes running child fetches; frozen clocks restart from
    scratch on the parent's admission, so the phase a child was caught in is
    irrelevant and the state collapses onto the entry distribution.
    """
    options = []
    for node, entry in zip(forest, entries):
        symbol = node[1]
        if symbol[0] == "F" and symbol[1] not in entry:
            options.append([((node[0], ("F", ph)), w) for ph, w in entry.items()])
        else:
            options.append([(node, 1.0)])
    for combo in product(*options):
        nodes = tuple(item[0] for item in combo)
        share = 1.0
        for _, w in combo:
            share *= w
        if nodes not in children_index:
            nodes = tuple(sorted(nodes))  # lumped labels are kept sorted
        yield children_index[nodes], share


def line_superpose(parent, children, parent_entry, child_entries, settings=None):
    """Join a parent cache MAP with the superposed MAP of its children.

    ``parent`` must come from :func:`build_parent_cache` (no active
    transitions of its own).  ``parent_entry`` and each of ``child_entries``
    (one per subtree root of ``children``, in label order) give the
    probability split of a fresh fetch over the fetch phases ``F_1..F_f`` of
    that cache, as :func:`fetch_entry_distribution` returns it for its delay.
    """
    settings = settings or default_settings()
    if parent.d1.count_nonzero():
        raise ConfigError("parent MAP must have no active transitions")
    p_syms = [label.forest[0][1] for label in parent.labels]
    if p_syms[:2] != [("O", 0), ("I", 0)] or any(s[0] != "F" for s in p_syms[2:]):
        raise ConfigError("parent MAP states must be ordered [Out, In, F_1..F_f]")
    parent_entry = np.asarray(parent_entry, dtype=float)
    forests = [label.forest for label in children.labels]
    widths = {len(forest) for forest in forests}
    if widths != {len(child_entries)}:
        raise ConfigError(
            f"{len(child_entries)} child entry distributions for children MAP "
            f"labels of width {sorted(widths)}"
        )
    entries = [
        {k + 1: float(w) for k, w in enumerate(e) if w > 0} for e in child_entries
    ]
    nc, npar = children.size, parent.size

    # Step (a): Kronecker sum, children index varying slowest.  State
    # (child ci, parent pi) has index ci * npar + pi.
    combo = kronecker_sum(children, parent, settings=settings)

    # Step (b), states: drop everything the causality rule forbids.  The rule
    # treats all fetch phases of the parent alike.
    valid = np.ones((nc, npar), dtype=bool)
    for ci, label in enumerate(children.labels):
        if _invalid(label.root_symbols(), entries):
            valid[ci, 2:] = False
    valid = valid.ravel()

    # Steps (c) and (d): reclassify the children's miss events.
    #
    # Under a fetching parent they stay active: the object is coming from the
    # origin, so these requests remain system misses.  Under a present parent
    # they are hits and become hidden.  Under an idle parent, an event that
    # starts a fresh fetch chain (it flips some child root from out to
    # fetching) escalates: the parent begins fetching from the origin and the
    # event stays an active system miss; an event that merely joins an
    # ongoing child fetch becomes hidden.
    #
    # A chain start freezes every running child fetch: the frozen clock
    # restarts from scratch when the parent admits, so the target snaps any
    # mid-fetch sibling back to its entry distribution.
    #
    # The Kronecker sum places every child event under every parent state
    # unchanged; those under an idle or present parent are masked out below
    # and re-added as the hidden and escalated triplets collected here.
    children_index = {forest: i for i, forest in enumerate(forests)}
    events = children.d1.tocoo()
    src, dst, rates = events.row.astype(np.int64), events.col.astype(np.int64), events.data
    starts_chain = np.zeros(len(rates), dtype=bool)
    esc_rows, esc_cols, esc_rates = [], [], []
    for e, (ci, cj, rate) in enumerate(zip(src.tolist(), dst.tolist(), rates.tolist())):
        move = _moved_root_pair(forests[ci], forests[cj])
        if move is None or move[0][0] != "O" or move[1][0] != "F":
            continue
        starts_chain[e] = True
        for target, share in _snap_to_entry(forests[cj], entries, children_index):
            for k, weight in enumerate(parent_entry):
                if weight:
                    esc_rows.append(ci * npar)
                    esc_cols.append(target * npar + 2 + k)
                    esc_rates.append(rate * share * weight)
    # Hidden self-loops change nothing: the diagonal is rebuilt below.
    moved = src != dst
    absorbed = moved & ~starts_chain

    # Step (b), transitions: a child cannot be admitted while the parent is
    # still fetching, whatever the surrounding states look like.
    blocked = []
    a_rows, a_cols, _ = off_diagonal(children.d0)
    for a, b in zip(a_rows.tolist(), a_cols.tolist()):
        move = _moved_root_pair(forests[a], forests[b])
        if move is not None and move[0][0] == "F" and move[1][0] == "I":
            blocked.append(a * nc + b)

    hidden = combo.d0.tocoo()
    row_child, row_parent = np.divmod(hidden.row.astype(np.int64), npar)
    admission_blocked = (row_parent >= 2) & np.isin(
        row_child * nc + hidden.col // npar, blocked
    )
    keep0 = (hidden.row != hidden.col) & ~admission_blocked
    active = combo.d1.tocoo()
    keep1 = active.row % npar >= 2  # events under a fetching parent

    d0 = _restrict(
        valid,
        [hidden.row[keep0], src[moved] * npar + 1, src[absorbed] * npar],
        [hidden.col[keep0], dst[moved] * npar + 1, dst[absorbed] * npar],
        [hidden.data[keep0], rates[moved], rates[absorbed]],
    )
    d1 = _restrict(
        valid,
        [active.row[keep1], np.array(esc_rows, dtype=np.int64)],
        [active.col[keep1], np.array(esc_cols, dtype=np.int64)],
        [active.data[keep1], np.array(esc_rates, dtype=float)],
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


def _shape(node):
    """A node's spec without its cache ids: equal shapes build equal MAPs."""
    return (node.ttl, node.delay, node.arrival, tuple(map(_shape, node.children)))


def build_tree(spec, lump_per_level=False, settings=None):
    """Build the full system MAP of a cache tree by post-order composition.

    With ``lump_per_level``, each run of adjacent siblings of equal shape is
    built once and expanded as a lumped level; runs keep their positions, so
    state order and labels follow the spec either way.
    """
    settings = settings or default_settings()
    spec.validate(exact=True)

    def level(children):
        if not lump_per_level:
            return level_superpose(map(build, children), settings=settings)
        parts = []
        for _, run in groupby(children, key=_shape):
            first, *rest = run
            sibling = build(first)
            if rest:
                sibling = lump_symmetric_level(sibling, 1 + len(rest), settings).map
            parts.append(sibling)
        return level_superpose(parts, settings=settings)

    def build(node):
        if node.is_leaf:
            return build_single_cache(node.arrival, node.ttl, node.delay)
        children = level(node.children)
        return line_superpose(
            build_parent_cache(node.ttl, node.delay),
            children,
            fetch_entry_distribution(node.delay),
            [fetch_entry_distribution(child.delay) for child in node.children],
            settings=settings,
        )

    return build(spec.root)
