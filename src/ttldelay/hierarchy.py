"""Composition of single-cache MAPs over a cache tree.

Two operations build the system MAP bottom-up:

* level superposition: independent sibling subtrees combine via the
  Kronecker sum,
* line superposition: a parent cache joins the MAP of its children in four
  steps: Kronecker sum, removal of causally impossible states, demotion of
  active transitions that no longer escape the tree, and rewiring of the
  all-out miss so the parent fetches from the origin alongside its child.

After the full composition the active transitions of the system MAP are
exactly the requests answered by an origin fetch (system misses).

Every step works on sparse matrices: a Kronecker sum of sparse factors, a
state mask, and the reclassified child events as COO triplets.  The cost
grows with the nonzeros of the composed MAP and the label scans over child
transitions; the dominating cost is the sparse LU of the steady-state solve,
whose fill per-level lumping keeps small for symmetric trees.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import product

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


@dataclass(frozen=True)
class InvalidStateRule:
    """Causality predicate for composite (children, parent) states.

    A fetching parent implies an ongoing chain through some child, and every
    fetching child waits at a fetch entry phase until the parent admits (its
    delay clock only starts then).  A state with the parent in a fetch phase
    is therefore invalid unless at least one child subtree root is fetching
    and every fetching child sits at one of its entry phases.
    ``entry_supports`` lists, per child, the phases a fresh miss can enter.
    """

    entry_supports: tuple

    def pair_blocks(self, child_index, symbol):
        """True when this child alone cannot justify a fetching parent."""
        if symbol[0] in ("O", "I"):
            return True
        return symbol[1] not in self.entry_supports[child_index]

    def invalid(self, children_label, parent_symbol):
        if parent_symbol[0] != "F":
            return False
        roots = children_label.root_symbols()
        some_fetching_at_entry = False
        for c, s in enumerate(roots):
            if s[0] != "F":
                continue
            if s[1] not in self.entry_supports[c]:
                return True  # a pinned child cannot sit mid-fetch
            some_fetching_at_entry = True
        return not some_fetching_at_entry


def _child_entry_distributions(children):
    """Per child, the distribution of fetch phases a fresh miss enters.

    Derived from the children MAP itself: chain-start transitions are the
    active transitions that flip a subtree root from out to fetching, and
    their rates split proportionally to the entry distribution.
    """
    n = {len(label.forest) for label in children.labels}
    if len(n) != 1:
        raise ConfigError("children MAP labels do not expose per-child symbols")
    n = n.pop()
    records = {}  # (source, child or "*") -> {phase: rate}
    active = children.d1.tocoo()
    for i, j, rate in zip(active.row.tolist(), active.col.tolist(), active.data.tolist()):
        if rate <= 0:
            continue
        fi, fj = children.labels[i].forest, children.labels[j].forest
        diffs = [c for c in range(n) if fi[c] != fj[c]]
        if len(diffs) == 1:
            c = diffs[0]
            si, sj = fi[c][1], fj[c][1]
            key = (i, c)
        else:
            # Lumped labels stay sorted, so a flip can reorder positions;
            # siblings are then identical and share one entry distribution.
            move = _moved_root_pair(fi, fj)
            if move is None:
                continue
            si, sj = move
            key = (i, "*")
        if si[0] == "O" and sj[0] == "F":
            bucket = records.setdefault(key, {})
            bucket[sj[1]] = bucket.get(sj[1], 0.0) + rate

    def normalized(bucket):
        total = sum(bucket.values())
        return {ph: r / total for ph, r in bucket.items()}

    shared = next(
        (normalized(b) for (_, who), b in records.items() if who == "*"), None
    )
    dists = []
    for c in range(n):
        bucket = next(
            (b for (_, who), b in records.items() if who == c), None
        )
        if bucket is not None:
            dists.append(normalized(bucket))
        elif shared is not None:
            dists.append(shared)
        else:
            dists.append({})
    return dists


def _snap_to_entry(forest, rule, entry_dists, children_index):
    """Targets and weights after mid-fetch children restart at their entry.

    A chain start freezes running child fetches; frozen clocks restart from
    scratch on the parent's admission, so the phase a child was caught in is
    irrelevant and the state collapses onto the entry distribution.
    """
    options = []
    for c, node in enumerate(forest):
        symbol = node[1]
        if symbol[0] == "F" and symbol[1] not in rule.entry_supports[c]:
            options.append(
                [((node[0], ("F", ph)), w) for ph, w in entry_dists[c].items()]
            )
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


def line_superpose(parent, children, parent_entry=None, settings=None):
    """Join a parent cache MAP with the superposed MAP of its children.

    ``parent`` must come from :func:`build_parent_cache` (no active
    transitions of its own).  ``parent_entry`` gives the probability split of
    a fresh parent fetch over its fetch phases; when omitted, the fetch
    enters at the highest phase, which is exact for exponential, Erlang and
    Coxian delays.
    """
    settings = settings or default_settings()
    if parent.d1.count_nonzero():
        raise ConfigError("parent MAP must have no active transitions")
    p_syms = [label.forest[0][1] for label in parent.labels]
    if p_syms[:2] != [("O", 0), ("I", 0)] or any(s[0] != "F" for s in p_syms[2:]):
        raise ConfigError("parent MAP states must be ordered [Out, In, F_1..F_f]")
    n_fetch = len(p_syms) - 2
    if parent_entry is None:
        parent_entry = np.zeros(n_fetch)
        parent_entry[-1] = 1.0
    parent_entry = np.asarray(parent_entry, dtype=float)

    entry_dists = _child_entry_distributions(children)
    rule = InvalidStateRule(tuple(frozenset(d) for d in entry_dists))
    nc, npar = children.size, parent.size
    forests = [label.forest for label in children.labels]

    # Step (a): Kronecker sum, children index varying slowest.  State
    # (child ci, parent pi) has index ci * npar + pi.
    combo = kronecker_sum(children, parent, settings=settings)

    # Step (b), states: drop everything the causality rule forbids.  The rule
    # treats all fetch phases of the parent alike.
    valid = np.ones((nc, npar), dtype=bool)
    for ci, label in enumerate(children.labels):
        if rule.invalid(label, p_syms[2]):
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
        for target, share in _snap_to_entry(forests[cj], rule, entry_dists, children_index):
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


def _matrices_match(a, b, tol=1e-12):
    return (
        a.size == b.size
        and a.labels == b.labels
        and abs(a.d0 - b.d0).max() <= tol
        and abs(a.d1 - b.d1).max() <= tol
    )


def _superpose_with_lumping(child_maps, lump_per_level, settings):
    """Level-superpose children, lumping runs of identical siblings."""
    if not lump_per_level:
        return level_superpose(child_maps, settings=settings)
    groups = []
    for m in child_maps:
        if groups and _matrices_match(groups[-1][0], m):
            groups[-1].append(m)
        else:
            groups.append([m])
    parts = []
    for group in groups:
        combined = level_superpose(group, settings=settings)
        if len(group) > 1:
            combined = lump_symmetric_level(
                combined, [group[0].size] * len(group), settings=settings
            ).map
        parts.append(combined)
    return level_superpose(parts, settings=settings)


def build_tree(spec, lump_per_level=False, settings=None):
    """Build the full system MAP of a cache tree by post-order composition."""
    settings = settings or default_settings()
    spec.validate(exact=True)

    def build(node):
        if node.is_leaf:
            return build_single_cache(node.arrival, node.ttl, node.delay)
        children = _superpose_with_lumping(
            [build(child) for child in node.children], lump_per_level, settings
        )
        parent = build_parent_cache(node.ttl, node.delay)
        return line_superpose(
            parent,
            children,
            parent_entry=fetch_entry_distribution(node.delay),
            settings=settings,
        )

    return build(spec.root)
