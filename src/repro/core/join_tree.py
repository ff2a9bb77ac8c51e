"""Yannakakis-style join-tree multiway joins (traced reference engine).

The binary cascade (:mod:`repro.core.multiway`) pays a fresh padding bound
at every step, so a padded 3+-table query compounds bounds
multiplicatively even when the *final* output is small.  This module
implements the classical alternative for acyclic queries: a **join tree**
whose phases touch every table once and pad only the final output.

Phases (all engines run the same four):

``multiplicity`` (bottom-up, one pass per tree edge)
    For edge ``parent -> child``, compute per parent row the total subtree
    multiplicity ``beta`` of its matching child rows — a band-aware
    sort-and-scan: child rows sorted by ``(key, index)``, prefix sums of
    the child's own multiplicities ``alpha``, and two stabbing queries per
    parent row at ``key - band`` / ``key + band`` folded into one sorted
    pass.  After all child edges of a node are processed its own
    ``alpha`` is the product of its ``beta`` columns; the root's
    ``alpha`` sums to the true output size ``M``.

``finalize`` (top-down decomposition arithmetic)
    Per node, the suffix products ``Q_j`` of its children's ``beta``
    columns — the mixed-radix weights that decompose an output slot's
    local index into one digit per child edge.

``distribute_expand`` (one per node)
    Deliver, for every output slot ``g`` in ``[0, target)``, the node's
    matching row: a positional *stab* of slot coordinates against marker
    rows laid out at the exclusive prefix sums of ``alpha`` (root: input
    order; child: ``(key, index)``-sorted order).  Two oblivious sorts of
    public size ``target + n_node`` per node; the marker payload carries
    the row data, so no data-dependent gather ever runs.

``align_concat``
    Zip the per-node slot columns into output rows.

Padding: only the **root** is padded — one anchor marker whose
multiplicity is ``target - M`` occupies the slot tail, so every phase runs
at the public size ``target`` and real rows fill ``[0, M)`` in canonical
order.  Contrast with the cascade, which pads every intermediate.

Canonical output order (identical across engines, pinned by the
differential suite): slot ``g`` enumerates root rows in input order; each
root row's block enumerates its child-edge digits in edge-list order, each
digit running over matching child rows in ``(key, index)``-sorted order,
recursively weighted by the child's own subtree multiplicity.  This is
*not* the cascade's left-deep order; the two agree as multisets.

Band predicates: each edge carries ``band >= 0`` and matches child rows
with ``|parent_key - child_key| <= band``; ``band=0`` is the equi-join.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InputError
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from ..obliv.bitonic import bitonic_sort
from ..obliv.compare import SortSpec, item_key
from .padding import (
    DUMMY_HANDLE,
    check_padded_key,
    check_padding,
    exceeds_bound,
)
from .stats import JoinCounters

#: Canonical phase names of the join-tree pipeline.
PHASE_MULTIPLICITY = "multiplicity"
PHASE_FINALIZE = "finalize"
PHASE_EXPAND = "distribute_expand"
PHASE_ALIGN = "align_concat"


@dataclass(frozen=True)
class JoinTreeEdge:
    """One edge of a join tree: ``parent.parent_col (~band) child.child_col``.

    ``parent``/``child`` index the table list; node 0 is always the root.
    ``band=0`` is an equi-join edge; ``band=w`` matches rows with
    ``|parent_key - child_key| <= w``.
    """

    parent: int
    child: int
    parent_col: int
    child_col: int
    band: int = 0


def normalize_edges(edges) -> tuple[JoinTreeEdge, ...]:
    """Accept ``JoinTreeEdge`` objects or 4/5-int sequences."""
    out = []
    for edge in edges:
        if isinstance(edge, JoinTreeEdge):
            out.append(edge)
            continue
        parts = tuple(edge)
        if len(parts) == 4:
            parts = parts + (0,)
        if len(parts) != 5:
            raise InputError(
                "join-tree edges are (parent, child, parent_col, child_col"
                f"[, band]) tuples, got {edge!r}"
            )
        out.append(JoinTreeEdge(*(int(p) for p in parts)))
    return tuple(out)


def validate_join_tree(widths, edges) -> tuple[JoinTreeEdge, ...]:
    """Validate a tree over ``len(widths)`` tables; returns normalized edges.

    ``widths`` are the per-table column counts (public).  Requirements:
    exactly ``T - 1`` edges, node 0 the root, every non-root node the child
    of exactly one edge, every node reachable from the root, key columns in
    range, bands ints in ``[0, 2**63 - 1]``.
    """
    edges = normalize_edges(edges)
    count = len(widths)
    if count < 2:
        raise InputError("a join tree needs at least two tables")
    if len(edges) != count - 1:
        raise InputError(
            f"a join tree over {count} tables needs {count - 1} edges, "
            f"got {len(edges)}"
        )
    seen_children = set()
    for edge in edges:
        for node in (edge.parent, edge.child):
            if not 0 <= node < count:
                raise InputError(
                    f"join-tree edge {edge} references table {node}; "
                    f"only {count} tables were given"
                )
        if edge.child == 0:
            raise InputError("table 0 is the join-tree root; it has no parent")
        if edge.child in seen_children:
            raise InputError(
                f"table {edge.child} is the child of two join-tree edges"
            )
        seen_children.add(edge.child)
        if not 0 <= edge.parent_col < widths[edge.parent]:
            raise InputError(
                f"parent key column {edge.parent_col} out of range for "
                f"table {edge.parent} (width {widths[edge.parent]})"
            )
        if not 0 <= edge.child_col < widths[edge.child]:
            raise InputError(
                f"child key column {edge.child_col} out of range for "
                f"table {edge.child} (width {widths[edge.child]})"
            )
        if not 0 <= edge.band <= 2**63 - 1:
            raise InputError(
                f"join-tree band must lie in [0, 2**63 - 1], got {edge.band}"
            )
    # Reachability from the root makes the edge set a tree.
    topdown_edge_order(edges, count)
    return edges


def topdown_edge_order(edges, count: int | None = None) -> tuple[int, ...]:
    """Edge indices in BFS order from the root (parents before children).

    Deterministic: repeatedly scan the edge list in order, taking every
    edge whose parent is already reached.  Raises when some node is
    unreachable from the root (the edge set is not a tree).
    """
    edges = tuple(edges)
    reached = {0}
    order: list[int] = []
    taken = [False] * len(edges)
    while len(order) < len(edges):
        progressed = False
        for index, edge in enumerate(edges):
            if taken[index] or edge.parent not in reached:
                continue
            taken[index] = True
            reached.add(edge.child)
            order.append(index)
            progressed = True
        if not progressed:
            missing = sorted(
                {e.child for i, e in enumerate(edges) if not taken[i]}
            )
            raise InputError(
                f"join-tree tables {missing} are not reachable from the root"
            )
    if count is not None and len(reached) != count:
        raise InputError("join-tree edges do not span every table")
    return tuple(order)


def child_edge_indices(edges) -> dict[int, tuple[int, ...]]:
    """Per parent node, its child edges' indices in edge-list order."""
    children: dict[int, list[int]] = {}
    for index, edge in enumerate(edges):
        children.setdefault(edge.parent, []).append(index)
    return {parent: tuple(ids) for parent, ids in children.items()}


def join_tree_worst_case(sizes) -> int:
    """The full cross product — the only bound that never aborts."""
    total = 1
    for size in sizes:
        total *= int(size)
    return total


def join_tree_bound(sizes, padding: str | None, bound=None) -> int | None:
    """The single public output bound of a join-tree query, or ``None``.

    This is the join tree's whole padding story: unlike
    :func:`repro.core.padding.cascade_bounds` (one compounding bound per
    binary step), an acyclic query pads **only its final output** — the
    bottom-up/top-down phases never materialise an intermediate relation.
    ``bounded`` clamps the caller's cap to the cross-product worst case.
    """
    padding = check_padding(padding)
    if padding == "revealed":
        return None
    worst = join_tree_worst_case(sizes)
    if padding == "worst_case":
        return worst
    if isinstance(bound, (list, tuple)):
        bound = bound[0] if bound else None
    if bound is None:
        raise InputError('padding="bounded" needs an explicit bound')
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise InputError(f"padding bounds must be ints >= 0, got {bound!r}")
    return min(bound, worst)


@dataclass
class JoinTreeResult:
    """Output of a join-tree query on any engine.

    ``rows`` are the real output rows — each the concatenation of one row
    per table, in table-index order — in the canonical slot order (see the
    module docstring).  ``m`` is the true output size, ``target`` the
    public padded slot count (``m`` itself under ``"revealed"``).
    """

    rows: list[tuple]
    m: int
    padding: str = "revealed"
    target: int | None = None
    sizes: tuple[int, ...] = ()


def validate_join_tree_tables(tables, edges, padding: str):
    """Shared input validation; returns ``(widths, edges)`` normalized.

    Tables must be non-empty-width row tuples of ints; under padded modes
    every key column must satisfy the reserved-key contract
    (:func:`repro.core.padding.check_padded_key`).
    """
    if not tables or len(tables) < 2:
        raise InputError("a join tree needs at least two tables")
    edges = normalize_edges(edges)
    widths = []
    for index, table in enumerate(tables):
        if len(table):
            width = len(table[0])
        else:
            # An empty table joins to nothing (m = 0), so its width only
            # has to cover the key columns the tree references.
            width = max(
                [1]
                + [e.parent_col + 1 for e in edges if e.parent == index]
                + [e.child_col + 1 for e in edges if e.child == index]
            )
        for row in table:
            if len(row) != width:
                raise InputError(f"table {index} has ragged rows")
        widths.append(width)
    edges = validate_join_tree(widths, edges)
    for edge in edges:
        for node, col in (
            (edge.parent, edge.parent_col),
            (edge.child, edge.child_col),
        ):
            for row in tables[node]:
                key = row[col]
                if padding != "revealed":
                    check_padded_key(key)
                elif isinstance(key, bool) or not isinstance(key, int):
                    raise InputError(
                        "join-tree keys must be dictionary-encoded ints, "
                        f"got {type(key).__name__}"
                    )
    return widths, edges


# -- traced implementation ---------------------------------------------------


_STAB_SORT = SortSpec(item_key(0), item_key(1), item_key(2))
_STAB_UNSORT = SortSpec(item_key(1), item_key(2))


def _stab(
    marker_cells,
    query_coords,
    default_payload,
    tracer,
    stats,
    name: str,
):
    """Positional stab: fill each query with the last marker at or before it.

    ``marker_cells`` are ``(coord, 0, idx, payload)`` tuples already in
    ascending coordinate order (``idx`` their position — the tiebreak that
    makes the network's order total); ``query_coords`` one coordinate per
    slot.  Queries at a marker's exact coordinate stab *that* marker
    (marker tag 0 sorts first); queries before every marker (the dummy
    ``-1`` convention) receive ``default_payload``.  Two oblivious sorts of
    public size ``len(markers) + len(queries)``.  Returns the per-query
    payload list in query order.
    """
    n = len(marker_cells)
    q = len(query_coords)
    cells = PublicArray(n + q, name=name, tracer=tracer)
    for s, cell in enumerate(marker_cells):
        cells.write(s, cell)
    for g, coord in enumerate(query_coords):
        cells.write(n + g, (coord, 1, g, default_payload))
    bitonic_sort(cells, _STAB_SORT, stats=stats)
    carry = default_payload
    for i in range(n + q):
        coord, tag, idx, payload = cells.read(i)
        if tag == 0:
            carry = payload
        # Every cell is written, a marker with its own payload, so the
        # write set does not depend on where the sorted markers land.
        cells.write(i, (coord, tag, idx, carry))
    bitonic_sort(cells, _STAB_UNSORT, stats=stats)
    out = []
    for g in range(q):
        coord, _tag, _idx, payload = cells.read(n + g)
        out.append((coord, payload))
    return out


def oblivious_join_tree(
    tables,
    edges,
    tracer: Tracer | None = None,
    counters: JoinCounters | None = None,
    padding: str | None = None,
    bound=None,
) -> JoinTreeResult:
    """The traced join tree; returns :class:`JoinTreeResult`.

    Every bulk access runs through :class:`~repro.memory.public.PublicArray`
    (sorts are bitonic networks, scans are single linear passes), so the
    emitted trace is a function of the public shapes
    ``(sizes, tree, target)`` only; ``counters`` collects per-phase
    comparator counts and wall time like the binary join's.
    """
    padding = check_padding(padding)
    tracer = tracer if tracer is not None else Tracer()
    counters = counters if counters is not None else JoinCounters()
    tables = [[tuple(row) for row in table] for table in tables]
    widths, edges = validate_join_tree_tables(tables, edges, padding)
    sizes = tuple(len(table) for table in tables)
    count = len(tables)
    children = child_edge_indices(edges)
    order = topdown_edge_order(edges, count)

    # Load inputs and unit multiplicities (initialisation is untraced: the
    # server already holds the tables).
    data = [
        PublicArray(list(table), name=f"JT_T{v}", tracer=tracer)
        for v, table in enumerate(tables)
    ]
    alpha = [
        PublicArray([1] * sizes[v], name=f"JT_A{v}", tracer=tracer)
        for v in range(count)
    ]
    # Per edge: the (beta, start) columns over the parent's rows.
    edge_bs: list[PublicArray | None] = [None] * len(edges)

    # -- bottom-up multiplicity, deepest child edges first -------------------
    with counters.phase(PHASE_MULTIPLICITY), tracer.phase(PHASE_MULTIPLICITY):
        stats = counters.stats(PHASE_MULTIPLICITY)
        for e in reversed(order):
            edge = edges[e]
            v, c = edge.parent, edge.child
            n_v, n_c = sizes[v], sizes[c]
            sc = PublicArray(n_c, name=f"JT_SC{e}", tracer=tracer)
            for s in range(n_c):
                sc.write(s, (data[c].read(s)[edge.child_col], s, alpha[c].read(s)))
            bitonic_sort(sc, _STAB_SORT, stats=stats)
            running = 0
            for s in range(n_c):
                key, handle, a = sc.read(s)
                sc.write(s, (key, handle, a, running + a))
                running += a
            # One combined pass answers both band endpoints per parent row:
            # lo queries (tag 0) read the prefix mass strictly below
            # ``key - band``, hi queries (tag 2) the mass at or below
            # ``key + band``; their difference is beta.
            cells = PublicArray(2 * n_v + n_c, name=f"JT_M{e}", tracer=tracer)
            for t in range(n_v):
                key = data[v].read(t)[edge.parent_col]
                cells.write(t, (key - edge.band, 0, t, 0))
                cells.write(n_v + n_c + t, (key + edge.band, 2, t, 0))
            for s in range(n_c):
                key, _handle, _a, acc = sc.read(s)
                cells.write(n_v + s, (key, 1, s, acc))
            bitonic_sort(cells, _STAB_SORT, stats=stats)
            running = 0
            for i in range(2 * n_v + n_c):
                coord, tag, idx, acc = cells.read(i)
                if tag == 1:
                    running = acc
                cells.write(i, (coord, tag, idx, running))
            bitonic_sort(cells, _STAB_UNSORT, stats=stats)
            bs = PublicArray(n_v, name=f"JT_BS{e}", tracer=tracer)
            for t in range(n_v):
                lo = cells.read(t)[3]
                hi = cells.read(n_v + n_c + t)[3]
                bs.write(t, (hi - lo, lo))
            edge_bs[e] = bs
            for t in range(n_v):
                beta, _start = bs.read(t)
                alpha[v].write(t, alpha[v].read(t) * beta)

    m = sum(alpha[0].read(t) for t in range(sizes[0]))
    target = join_tree_bound(sizes, padding, bound)
    if target is None:
        target = m
    else:
        exceeds_bound(m, target)
    padded = padding != "revealed"

    # -- finalize: mixed-radix suffix products per node ----------------------
    # ep[v] holds, per row, the flattened (beta, start, Q) triple per child
    # edge — everything a slot needs to address that node's children.
    ep: list[PublicArray | None] = [None] * count
    with counters.phase(PHASE_FINALIZE), tracer.phase(PHASE_FINALIZE):
        for v in range(count):
            kids = children.get(v, ())
            if not kids:
                continue
            arr = PublicArray(sizes[v], name=f"JT_EP{v}", tracer=tracer)
            for t in range(sizes[v]):
                pairs = [edge_bs[e].read(t) for e in kids]
                flat = []
                suffix = 1
                weights = [1] * len(kids)
                for j in range(len(kids) - 1, -1, -1):
                    weights[j] = suffix
                    suffix *= pairs[j][0]
                for (beta, start), weight in zip(pairs, weights):
                    flat.extend((beta, start, weight))
                arr.write(t, tuple(flat))
            ep[v] = arr

    # -- distribute-expand: one stab per node over all target slots ----------
    # slots[v] holds (handle, sigma, data..., edge params...) per slot.
    slots: list[list[tuple] | None] = [None] * count
    stats = counters.stats(PHASE_EXPAND)
    with counters.phase(PHASE_EXPAND), tracer.phase(PHASE_EXPAND):
        # Root markers at the exclusive prefix of alpha, input order; under
        # padded modes one anchor marker owns the slot tail [m, target).
        marker_cells = []
        position = 0
        for t in range(sizes[0]):
            row = data[0].read(t)
            params = ep[0].read(t) if ep[0] is not None else ()
            marker_cells.append((position, 0, t, (t, position) + row + params))
            position += alpha[0].read(t)
        k0 = len(children.get(0, ()))
        if padded:
            marker_cells.append(
                (
                    m,
                    0,
                    sizes[0],
                    (DUMMY_HANDLE, m)
                    + (DUMMY_HANDLE,) * widths[0]
                    + (0,) * (3 * k0),
                )
            )
        default = (
            (DUMMY_HANDLE, 0) + (DUMMY_HANDLE,) * widths[0] + (0,) * (3 * k0)
        )
        stabbed = _stab(
            marker_cells, range(target), default, tracer, stats, "JT_X0"
        )
        slots[0] = [
            (payload[0], coord - payload[1] if payload[0] != DUMMY_HANDLE else 0)
            + payload[2:]
            for coord, payload in stabbed
        ]

        for e in order:
            edge = edges[e]
            v, c = edge.parent, edge.child
            j = children[v].index(e)
            n_c = sizes[c]
            kc = len(children.get(c, ()))
            # Child markers: (key, index)-sorted rows at the exclusive
            # prefix of alpha-mass, carrying row data and edge params.
            prep = PublicArray(n_c, name=f"JT_P{e}", tracer=tracer)
            for s in range(n_c):
                row = data[c].read(s)
                params = ep[c].read(s) if ep[c] is not None else ()
                prep.write(
                    s,
                    (
                        row[edge.child_col],
                        s,
                        alpha[c].read(s),
                        (s, 0) + row + params,
                    ),
                )
            bitonic_sort(prep, _STAB_SORT, stats=stats)
            marker_cells = []
            running = 0
            for s in range(n_c):
                _key, _handle, a, payload = prep.read(s)
                marker_cells.append(
                    (running, 0, s, payload[:1] + (running,) + payload[2:])
                )
                running += a
            base = 2 + widths[v] + 3 * j
            coords = []
            for g in range(target):
                slot = slots[v][g]
                handle, sigma = slot[0], slot[1]
                beta, start, weight = slot[base], slot[base + 1], slot[base + 2]
                if handle == DUMMY_HANDLE:
                    coords.append(-1)
                else:
                    digit = (sigma // max(weight, 1)) % max(beta, 1)
                    coords.append(start + digit)
            default = (
                (DUMMY_HANDLE, 0) + (DUMMY_HANDLE,) * widths[c] + (0,) * (3 * kc)
            )
            stabbed = _stab(marker_cells, coords, default, tracer, stats, f"JT_X{e}")
            slots[c] = [
                (
                    payload[0],
                    coord - payload[1] if payload[0] != DUMMY_HANDLE else 0,
                )
                + payload[2:]
                for coord, payload in stabbed
            ]

    # -- align-concat + client-side compaction -------------------------------
    with counters.phase(PHASE_ALIGN), tracer.phase(PHASE_ALIGN):
        rows = []
        for g in range(target):
            row: tuple = ()
            for v in range(count):
                row = row + slots[v][g][2 : 2 + widths[v]]
            rows.append(row)
    return JoinTreeResult(
        rows=rows[:m],
        m=m,
        padding=padding,
        target=target if padded else None,
        sizes=sizes,
    )
