"""Vectorised join-tree multiway joins (numpy struct-of-arrays engine).

Phase-for-phase the same algorithm as :mod:`repro.core.join_tree` — one
bottom-up ``multiplicity`` pass per edge, a ``finalize`` pass laying out
every node's stab markers, one ``distribute_expand`` stab per node over the
slot space, and an ``align_concat`` — with every pass a whole-array numpy
operation whose index patterns depend only on ``(sizes, tree, target)``.
Outputs are bit-identical to the traced engine (pinned by
``tests/test_join_tree.py``).

Every sort goes through the ``sort`` argument of :func:`vector_join_tree`,
the way :func:`repro.vector.join.vector_oblivious_join` takes one: the
sharded engine runs this same text over :func:`repro.shard.sort.sharded_sort`.
The key lists are :func:`prefix_keys` and :func:`stab_keys`, functions of
public sizes only, which the sharded plan compiler reads as well.  Each
orders its rows totally — the position ``i`` is unique within a tag — so the
output cannot depend on how ``sort`` breaks ties.
"""

from __future__ import annotations

import numpy as np

from ..core.join_tree import (
    JoinTreeResult,
    child_edge_indices,
    join_tree_bound,
    topdown_edge_order,
    validate_join_tree_tables,
)
from ..core.padding import DUMMY_HANDLE, check_padding, exceeds_bound
from ..core.stats import PhaseStats
from ..errors import InputError
from .join import int64_cells
from .sort import Key, index_bits, vector_bitonic_sort

_INT = np.int64
_MIN, _MAX = -(2**63), 2**63 - 1


def prefix_keys(n: int) -> list[Key]:
    """A table's ``(key, position)`` order over ``n`` rows: the child sort of
    :func:`edge_multiplicity` and every edge's marker sort."""
    return [("x", True), ("i", True, index_bits(n))]


def stab_keys(size: int, tags: int) -> tuple[list[Key], list[Key]]:
    """A stab's two sorts over ``size`` rows of ``tags`` kinds: by
    ``(coordinate, tag, position)``, then back by ``(tag, position)``."""
    tag, position = ("t", True, index_bits(tags)), ("i", True, index_bits(size))
    return [("x", True), tag, position], [tag, position]


def _table_array(table, width: int, index: int) -> np.ndarray:
    array = int64_cells(table, f"join-tree table {index}")
    if array.size == 0:
        array = array.reshape(0, width)
    if array.ndim != 2:
        raise InputError("join-tree tables must be sequences of row tuples")
    return array


def edge_multiplicity(
    parent_key: np.ndarray,
    child_key: np.ndarray,
    child_alpha: np.ndarray,
    band: int,
    counter: list,
    sort=vector_bitonic_sort,
) -> tuple[np.ndarray, np.ndarray]:
    """One bottom-up edge pass: per parent row, ``(beta, start)``.

    ``beta`` is the total child ``alpha``-mass matching the parent's key
    within ``band``; ``start`` the exclusive prefix mass strictly below the
    band — the base coordinate of the matching run in the child's
    ``(key, index)``-sorted mass space.  Three oblivious sorts, all of
    public size: the child prefix sort at ``n_c`` and the combined
    lo/hi stabbing pass at ``2 * n_v + n_c``.
    """
    n_v = len(parent_key)
    n_c = len(child_key)
    sc = sort(
        {
            "x": np.asarray(child_key, dtype=_INT),
            "i": np.arange(n_c, dtype=_INT),
            "a": np.asarray(child_alpha, dtype=_INT),
        },
        prefix_keys(n_c),
        counter=counter,
    )
    acc = np.cumsum(sc["a"], dtype=_INT)
    parent_key = np.asarray(parent_key, dtype=_INT)
    # The band's ends saturate at the int64 limits — exact, as every child
    # key is an int64 — instead of wrapping around them.
    lo = np.where(parent_key < _MIN + band, _MIN, parent_key - band)
    hi = np.where(parent_key > _MAX - band, _MAX, parent_key + band)
    size = 2 * n_v + n_c
    stab, unstab = stab_keys(size, 3)
    combined = {
        "x": np.concatenate([lo, sc["x"], hi]),
        "t": np.concatenate(
            [
                np.zeros(n_v, dtype=_INT),
                np.ones(n_c, dtype=_INT),
                np.full(n_v, 2, dtype=_INT),
            ]
        ),
        "i": np.concatenate(
            [
                np.arange(n_v, dtype=_INT),
                np.arange(n_c, dtype=_INT),
                np.arange(n_v, dtype=_INT),
            ]
        ),
        "acc": np.concatenate(
            [np.zeros(n_v, dtype=_INT), acc, np.zeros(n_v, dtype=_INT)]
        ),
    }
    combined = sort(combined, stab, counter=counter)
    src = np.where(combined["t"] == 1, np.arange(size, dtype=_INT), -1)
    np.maximum.accumulate(src, out=src)
    filled = np.where(src >= 0, combined["acc"][np.maximum(src, 0)], 0)
    combined["acc"] = filled.astype(_INT)
    combined = sort(combined, unstab, counter=counter)
    lo = combined["acc"][:n_v]
    hi = combined["acc"][size - n_v :]
    return (hi - lo).astype(_INT), lo.astype(_INT)


def stab_markers(
    markers: dict[str, np.ndarray],
    coords: np.ndarray,
    defaults: dict[str, int],
    counter: list,
    sort=vector_bitonic_sort,
) -> dict[str, np.ndarray]:
    """Fill each query coordinate with the last marker at or before it.

    ``markers`` carries the coordinate column ``"x"`` (ascending) plus
    arbitrary payload columns; queries whose coordinate precedes every
    marker (the dummy ``-1`` convention) receive ``defaults``.  Two
    oblivious sorts of public size ``len(markers) + len(coords)``; returns
    the payload columns in query order plus ``"sg"``, each real query's
    offset from its marker.
    """
    n = len(markers["x"])
    q = len(coords)
    names = [name for name in markers if name != "x"]
    coords = np.asarray(coords, dtype=_INT)
    combined = {
        "x": np.concatenate([markers["x"], coords]),
        "t": np.concatenate([np.zeros(n, dtype=_INT), np.ones(q, dtype=_INT)]),
        "i": np.concatenate(
            [np.arange(n, dtype=_INT), np.arange(q, dtype=_INT)]
        ),
    }
    for name in names:
        fill = defaults.get(name, 0)
        combined[name] = np.concatenate(
            [np.asarray(markers[name], dtype=_INT), np.full(q, fill, dtype=_INT)]
        )
    stab, unstab = stab_keys(n + q, 2)
    combined = sort(combined, stab, counter=counter)
    src = np.where(combined["t"] == 0, np.arange(n + q, dtype=_INT), -1)
    np.maximum.accumulate(src, out=src)
    has = src >= 0
    idx = np.maximum(src, 0)
    for name in names:
        fill = defaults.get(name, 0)
        combined[name] = np.where(has, combined[name][idx], fill).astype(_INT)
    combined = sort(combined, unstab, counter=counter)
    stabbed = {name: combined[name][n:].copy() for name in names}
    real = stabbed["h"] != DUMMY_HANDLE
    stabbed["sg"] = np.where(real, coords - stabbed["a"], 0).astype(_INT)
    return stabbed


def _payload_columns(
    node: int,
    rows: np.ndarray,
    widths,
    children,
    edge_bs: dict,
) -> dict[str, np.ndarray]:
    """A node's marker payload in input order: data + (beta, start, Q)."""
    n = len(rows)
    cols: dict[str, np.ndarray] = {
        f"d{c}": rows[:, c].copy() for c in range(widths[node])
    }
    kids = children.get(node, ())
    suffix = np.ones(n, dtype=_INT)
    weights = [None] * len(kids)
    for j in range(len(kids) - 1, -1, -1):
        weights[j] = suffix
        suffix = suffix * edge_bs[kids[j]][0]
    for j, e in enumerate(kids):
        beta, start = edge_bs[e]
        cols[f"b{j}"] = beta
        cols[f"s{j}"] = start
        cols[f"q{j}"] = weights[j]
    return cols


def _marker_defaults(node: int, widths, children) -> dict[str, int]:
    defaults = {"h": DUMMY_HANDLE, "a": 0}
    for c in range(widths[node]):
        defaults[f"d{c}"] = DUMMY_HANDLE
    for j in range(len(children.get(node, ()))):
        defaults[f"b{j}"] = 0
        defaults[f"s{j}"] = 0
        defaults[f"q{j}"] = 0
    return defaults


def vector_join_tree(
    tables,
    edges,
    padding: str | None = None,
    bound=None,
    stats: PhaseStats | None = None,
    sort=vector_bitonic_sort,
) -> tuple[JoinTreeResult, PhaseStats]:
    """The vectorised join tree; returns ``(result, stats)``.

    ``result.rows`` are bit-identical (values and order) to
    :func:`repro.core.join_tree.oblivious_join_tree`'s.  ``sort`` is the
    oblivious sort every phase calls, with
    :func:`~repro.vector.sort.vector_bitonic_sort`'s signature; no engine
    option reaches it.  Under padding, a true size above the public bound
    raises :class:`~repro.errors.BoundError` right after ``multiplicity``.
    """
    stats = stats if stats is not None else PhaseStats()
    padding = check_padding(padding)
    tables = [[tuple(row) for row in table] for table in tables]
    widths, edges = validate_join_tree_tables(tables, edges, padding)
    sizes = tuple(len(table) for table in tables)
    arrays = [_table_array(table, widths[v], v) for v, table in enumerate(tables)]
    children = child_edge_indices(edges)
    order = topdown_edge_order(edges, len(tables))

    # -- multiplicity: bottom-up, deepest edges first --------------------------
    with stats.phase("multiplicity") as counter:
        alpha = [np.ones(n, dtype=_INT) for n in sizes]
        edge_bs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for e in reversed(order):
            edge = edges[e]
            beta, start = edge_multiplicity(
                arrays[edge.parent][:, edge.parent_col],
                arrays[edge.child][:, edge.child_col],
                alpha[edge.child],
                edge.band,
                counter,
                sort,
            )
            edge_bs[e] = (beta, start)
            alpha[edge.parent] = alpha[edge.parent] * beta

    m = int(alpha[0].sum())
    target = join_tree_bound(sizes, padding, bound)
    if target is not None:
        exceeds_bound(m, target)
    slots = m if target is None else target
    stats.m = m
    stats.target = slots

    # -- finalize: every node's markers, at the exclusive prefix of its mass ---
    # The root's lie in input order (plus, padded, the anchor owning the pad
    # slots [m, target)); each child's in (key, index)-sorted order.
    with stats.phase("finalize") as counter:
        defaults = [_marker_defaults(v, widths, children) for v in range(len(sizes))]
        prefix = np.cumsum(alpha[0], dtype=_INT) - alpha[0]
        root = {"x": prefix, "h": np.arange(sizes[0], dtype=_INT), "a": prefix}
        root.update(_payload_columns(0, arrays[0], widths, children, edge_bs))
        if target is not None:
            anchor = {**defaults[0], "x": m, "a": m}
            root = {name: np.append(col, _INT(anchor[name])) for name, col in root.items()}
        markers = {0: root}
        for e in order:
            c, key_col = edges[e].child, edges[e].child_col
            payload = _payload_columns(c, arrays[c], widths, children, edge_bs)
            prep = {
                "x": arrays[c][:, key_col].copy(),
                "i": np.arange(sizes[c], dtype=_INT),
                "al": alpha[c],
                **payload,
            }
            prep = sort(prep, prefix_keys(sizes[c]), counter=counter)
            mass = np.cumsum(prep["al"], dtype=_INT) - prep["al"]
            markers[c] = {"x": mass, "h": prep["i"], "a": mass}
            markers[c].update((name, prep[name]) for name in payload)

    # -- distribute_expand: top-down, each node stabs the slot space ----------
    with stats.phase("distribute_expand") as counter:
        stabbed = {0: stab_markers(root, np.arange(slots, dtype=_INT), defaults[0], counter, sort)}
        for e in order:
            edge = edges[e]
            parent = stabbed[edge.parent]
            j = children[edge.parent].index(e)
            digit = (parent["sg"] // np.maximum(parent[f"q{j}"], 1)) % np.maximum(
                parent[f"b{j}"], 1
            )
            real = parent["h"] != DUMMY_HANDLE
            coords = np.where(real, parent[f"s{j}"] + digit, -1).astype(_INT)
            stabbed[edge.child] = stab_markers(
                markers[edge.child], coords, defaults[edge.child], counter, sort
            )

    # -- align_concat: zip the nodes' slot columns, keep the real prefix ------
    with stats.phase("align_concat", counted=False):
        columns = [
            stabbed[v][f"d{c}"][:m] for v in range(len(sizes)) for c in range(widths[v])
        ]
        rows = list(zip(*(column.tolist() for column in columns)))
    result = JoinTreeResult(
        rows=rows, m=m, padding=padding, target=target, sizes=sizes
    )
    return result, stats
