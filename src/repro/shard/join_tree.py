"""The sharded join tree: per-edge bottom-up tasks, slot-window fan-out.

Pipeline (all public sizes fixed by the compiled plan)::

    compile     sharded_join_tree_plan(sizes, edges, k, target) — per-edge
                multiplicity nodes, per-node marker catalogues, the slot
                windows and the merge tournament's run lengths
    bottom-up   one ``multiplicity`` executor task per tree edge, grouped
                by child depth (same-depth edges have no data dependency,
                so each depth's batch dispatches concurrently through
                ``completion_stream``); the client applies the alpha
                products between batches
    finalize    client-side vector pass: suffix products + the per-node
                marker catalogues (:func:`repro.vector.join_tree.finalize_catalogue`)
    windows     the slot space ``[0, target)`` fans out as
                ``join_tree_window`` tasks — each stabs every node's
                catalogue over its own window, publishes its columns to
                shared memory on remote executors, and feeds the streaming
                merge tournament keyed on the slot index ``g``
    gather      truncate at the public target, keep the real rows ``[0, m)``

The window runs are non-overlapping, already-sorted slices of the slot
space, so the tournament's merges move rows without reordering them —
but the bracket, its run lengths and its comparator schedule are the same
plan-fixed artifact the binary join uses, which keeps the reassembly
arrival-order independent (pinned by the shuffle executor in CI) and the
comparator count a pure function of the window lengths.

Leakage: the whole schedule is a function of ``(sizes, tree, k, target)``
— there are *no* per-task revealed sizes, because the join tree never
materialises an intermediate relation.  Under ``"revealed"`` padding the
slot space is the true output size ``M`` (the same deliberate leak as the
cascade's revealed intermediates); the windows are then computed from the
revealed ``M`` at run time rather than from the plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.join_tree import JoinTreeResult, join_tree_bound
from ..core.padding import check_padding, exceeds_bound
from ..errors import InputError
from ..plan.compile import sharded_join_tree_plan
from ..plan.executors import (
    Executor,
    completion_stream,
    publish_columns,
    resolve_executor,
)
from ..plan.ir import Plan
from ..plan.partition import join_tree_window_plan
from ..vector.join_tree import (
    JoinTreeCatalogue,
    edge_multiplicity,
    expand_window,
    finalize_catalogue,
    prepare_tables,
    window_rows,
)
from .merge import StreamingTournament

_INT = np.int64

#: Keys of the output merge: the global slot index.
MERGE_KEYS = [("g", True)]


@dataclass
class ShardedJoinTreeStats:
    """Cost/schedule record of one sharded join-tree run.

    ``edge_comparisons`` has one entry per tree edge (the bottom-up
    tasks), ``window_comparisons`` one per slot-window task;
    ``merge_comparisons`` covers the output tournament.  ``windows`` is
    the public per-window row count list the merge's run lengths are.
    """

    shards: int = 1
    plan: Plan | None = None
    edge_comparisons: list[int] = field(default_factory=list)
    finalize_comparisons: int = 0
    window_comparisons: list[int] = field(default_factory=list)
    windows: tuple[int, ...] = ()
    merge_comparisons: int = 0
    seconds_by_phase: dict[str, float] = field(default_factory=dict)
    m: int = 0
    target: int | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_phase.values())

    @property
    def total_comparisons(self) -> int:
        return (
            sum(self.edge_comparisons)
            + self.finalize_comparisons
            + sum(self.window_comparisons)
            + self.merge_comparisons
        )

    @property
    def schedule(self) -> tuple:
        """The adversary-visible schedule: comparator counts per task.

        For fixed ``(sizes, tree, k, target)`` this tuple is identical
        across inputs — the differential suite pins it alongside
        ``plan.serialize()``.
        """
        return (
            ("multiplicity", tuple(self.edge_comparisons)),
            ("finalize", self.finalize_comparisons),
            ("windows", self.windows, tuple(self.window_comparisons)),
            ("merge", self.merge_comparisons),
        )


def _edge_task(payload) -> tuple[np.ndarray, np.ndarray, int]:
    """One bottom-up ``multiplicity`` plan node as an executor task."""
    parent_key, child_key, child_alpha, band = payload
    counter = [0]
    beta, start = edge_multiplicity(
        parent_key, child_key, child_alpha, band, counter
    )
    return beta, start, counter[0]


def _window_task(payload):
    """One ``join_tree_window`` plan node as an executor task (worker side).

    Stabs the slot window ``[lo, hi)`` against every node's marker
    catalogue and returns the aligned run — slot index column ``g`` plus
    one data column per output column, already sorted by ``g`` (windows
    are contiguous), so it is a valid tournament leaf as-is.  On remote
    executors the columns are parked in shared memory and only the ref
    tree travels back, matching :func:`repro.shard.merge.merge_pair_task`'s
    publish contract.
    """
    catalogue, lo, hi, publish = payload
    counter = [0]
    slots = expand_window(catalogue, lo, hi, counter)
    data = window_rows(catalogue, slots)
    run = {"g": np.arange(lo, hi, dtype=_INT)}
    for col in range(data.shape[1]):
        run[f"c{col}"] = data[:, col].copy()
    if publish:
        encoded, segment = publish_columns(run)
        return encoded, segment, counter[0]
    return run, None, counter[0]


def edge_depth_groups(edges, order) -> list[list[int]]:
    """Edge indices grouped by child depth, deepest group first.

    Within one group no edge's child is another's parent (depths differ by
    construction), so a group's tasks are data-independent and dispatch
    concurrently; groups are barriers because a parent edge needs its
    child's completed ``alpha``.
    """
    depth = {0: 0}
    groups: dict[int, list[int]] = {}
    for e in order:
        edge = edges[e]
        depth[edge.child] = depth[edge.parent] + 1
        groups.setdefault(depth[edge.child], []).append(e)
    return [groups[d] for d in sorted(groups, reverse=True)]


def join_tree_windows(plan: Plan) -> tuple[tuple[int, int], ...]:
    """The plan's ``join_tree_window`` nodes' ``[lo, hi)`` spans, in order."""
    return tuple(
        (node.attr("lo"), node.attr("hi"))
        for node in plan.nodes_by_op("join_tree_window")
    )


def sharded_join_tree(
    tables,
    edges,
    shards: int = 2,
    workers: int = 1,
    stats: ShardedJoinTreeStats | None = None,
    executor: str | Executor | None = None,
    plan: Plan | None = None,
    padding: str | None = None,
    bound=None,
) -> tuple[JoinTreeResult, ShardedJoinTreeStats]:
    """Sharded Yannakakis join tree; returns ``(result, stats)``.

    ``result.rows`` are bit-identical (values *and* order) to the traced
    and vector engines' — the canonical slot order is a pure function of
    the inputs, so reassembly through the streaming tournament cannot
    depend on task arrival order.  ``plan`` is the compiled public plan to
    consume; ``None`` compiles it here from the same public values.
    """
    executor = resolve_executor(executor, workers=workers)
    stats = stats if stats is not None else ShardedJoinTreeStats()
    stats.shards = shards
    padding = check_padding(padding)
    inputs = prepare_tables(tables, edges, padding)
    target = join_tree_bound(inputs.sizes, padding, bound)
    if plan is None:
        plan = sharded_join_tree_plan(inputs.sizes, inputs.edges, shards, target)
    else:
        supplied = tuple(
            plan.shape(name) for name in ("sizes", "edges", "k", "target")
        )
        expected = (
            inputs.sizes,
            tuple(
                (e.parent, e.child, e.parent_col, e.child_col, e.band)
                for e in inputs.edges
            ),
            shards,
            target,
        )
        if supplied != expected:
            raise InputError(
                f"plan compiled for (sizes, edges, k, target)="
                f"{supplied} cannot drive a join tree at {expected}"
            )
    stats.plan = plan

    # -- bottom-up: per-edge tasks, one concurrent batch per depth -----------
    start = time.perf_counter()
    alpha = [np.ones(n, dtype=_INT) for n in inputs.sizes]
    edge_bs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    stats.edge_comparisons = [0] * len(inputs.edges)
    for group in edge_depth_groups(inputs.edges, inputs.order):
        payloads = []
        for e in group:
            edge = inputs.edges[e]
            payloads.append(
                (
                    inputs.arrays[edge.parent][:, edge.parent_col],
                    inputs.arrays[edge.child][:, edge.child_col],
                    alpha[edge.child],
                    edge.band,
                )
            )
        for index, (beta, bstart, count) in completion_stream(
            executor, _edge_task, payloads
        ):
            e = group[index]
            stats.edge_comparisons[e] = count
            edge_bs[e] = (beta, bstart)
        for e in group:
            edge = inputs.edges[e]
            alpha[edge.parent] = alpha[edge.parent] * edge_bs[e][0]
    stats.seconds_by_phase["multiplicity"] = time.perf_counter() - start

    m = int(alpha[0].sum())
    padded = target is not None
    if padded:
        exceeds_bound(m, target)
    slot_space = target if padded else m
    stats.m = m
    stats.target = target

    # -- finalize: client-side marker catalogues -----------------------------
    start = time.perf_counter()
    counter = [0]
    catalogue: JoinTreeCatalogue = finalize_catalogue(
        inputs, alpha, edge_bs, m, slot_space, padded, counter
    )
    stats.finalize_comparisons = counter[0]
    stats.seconds_by_phase["finalize"] = time.perf_counter() - start

    # -- slot windows streamed into the merge tournament ---------------------
    # Padded: the windows are plan nodes.  Revealed: the slot space is the
    # run-time-revealed M (the mode's documented leak), so the same pure
    # window function runs here over M instead of at compile time.
    if padded:
        windows = join_tree_windows(plan)
    else:
        _, win_rows = join_tree_window_plan(slot_space, shards)
        spans, offset = [], 0
        for rows in win_rows:
            spans.append((offset, offset + rows))
            offset += rows
        windows = tuple(spans)
    stats.windows = tuple(hi - lo for lo, hi in windows)

    start = time.perf_counter()
    publish = bool(getattr(executor, "remote_submit", False))
    payloads = [(catalogue, lo, hi, publish) for lo, hi in windows]
    stats.window_comparisons = [0] * len(payloads)
    counter = [0]
    tournament = StreamingTournament(
        len(payloads),
        MERGE_KEYS,
        executor=executor,
        counter=counter,
        truncate=slot_space,
    )
    try:
        for index, (run, segment, count) in completion_stream(
            executor, _window_task, payloads
        ):
            stats.window_comparisons[index] = count
            if segment is not None:
                tournament.add_published(index, run, segment)
            else:
                tournament.add(index, run)
        # Merge work executed eagerly inside add() (inline submits) is
        # tournament time, not window time.
        fold_seconds = tournament.seconds
        stats.seconds_by_phase["windows"] = max(
            time.perf_counter() - start - fold_seconds, 0.0
        )
        start = time.perf_counter()
        merged = tournament.result()
    except BaseException:
        tournament.close()
        raise
    stats.merge_comparisons = counter[0]

    # -- gather: slot order is already canonical; keep the real prefix ------
    columns = [merged[f"c{col}"] for col in range(len(merged) - 1)]
    if columns:
        data = np.stack(columns, axis=1)[:m]
    else:
        data = np.zeros((m, 0), dtype=_INT)
    rows = [tuple(row) for row in data.tolist()]
    stats.seconds_by_phase["merge"] = time.perf_counter() - start + fold_seconds
    result = JoinTreeResult(
        rows=rows,
        m=m,
        padding=padding,
        target=target,
        sizes=inputs.sizes,
    )
    return result, stats
