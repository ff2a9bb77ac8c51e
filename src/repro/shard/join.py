"""The sharded oblivious join: one compiled plan, a task grid, one merge.

Pipeline (all public sizes fixed by the compiled plan)::

    compile    sharded_join_plan(n1, n2, k, target) — partition plans,
               presort layout, the k*k grid with per-cell bounds, the merge
               tournament's run lengths and truncation point
    presort    shard-sort the left table by (j, d): k local bitonic sorts
               streamed into a bitonic merge tournament; rank rows by
               sorted position
    partition  ranked left / raw right -> k equal, padded shards each
    grid       run the k*k shard-pair sub-joins on the *executor*
               (inline / shared-memory pool / shuffle), each a
               full vectorised Algorithm 1 over its (public-size) slice
    merge      fold each sorted (j, rank, d2) run into the streaming
               merge tournament *as its grid task completes* (the
               executor's ordered-completion seam); pairwise merges run
               as worker tasks with intermediate runs cached in shared
               memory between rounds; compact the padding and gather d1
               back through the rank handles

The plan is compiled *before* any data is touched — it is a pure function
of ``(n1, n2, k, target_m)`` — and the driver consumes it: every grid
cell's padded bound and the merge truncation point come from plan nodes,
not from the data.  ``stats.plan`` exposes the executed plan so the
obliviousness suite can assert byte-identical serializations across inputs
that share a shape.

Because shard membership is positional, every joinable row pair meets in
exactly one grid cell, so the union of sub-join outputs is exactly the join
multiset.  Reassembling the *canonical order* (each group's cross product,
row-major over the d-sorted sides) needs one subtlety: two left rows with
equal ``(j, d1)`` emit interleaved, not adjacent, output rows, so no sort
of raw ``(j, d1, d2)`` triples can reproduce the sequence.  The presort
fixes that by giving every left row a unique global rank ``s`` (its
position in the ``(j, d)``-sorted table); the grid joins on ``(j, s)``, the
merge orders by ``(j, s, d2)`` — a total order — and ``d1`` is recovered by
indexing the sorted column with ``s``, the same client-side handle gather
the multiway cascade uses for payloads.

Leakage: the partition plans and every primitive schedule are functions of
``(n1, n2, k)`` plus the per-task output sizes ``m_ij``.  The ``m_ij`` grid
is a *finer* deliberate reveal than the single join's ``m`` (it localises
output volume to position-block pairs) — the same trade the multiway
cascade makes for intermediate sizes.  With ``target_m`` set, the grid is
folded into the padded story: every task runs the padded vector join at
its public cell bound ``min(target_m, real_i * real_j)`` (a cell cannot
emit more than its cross product, nor more than the whole join may), and
the merge tournament truncates every merged run at the public bound
(*fused expand-truncate*: a row past position ``target_m`` of a sorted run
can never reach the first ``target_m`` rows of the final merge, so
dropping it early is a public, data-independent cut).  Task grid,
schedule, and ``task_m`` all become functions of
``(n1, n2, k, target_m)``, and revealed and padded grids run the same
dispatch loop.

*Deferred overflow.*  A cell bound below the cross product can be exceeded
by one hot cell alone.  A worker that raised there would reveal *which*
cell overflowed, so an over-bound cell still runs its whole public-shape
schedule, returns an all-dummy run of its public size and reports its true
size; the parent sums the true sizes and raises
:class:`~repro.errors.BoundError` only after every cell has returned —
the one bit ``docs/leakage.md`` prices for a ``bounded`` abort.  See
:mod:`repro.plan.compile`, :mod:`repro.core.padding` and
``docs/leakage.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.padding import (
    DUMMY_HANDLE,
    check_anchor_headroom,
    check_payload_headroom,
    check_target_m,
    exceeds_bound,
)
from ..errors import InputError
from ..plan.compile import sharded_join_plan
from ..plan.executors import (
    Executor,
    completion_stream,
    resolve_executor,
    resolve_payload,
)
from ..plan.ir import Plan
from ..store.runtime import StorePairs, store_pairs_block_rows
from ..vector.join import vector_oblivious_join
from ..vector.sort import vector_bitonic_sort
from .merge import StreamingTournament, truncate_run
from .partition import pairs_partition_plan, partition_pairs

_INT = np.int64

#: Keys of the output merge: group, left global rank, right data value.
MERGE_KEYS = [("j", True), ("d1", True), ("d2", True)]

#: Keys of the presort that ranks the left table.
PRESORT_KEYS = [("j", True), ("d", True)]


@dataclass
class ShardedJoinStats:
    """Cost/schedule record of one sharded join.

    ``plan`` is the compiled public plan the run consumed; ``partition`` is
    the public partition plan for both inputs; ``presort_comparisons`` /
    ``presort_merge_comparisons`` cover the left-ranking sort,
    ``task_comparisons`` each grid task's per-phase comparator counts,
    ``task_m`` the revealed per-task output sizes and ``merge_comparisons``
    the output merge tournament.
    """

    shards: int = 1
    plan: Plan | None = None
    partition: tuple = ()
    presort_comparisons: list[int] = field(default_factory=list)
    presort_merge_comparisons: int = 0
    task_comparisons: list[dict[str, int]] = field(default_factory=list)
    task_m: list[int] = field(default_factory=list)
    merge_comparisons: int = 0
    seconds_by_phase: dict[str, float] = field(default_factory=dict)
    m: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_phase.values())

    @property
    def total_comparisons(self) -> int:
        return (
            sum(self.presort_comparisons)
            + self.presort_merge_comparisons
            + sum(sum(c.values()) for c in self.task_comparisons)
            + self.merge_comparisons
        )

    @property
    def schedule(self) -> tuple:
        """The adversary-visible schedule of the whole sharded join.

        Partition plans, presort comparators, each grid task's
        ``(task, phase, comparators)`` triples, and the merge comparator
        count.  For fixed ``(n1, n2, k)`` and fixed (revealed) ``m_ij``
        sizes this tuple is identical across inputs — the obliviousness
        suite pins that (and pins ``plan.serialize()`` the same way).
        """
        tasks = tuple(
            (index, phase, count)
            for index, comparisons in enumerate(self.task_comparisons)
            for phase, count in sorted(comparisons.items())
        )
        return (
            ("partition", self.partition),
            ("presort", tuple(self.presort_comparisons), self.presort_merge_comparisons),
            tasks,
            ("merge", self.merge_comparisons),
        )


def _sort_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """Sort one padded shard's real rows by ``(j, d)`` (worker side).

    Store-backed shards arrive as block refs; ``resolve_payload`` faults
    their plan-named blocks in through this process's store handle.
    """
    j, d, real = resolve_payload(payload)
    counter = [0]
    columns = vector_bitonic_sort(
        {"j": j[:real].copy(), "d": d[:real].copy()}, PRESORT_KEYS, counter=counter
    )
    return columns, counter[0]


def _join_task(payload) -> tuple[np.ndarray, dict[str, int], int]:
    """One grid cell: join a left shard with a right shard (worker side).

    The payload carries padded column arrays plus the public real counts;
    slicing off the padding reveals nothing because the counts are part of
    the partition plan.  Returns the keyed ``(m_ij, 3)`` output run (sorted
    by ``(j, left_rank, d2)``), the task's comparator counts and the
    cell's true output size.  Under padded execution ``task_target`` is the
    cell's public bound (a ``grid_join`` plan node) and the run comes back
    padded to exactly that size — all dummies when the true size exceeds
    it, which the parent, not this worker, turns into the abort.
    """
    lj, ld, lreal, rj, rd, rreal, task_target = resolve_payload(payload)
    left = np.stack([lj[:lreal], ld[:lreal]], axis=1)
    right = np.stack([rj[:rreal], rd[:rreal]], axis=1)
    keyed, stats = vector_oblivious_join(
        left, right, with_keys=True, target_m=task_target, defer_overflow=True
    )
    return keyed, dict(stats.comparisons_by_phase), stats.true_m


def _sharded_rank_sort(
    pairs, shards: int, executor: Executor, stats: ShardedJoinStats
) -> dict[str, np.ndarray]:
    """Sort ``pairs`` by ``(j, d)``: streamed shard sorts + merge tournament.

    Each shard's sorted run is folded into the tournament the moment its
    sort task completes (no barrier between sort and merge), and the
    tournament's pairwise merges themselves run as executor tasks.  The
    bracket is fixed by the run count, so arrival order cannot change the
    output or the comparator schedule.
    """
    start = time.perf_counter()
    parts = partition_pairs(pairs, shards)
    payloads = [(part.j, part.d, part.real) for part in parts]
    stats.presort_comparisons = [0] * len(payloads)
    counter = [0]
    tournament = StreamingTournament(
        len(payloads), PRESORT_KEYS, executor=executor, counter=counter
    )
    try:
        for index, (columns, count) in completion_stream(
            executor, _sort_task, payloads
        ):
            stats.presort_comparisons[index] = count
            tournament.add(index, columns)
        merged = tournament.result()
    except BaseException:
        tournament.close()
        raise
    stats.presort_merge_comparisons = counter[0]
    # Same split as run_join_grid's tasks/merge: merge work the tournament
    # executed eagerly inside add() (inline submits) is reassembly time,
    # not shard-sort time — without the subtraction the inline executor
    # would double-attribute it and the phase totals would not partition
    # the wall clock.
    fold_seconds = tournament.seconds
    elapsed = time.perf_counter() - start
    stats.seconds_by_phase["presort"] = max(elapsed - fold_seconds, 0.0)
    stats.seconds_by_phase["presort_merge"] = fold_seconds
    return merged


def _check_padded_input(pairs) -> None:
    """Key- and payload-headroom validation for one padded input table."""
    if isinstance(pairs, StorePairs):
        # Stream the reductions block-wise instead of materialising the
        # whole column in trusted memory; same checks, same error text.
        if len(pairs) == 0:
            return
        check_anchor_headroom((pairs.max_j(),))
        check_payload_headroom((pairs.min_d(),))
        return
    array = np.asarray(pairs, dtype=_INT)
    if array.size == 0:
        return
    array = array.reshape(-1, 2)
    check_anchor_headroom((int(array[:, 0].max()),))
    check_payload_headroom((int(array[:, 1].min()),))


def sharded_oblivious_join(
    left,
    right,
    shards: int = 2,
    workers: int = 1,
    stats: ShardedJoinStats | None = None,
    target_m: int | None = None,
    executor: str | Executor | None = None,
    plan: Plan | None = None,
) -> tuple[np.ndarray, ShardedJoinStats]:
    """Sharded Algorithm 1; returns ``(pairs, stats)``.

    ``pairs`` is the same ``(m, 2)`` int64 array
    :func:`~repro.vector.join.vector_oblivious_join` produces — bit-identical
    rows in the canonical order — computed as ``shards**2`` independent
    sub-joins on the given executor (``executor=None`` keeps the historical
    rule: inline at ``workers=1``, the shared-memory pool above).

    ``target_m`` selects padded execution: every grid cell is padded to its
    public cell bound, the merge tournament truncates at the public bound,
    and the whole schedule (grid, ``task_m``, merge) reveals only
    ``(n1, n2, k, target_m)``.  Like every engine, ``target_m`` is clamped
    to the cross-product worst case ``n1 * n2`` (a public function).

    ``plan`` is the compiled public plan to consume; ``None`` compiles it
    here from the same public values (``sharded_join_plan``) — passing one
    in (as the multiway cascade does per step) is exactly equivalent.
    """
    executor = resolve_executor(executor, workers=workers)
    stats = stats if stats is not None else ShardedJoinStats()
    stats.shards = shards
    if target_m is not None:
        target_m = check_target_m(target_m, len(left), len(right))
        _check_padded_input(left)
        _check_padded_input(right)
    # Store-backed inputs partition block-aligned; the block size is part
    # of the public shapes the plan is compiled from (it is a store-layout
    # constant, not data), and (None, None) — the all-resident case —
    # collapses to the historical plan bytes.
    blocks = (store_pairs_block_rows(left), store_pairs_block_rows(right))
    block_rows = None if blocks == (None, None) else blocks
    if plan is None:
        plan = sharded_join_plan(len(left), len(right), shards, target_m, block_rows)
    else:
        # A caller-supplied plan compiled for other shapes would silently
        # mis-drive the grid (the payload/cell zip truncates); fail loudly.
        supplied = tuple(
            plan.shape(name) for name in ("n1", "n2", "k", "target", "block_rows")
        )
        expected = (len(left), len(right), shards, target_m, block_rows)
        if supplied != expected:
            raise InputError(
                f"plan compiled for (n1, n2, k, target, block_rows)="
                f"{supplied} cannot drive a join at {expected}"
            )
    stats.plan = plan

    sorted_left = _sharded_rank_sort(left, shards, executor, stats)
    # The grid's public bounds come from the plan, not from the data: one
    # grid_join node per (i, j) cell, row-major — the same order as the
    # payload list grid_join_payloads builds.
    cell_targets = [node.attr("target") for node in plan.nodes_by_op("grid_join")]
    pairs = run_join_grid(
        sorted_left, right, shards, executor, stats, target_m, cell_targets
    )
    return pairs, stats


def grid_join_payloads(
    sorted_left: dict[str, np.ndarray],
    right,
    shards: int,
    cell_targets,
    stats: ShardedJoinStats,
) -> list:
    """Partition the ranked left table and the right side into the k*k grid.

    ``sorted_left`` is the ``(j, d)``-sorted left table (the presort's
    output); ranks are its positions.  Returns one ``_join_task`` payload
    per grid cell, row-major, with the cells' public output bounds zipped
    in from ``cell_targets`` (one per cell, ``None`` = unpadded).
    """
    start = time.perf_counter()
    n1 = len(sorted_left["j"])
    ranked_left = np.stack(
        [sorted_left["j"], np.arange(n1, dtype=_INT)], axis=1
    )
    left_parts = partition_pairs(ranked_left, shards)
    right_parts = partition_pairs(right, shards)
    n2 = sum(part.real for part in right_parts)
    # ranked_left is always resident (the presort materialised it), so its
    # plan is the standard row-aligned one; the right side reports the
    # block-aligned plan when it is store-backed.
    stats.partition = (
        pairs_partition_plan(ranked_left, shards),
        pairs_partition_plan(right, shards),
    )
    payloads = [
        (lp.j, lp.d, lp.real, rp.j, rp.d, rp.real, target)
        for (lp, rp), target in zip(
            ((lp, rp) for lp in left_parts for rp in right_parts), cell_targets
        )
    ]
    stats.seconds_by_phase["partition"] = time.perf_counter() - start
    return payloads


def run_join_grid(
    sorted_left: dict[str, np.ndarray],
    right,
    shards: int,
    executor: Executor,
    stats: ShardedJoinStats,
    target_m: int | None,
    cell_targets,
) -> np.ndarray:
    """Run the k*k grid over ``executor`` and reassemble the join output.

    The post-presort half of :func:`sharded_oblivious_join`.  Returns the
    ``(m, 2)`` pairs array.
    """
    payloads = grid_join_payloads(sorted_left, right, shards, cell_targets, stats)

    # Grid tasks stream into the merge tournament as they complete: the
    # bracket (and with it the comparator schedule) is fixed by the plan's
    # merge_pair nodes — a pure function of (n1, n2, k, target) — so the
    # completion order the executor happens to produce is scheduling
    # jitter, not schedule.  Pairwise merges run as executor tasks too,
    # overlapping reassembly with still-running grid cells.
    start = time.perf_counter()
    stats.task_comparisons = [{} for _ in payloads]
    stats.task_m = [0] * len(payloads)
    true_m = 0
    counter = [0]
    tournament = StreamingTournament(
        len(payloads),
        MERGE_KEYS,
        executor=executor,
        counter=counter,
        truncate=target_m,
    )
    try:
        for index, (keyed, comparisons, cell_m) in completion_stream(
            executor, _join_task, payloads
        ):
            stats.task_comparisons[index] = comparisons
            stats.task_m[index] = len(keyed)
            # Bound-check input: each cell's true size as its worker
            # counted it, so neither the fused truncation nor an
            # over-bound cell's all-dummy run can hide over-bound rows.
            true_m += cell_m
            tournament.add(
                index,
                {"j": keyed[:, 0], "d1": keyed[:, 1], "d2": keyed[:, 2]},
            )
        # Merge work executed eagerly inside add() (inline submits) is
        # tournament time, not grid time — split it out so the reported
        # merge phase covers the reassembly on every executor, not just
        # the drain tail of the remote ones.
        fold_seconds = tournament.seconds
        stats.seconds_by_phase["tasks"] = max(
            time.perf_counter() - start - fold_seconds, 0.0
        )
        stats.m = sum(stats.task_m) if target_m is None else target_m

        start = time.perf_counter()
        if target_m is not None:
            # Only now — after the whole grid ran its public schedule —
            # may the abort happen (one bit, not the overflowing cell).
            exceeds_bound(true_m, target_m)
        merged = tournament.result()
    except BaseException:
        tournament.close()
        raise
    stats.merge_comparisons = counter[0]

    if target_m is not None:
        # All real rows sort before the anchor-keyed dummies, so keeping
        # the first target_m merged rows is a public truncation (the
        # tournament already applied it round by round); the dummy ranks
        # (-1) must not index the gather below.
        merged = truncate_run(merged, target_m)
        ranks = merged["d1"]
        real = ranks >= 0
        gathered = np.where(
            real, sorted_left["d"][np.where(real, ranks, 0)], DUMMY_HANDLE
        )
        pairs = np.stack([gathered, merged["d2"]], axis=1)
    elif stats.m == 0:
        pairs = np.zeros((0, 2), dtype=_INT)
    else:
        # The merged d1 column holds left *ranks*; gather the data values
        # back through them (client-side handle gather, as in multiway).
        pairs = np.stack([sorted_left["d"][merged["d1"]], merged["d2"]], axis=1)
    stats.seconds_by_phase["merge"] = time.perf_counter() - start + fold_seconds
    return pairs
