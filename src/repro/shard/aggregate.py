"""Sharded oblivious grouped aggregation (join-aggregate and GROUP BY).

Aggregation decomposes over positional shards far more cheaply than the
join: every aggregate the engine supports (count/sum/min/max and the
products derived from them) is associative, so shard ``i`` only has to
aggregate *its own* block of each input and ship one accumulator row per
key it saw.  The parent then combines the partial accumulators with the
same sort -> segmented-reduce -> compact pipeline the vector engine uses:

1. ``k`` tasks, each sorting its ``~n/k``-cell shard by ``(j, tid)`` and
   segment-reducing per-key ``(count, sum, min, max)`` partials,
2. one bitonic sort of the concatenated partial rows by ``j``,
3. a segmented reduction summing counts/sums and folding mins/maxes, and
4. a bitonic compaction dropping keys that do not survive the filter
   (both sides present for the join-aggregate; any row for GROUP BY).

Total comparator work is ``k * (n/k) log^2 (n/k)`` for the shard sorts —
*less* than the single-shot ``n log^2 n`` — plus the combine on the partial
table.  Revealed: the per-shard partial group counts (how many distinct
keys each position block holds) and the final group count ``g``; the former
is the sharded analogue of the multiway cascade's intermediate sizes.
With ``padded=True`` each shard's partial table is padded to its public
worst case (the block's row count — a block cannot hold more distinct keys
than rows) with neutral anchor-keyed dummies that the combine's own filter
compacts away, so only ``(n1, n2, k)`` and the final ``g`` are revealed.

Outputs are bit-identical to :mod:`repro.vector.aggregate` — asserted by
the cross-engine differential suite — including the refusal of inputs whose
data values could overflow an int64 column sum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.aggregate import GroupAggregate
from ..core.padding import ANCHOR_KEY
from ..errors import InputError
from ..plan.compile import sharded_aggregate_plan
from ..plan.executors import Executor, completion_stream, resolve_executor
from ..plan.ir import Plan
from ..vector.sort import vector_bitonic_sort
from .partition import partition_pairs, partition_plan

_INT = np.int64
_INT_MAX = np.iinfo(np.int64).max
_INT_MIN = np.iinfo(np.int64).min

#: Accumulator columns each partial-aggregation task emits, one row per key.
_PARTIAL_COLUMNS = ("j", "c1", "c2", "s1", "s2", "mn1", "mx1", "mn2", "mx2")


@dataclass
class ShardedAggregateStats:
    """Cost/schedule record of one sharded aggregation."""

    shards: int = 1
    plan: Plan | None = None
    partition: tuple = ()
    task_comparisons: list[int] = field(default_factory=list)
    partial_group_counts: list[int] = field(default_factory=list)
    combine_comparisons: int = 0
    seconds_by_phase: dict[str, float] = field(default_factory=dict)
    groups: int = 0

    @property
    def total_comparisons(self) -> int:
        return sum(self.task_comparisons) + self.combine_comparisons

    @property
    def schedule(self) -> tuple:
        """Partition plan, per-task comparator counts, combine comparators.

        A function of ``(n1, n2, k)`` and the revealed partial group counts
        only — pinned by the obliviousness suite.
        """
        return (
            ("partition", self.partition),
            tuple(enumerate(self.task_comparisons)),
            ("combine", self.combine_comparisons),
        )


def _overflow_guard(d_columns: list[np.ndarray], n: int) -> None:
    """Refuse inputs whose n-term int64 sums could wrap (mirrors vector)."""
    limit = _INT_MAX // max(n, 1)
    for column in d_columns:
        if column.size and (column.max() > limit or column.min() < -limit):
            raise InputError(
                f"data values exceed the vector engine's overflow-safe range "
                f"(|d| <= {limit} at n = {n}); use the traced engine"
            )


def _segment_starts(j: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.concatenate([[True], j[1:] != j[:-1]]))


def _pad_partials(
    partials: dict[str, np.ndarray], pad_to: int
) -> dict[str, np.ndarray]:
    """Pad a shard's partial table to its public bound with neutral rows.

    Dummy partials carry the anchor key, zero counts/sums and min/max
    identities: the combine's reduction absorbs them into a real key's
    segment and its presence filter drops a dummy-only one — no key reserved.
    """
    extra = pad_to - len(partials["j"])
    neutral = {
        "j": ANCHOR_KEY, "c1": 0, "c2": 0, "s1": 0, "s2": 0,
        "mn1": _INT_MAX, "mx1": _INT_MIN, "mn2": _INT_MAX, "mx2": _INT_MIN,
    }
    return {
        name: np.concatenate(
            [partials[name], np.full(extra, neutral[name], dtype=_INT)]
        )
        for name in _PARTIAL_COLUMNS
    }


def _aggregate_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """One shard: sort the block by ``(j, tid)``, emit per-key partials.

    ``pad_to`` (``None`` when revealing) pads the emitted partial table to
    the block's public row count, hiding how many distinct keys it held.
    """
    lj, ld, lreal, rj, rd, rreal, pad_to = payload
    j = np.concatenate([lj[:lreal], rj[:rreal]])
    d = np.concatenate([ld[:lreal], rd[:rreal]])
    tid = np.concatenate(
        [np.ones(lreal, dtype=_INT), np.full(rreal, 2, dtype=_INT)]
    )
    if len(j) == 0:
        empty = {name: np.zeros(0, dtype=_INT) for name in _PARTIAL_COLUMNS}
        return empty, 0

    counter = [0]
    columns = vector_bitonic_sort(
        {"j": j, "d": d, "tid": tid}, [("j", True), ("tid", True)], counter=counter
    )
    j, d, tid = columns["j"], columns["d"], columns["tid"]
    starts = _segment_starts(j)
    is_left = tid == 1
    partials = {
        "j": j[starts],
        "c1": np.add.reduceat(is_left.astype(_INT), starts),
        "c2": np.add.reduceat((~is_left).astype(_INT), starts),
        "s1": np.add.reduceat(np.where(is_left, d, 0), starts),
        "s2": np.add.reduceat(np.where(is_left, 0, d), starts),
        "mn1": np.minimum.reduceat(np.where(is_left, d, _INT_MAX), starts),
        "mx1": np.maximum.reduceat(np.where(is_left, d, _INT_MIN), starts),
        "mn2": np.minimum.reduceat(np.where(is_left, _INT_MAX, d), starts),
        "mx2": np.maximum.reduceat(np.where(is_left, _INT_MIN, d), starts),
    }
    if pad_to is not None:
        partials = _pad_partials(partials, pad_to)
    return partials, counter[0]


def _combine_partials(
    partial_tables: list[dict[str, np.ndarray]],
    left_only: bool,
    stats: ShardedAggregateStats,
) -> list[GroupAggregate]:
    """Sort + segment-reduce + compact the shards' partial accumulators."""
    start = time.perf_counter()
    concat = {
        name: np.concatenate([table[name] for table in partial_tables])
        for name in _PARTIAL_COLUMNS
    }
    if len(concat["j"]) == 0:
        stats.seconds_by_phase["combine"] = time.perf_counter() - start
        return []

    counter = [0]
    concat = vector_bitonic_sort(concat, [("j", True)], counter=counter)
    starts = _segment_starts(concat["j"])
    combined = {
        "j": concat["j"][starts],
        "c1": np.add.reduceat(concat["c1"], starts),
        "c2": np.add.reduceat(concat["c2"], starts),
        "s1": np.add.reduceat(concat["s1"], starts),
        "s2": np.add.reduceat(concat["s2"], starts),
        "mn1": np.minimum.reduceat(concat["mn1"], starts),
        "mx1": np.maximum.reduceat(concat["mx1"], starts),
        "mn2": np.minimum.reduceat(concat["mn2"], starts),
        "mx2": np.maximum.reduceat(concat["mx2"], starts),
    }
    keep = combined["c1"] > 0 if left_only else (combined["c1"] > 0) & (combined["c2"] > 0)
    combined["null"] = (~keep).astype(_INT)
    combined = vector_bitonic_sort(
        combined, [("null", True), ("j", True)], counter=counter
    )
    groups = int(keep.sum())
    stats.combine_comparisons = counter[0]
    stats.groups = groups
    stats.seconds_by_phase["combine"] = time.perf_counter() - start

    return [
        GroupAggregate(
            j=int(combined["j"][i]),
            count1=int(combined["c1"][i]),
            count2=0 if left_only else int(combined["c2"][i]),
            sum_d1=int(combined["s1"][i]),
            sum_d2=0 if left_only else int(combined["s2"][i]),
            min_d1=int(combined["mn1"][i]),
            max_d1=int(combined["mx1"][i]),
            min_d2=0 if left_only else int(combined["mn2"][i]),
            max_d2=0 if left_only else int(combined["mx2"][i]),
        )
        for i in range(groups)
    ]


def _run_sharded_aggregation(
    left,
    right,
    shards: int,
    workers: int,
    left_only: bool,
    stats: ShardedAggregateStats,
    padded: bool = False,
    executor: str | Executor | None = None,
) -> list[GroupAggregate]:
    executor = resolve_executor(executor, workers=workers)
    stats.shards = shards

    start = time.perf_counter()
    left_parts = partition_pairs(left, shards)
    right_parts = partition_pairs(right, shards)
    n1 = sum(part.real for part in left_parts)
    n2 = sum(part.real for part in right_parts)
    if n1 + n2 == 0:
        return []
    _overflow_guard(
        [part.d[: part.real] for part in left_parts + right_parts], n1 + n2
    )
    stats.partition = (partition_plan(n1, shards), partition_plan(n2, shards))
    # Per-shard input sizes and padded partial-table bounds come from the
    # compiled plan (pure f(n1, n2, k)); the data only fills the slots.
    plan = sharded_aggregate_plan(
        "group_by" if left_only else "aggregate", n1, n2, shards, padded
    )
    stats.plan = plan
    pads = [node.attr("pad") for node in plan.nodes_by_op("partial_aggregate")]
    payloads = [
        (lp.j, lp.d, lp.real, rp.j, rp.d, rp.real, pad)
        for (lp, rp), pad in zip(zip(left_parts, right_parts), pads)
    ]
    stats.seconds_by_phase["partition"] = time.perf_counter() - start

    start = time.perf_counter()
    # Partial tables land in their shard slot as tasks complete (the
    # ordered-completion seam); the combine's concatenation order — and
    # with it the output — is fixed by shard index, not arrival order.
    results: list[tuple[dict, int] | None] = [None] * len(payloads)
    for index, value in completion_stream(executor, _aggregate_task, payloads):
        results[index] = value
    stats.seconds_by_phase["tasks"] = time.perf_counter() - start
    stats.task_comparisons = [comparisons for _, comparisons in results]
    stats.partial_group_counts = [len(partials["j"]) for partials, _ in results]

    return _combine_partials(
        [partials for partials, _ in results], left_only, stats
    )


def sharded_join_aggregate(
    left,
    right,
    shards: int = 2,
    workers: int = 1,
    stats: ShardedAggregateStats | None = None,
    padded: bool = False,
    executor: str | Executor | None = None,
) -> list[GroupAggregate]:
    """Sharded counterpart of :func:`repro.vector.aggregate.vector_join_aggregate`.

    One :class:`~repro.core.aggregate.GroupAggregate` per join value present
    in *both* tables, ordered by join value — bit-identical to the vector
    and traced engines.  ``padded=True`` hides the per-shard partial group
    counts (each partial table ships at its public worst-case size).
    """
    stats = stats if stats is not None else ShardedAggregateStats()
    return _run_sharded_aggregation(
        left,
        right,
        shards,
        workers,
        left_only=False,
        stats=stats,
        padded=padded,
        executor=executor,
    )


def sharded_group_by(
    table,
    shards: int = 2,
    workers: int = 1,
    stats: ShardedAggregateStats | None = None,
    padded: bool = False,
    executor: str | Executor | None = None,
) -> list[GroupAggregate]:
    """Sharded counterpart of :func:`repro.vector.aggregate.vector_group_by`."""
    stats = stats if stats is not None else ShardedAggregateStats()
    return _run_sharded_aggregation(
        table,
        [],
        shards,
        workers,
        left_only=True,
        stats=stats,
        padded=padded,
        executor=executor,
    )
