"""Vectorised oblivious grouped aggregation (§7) on the numpy engine.

Same semantics as :mod:`repro.core.aggregate` — aggregate ``T1 ⋈ T2`` per
join value without materialising the join — but expressed as whole-array
numpy operations:

1. one bitonic sort of the combined ``(j, tid, d)`` columns by ``(j, tid)``,
2. segmented reductions computing each group's ``(α1, α2, Σd, min, max)``
   accumulators (the vector analogue of the traced forward scan),
3. a scatter of each group's totals onto its boundary cell (the backward
   "mark" scan), and
4. one more bitonic sort by the null flag — compaction — after which the
   first ``g`` cells are the surviving groups.

Both bitonic networks run on ``n = n1 + n2`` cells regardless of data, so
the primitive schedule (exposed as :attr:`~repro.core.stats.PhaseStats.schedule`)
depends only on ``n``; the number of emitted groups ``g`` is the same
deliberate reveal as in the traced engine.  Outputs are bit-identical to
:func:`repro.core.aggregate.oblivious_join_aggregate` — same
:class:`~repro.core.aggregate.GroupAggregate` values in the same
(``j``-ascending) order — which the differential tests assert.

Both sorts are a parameter, by the key lists of :func:`aggregate_keys`: the
``sharded`` engine runs this text with :func:`repro.shard.sort.sharded_sort`,
whose order among rows tied on ``(j, tid)`` may differ — harmless, since a
group's accumulators do not depend on its rows' order and the compaction's
surviving keys are distinct.
"""

from __future__ import annotations

import numpy as np

from ..core.aggregate import GroupAggregate
from ..core.stats import PhaseStats
from ..errors import InputError
from .join import _as_columns, _group_ids
from .sort import Key, vector_bitonic_sort

_INT = np.int64
_INT_MAX = np.iinfo(np.int64).max
_INT_MIN = np.iinfo(np.int64).min


def aggregate_keys() -> tuple[list[Key], list[Key]]:
    """The two sorts' keys: rows by ``(j, tid)``, then the compaction's
    surviving boundary cells first, by ``j``.  ``tid`` is 1 or 2, the null
    flag 0 or 1; ``j`` is any int64, so it carries no width."""
    return [("j", True), ("tid", True, 2)], [("null", True, 1), ("j", True)]


def _segment_accumulators(j, d, member):
    """Per-group ``(count, sum, min, max)`` over rows where ``member`` holds.

    ``j`` must be sorted; groups with no member rows get count 0 and the
    int64 min/max sentinels (those groups are filtered before emission).
    """
    starts = np.flatnonzero(np.concatenate([[True], j[1:] != j[:-1]]))
    count = np.add.reduceat(member.astype(_INT), starts)
    total = np.add.reduceat(np.where(member, d, 0), starts)
    minimum = np.minimum.reduceat(np.where(member, d, _INT_MAX), starts)
    maximum = np.maximum.reduceat(np.where(member, d, _INT_MIN), starts)
    return count, total, minimum, maximum


def _aggregate_columns(combined, keep_if, sort_phase, compact_phase, stats, sort):
    """Shared sort → segment-reduce → scatter → compact pipeline.

    ``keep_if(c1, c2)`` decides (per group) which boundary cells survive
    compaction; returns the compacted column dict and the group count g.
    """
    n = len(combined["j"])
    stats.n = n
    # The traced engine sums in arbitrary-precision Python ints; int64 column
    # sums would silently wrap instead.  Refuse inputs where an n-term sum
    # could overflow rather than diverge from the bit-identical contract.
    limit = _INT_MAX // max(n, 1)
    if combined["d"].max(initial=0) > limit or combined["d"].min(initial=0) < -limit:
        raise InputError(
            f"data values exceed the vector engine's overflow-safe range "
            f"(|d| <= {limit} at n = {n}); use the traced engine"
        )
    group_keys, compact_keys = aggregate_keys()
    with stats.phase(sort_phase) as counter:
        combined = sort(combined, group_keys, counter=counter)

    with stats.phase("scan", counted=False):
        j, d, tid = combined["j"], combined["d"], combined["tid"]
        gid = _group_ids(j)
        is_left = tid == 1
        c1, s1, mn1, mx1 = _segment_accumulators(j, d, is_left)
        c2, s2, mn2, mx2 = _segment_accumulators(j, d, ~is_left)

        # Scatter each group's totals onto its last (boundary) cell; every
        # other cell becomes a null that the compaction sort pushes to the back.
        boundary = np.concatenate([j[1:] != j[:-1], [True]])
        null = ~(boundary & keep_if(c1, c2)[gid])
        cells = {
            "null": null.astype(_INT),
            "j": j.copy(),
            "c1": c1[gid], "c2": c2[gid],
            "s1": s1[gid], "s2": s2[gid],
            "mn1": mn1[gid], "mx1": mx1[gid],
            "mn2": mn2[gid], "mx2": mx2[gid],
        }

    with stats.phase(compact_phase) as counter:
        cells = sort(cells, compact_keys, counter=counter)
    groups = int(n - null.sum())
    stats.groups = groups
    return cells, groups


def _emit(cells, groups, left_only: bool) -> list[GroupAggregate]:
    result = []
    for i in range(groups):
        result.append(
            GroupAggregate(
                j=int(cells["j"][i]),
                count1=int(cells["c1"][i]),
                count2=0 if left_only else int(cells["c2"][i]),
                sum_d1=int(cells["s1"][i]),
                sum_d2=0 if left_only else int(cells["s2"][i]),
                min_d1=int(cells["mn1"][i]),
                max_d1=int(cells["mx1"][i]),
                min_d2=0 if left_only else int(cells["mn2"][i]),
                max_d2=0 if left_only else int(cells["mx2"][i]),
            )
        )
    return result


def vector_join_aggregate(
    left,
    right,
    stats: PhaseStats | None = None,
    sort=vector_bitonic_sort,
) -> list[GroupAggregate]:
    """Aggregate ``T1 ⋈ T2`` per join value without materialising the join.

    The ``vector`` engine's ``aggregate``, counterpart of the ``traced``
    engine's :func:`repro.core.aggregate.oblivious_join_aggregate`: one
    :class:`~repro.core.aggregate.GroupAggregate` per join value present in
    *both* tables, ordered by join value, in `O(n log^2 n)` independent of
    the would-be join size ``m``.  ``sort`` runs both sorts (the sharded
    engine passes :func:`repro.shard.sort.sharded_sort`).
    """
    stats = stats if stats is not None else PhaseStats()
    left_cols = _as_columns(left, tid=1)
    right_cols = _as_columns(right, tid=2)
    if len(left_cols["j"]) + len(right_cols["j"]) == 0:
        return []
    combined = {
        name: np.concatenate([left_cols[name], right_cols[name]])
        for name in ("j", "d", "tid")
    }
    cells, groups = _aggregate_columns(
        combined,
        keep_if=lambda c1, c2: (c1 > 0) & (c2 > 0),
        sort_phase="aggregate_sort",
        compact_phase="aggregate_compact",
        stats=stats,
        sort=sort,
    )
    return _emit(cells, groups, left_only=False)


def vector_group_by(
    table,
    stats: PhaseStats | None = None,
    sort=vector_bitonic_sort,
) -> list[GroupAggregate]:
    """Single-table oblivious GROUP BY — the ``vector`` engine's
    ``group_by``, counterpart of the ``traced`` engine's
    :func:`repro.core.aggregate.oblivious_group_by` (count/sum/min/max per
    join value, every group emitted)."""
    stats = stats if stats is not None else PhaseStats()
    columns = _as_columns(table, tid=1, side="group-by")
    if len(columns["j"]) == 0:
        return []
    cells, groups = _aggregate_columns(
        columns,
        keep_if=lambda c1, c2: c1 > 0,
        sort_phase="groupby_sort",
        compact_phase="groupby_compact",
        stats=stats,
        sort=sort,
    )
    return _emit(cells, groups, left_only=True)
