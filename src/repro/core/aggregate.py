"""Oblivious grouped aggregation — the §7 "future work" extension.

The paper closes by noting that *"grouping aggregations over joins could be
computed using fewer sorting steps than a full join would require"*.  This
module implements that idea: because every aggregate we support distributes
over a group's Cartesian product, the per-group value is a closed form of
per-table accumulators::

    COUNT(*)      = α1 · α2
    SUM(d1)       = α2 · Σ_{T1 group} d1        (each d1 joins α2 times)
    SUM(d2)       = α1 · Σ_{T2 group} d2
    SUM(d1 · d2)  = (Σ d1) · (Σ d2)
    MIN/MAX(d1)   = MIN/MAX over the T1 group   (when the group joins)

so the whole aggregation needs one `O(n log^2 n)` sort, two linear scans and
one `O(n log n)` compaction — no `O(m)` expansion at all.  Only the number
of joining groups ``g`` is revealed (the analogue of revealing ``m``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.local import LocalContext
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from ..obliv.bitonic import bitonic_sort
from ..obliv.compact import compact_by_routing
from ..obliv.compare import SortKey, SortSpec
from ..obliv.network import NetworkStats

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass
class GroupAggregate:
    """Aggregates of one join-value group of ``T1 ⋈ T2``.

    ``count1`` / ``count2`` are the group dimensions α1, α2; the remaining
    fields are aggregates over the group's ``count1 · count2`` joined rows.
    """

    j: int
    count1: int
    count2: int
    sum_d1: int
    sum_d2: int
    min_d1: int
    max_d1: int
    min_d2: int
    max_d2: int

    @property
    def pair_count(self) -> int:
        """COUNT(*) over the joined rows of this group."""
        return self.count1 * self.count2

    @property
    def join_sum_d1(self) -> int:
        """SUM(d1) over the joined rows."""
        return self.sum_d1 * self.count2

    @property
    def join_sum_d2(self) -> int:
        """SUM(d2) over the joined rows."""
        return self.sum_d2 * self.count1

    @property
    def join_sum_product(self) -> int:
        """SUM(d1 · d2) over the joined rows."""
        return self.sum_d1 * self.sum_d2

    @property
    def join_avg_d1(self) -> float:
        """AVG(d1) over the joined rows."""
        return self.sum_d1 / self.count1


class _AggCell:
    """Scratch record for the aggregation scans (one public-memory cell)."""

    __slots__ = ("j", "tid", "d", "c1", "c2", "s1", "s2", "mn1", "mx1", "mn2", "mx2", "null")

    def __init__(self, j: int = 0, tid: int = 0, d: int = 0, null: bool = False) -> None:
        self.j = j
        self.tid = tid
        self.d = d
        self.c1 = 0
        self.c2 = 0
        self.s1 = 0
        self.s2 = 0
        self.mn1 = _POS_INF
        self.mx1 = _NEG_INF
        self.mn2 = _POS_INF
        self.mx2 = _NEG_INF
        self.null = null

    def copy(self) -> "_AggCell":
        clone = _AggCell.__new__(_AggCell)
        for slot in self.__slots__:
            setattr(clone, slot, getattr(self, slot))
        return clone


_SPEC_J_TID = SortSpec(
    SortKey(getter=lambda c: c.j, name="j"),
    SortKey(getter=lambda c: c.tid, name="tid"),
)


def oblivious_join_aggregate(
    left: list[tuple[int, int]],
    right: list[tuple[int, int]],
    tracer: Tracer | None = None,
    stats: NetworkStats | None = None,
    local: LocalContext | None = None,
) -> list[GroupAggregate]:
    """Aggregate ``T1 ⋈ T2`` per join value without materialising the join.

    Returns one :class:`GroupAggregate` per join value present in *both*
    tables, ordered by join value.  Runs in `O(n log^2 n)`, independent of
    the join's output size ``m``.  This is the ``traced`` engine's
    implementation; the other engines' ``aggregate``
    (:func:`repro.engines.get_engine`) produce identical groups and keep
    their own accounting (e.g.
    :class:`repro.core.stats.PhaseStats`).
    """
    tracer = tracer or Tracer()
    local = local or LocalContext()
    n = len(left) + len(right)
    if n == 0:
        return []

    cells = PublicArray(n, name="AGG", tracer=tracer)
    for i, (j, d) in enumerate(left):
        cells.write(i, _AggCell(j=j, tid=1, d=d))
    for i, (j, d) in enumerate(right):
        cells.write(len(left) + i, _AggCell(j=j, tid=2, d=d))

    with tracer.phase("aggregate:sort(j,tid)"):
        bitonic_sort(cells, _SPEC_J_TID, stats=stats)

    # Forward scan: running per-group accumulators, reset at group boundary.
    with tracer.phase("aggregate:scan"), local.slot(2):
        running = _AggCell()
        prev_j = None
        for i in range(n):
            e = cells.read(i).copy()
            if prev_j is None or e.j != prev_j:
                prev_j = e.j
                running = _AggCell(j=e.j)
            if e.tid == 1:
                running.c1 += 1
                running.s1 += e.d
                running.mn1 = min(running.mn1, e.d)
                running.mx1 = max(running.mx1, e.d)
            else:
                running.c2 += 1
                running.s2 += e.d
                running.mn2 = min(running.mn2, e.d)
                running.mx2 = max(running.mx2, e.d)
            e.c1, e.c2 = running.c1, running.c2
            e.s1, e.s2 = running.s1, running.s2
            e.mn1, e.mx1 = running.mn1, running.mx1
            e.mn2, e.mx2 = running.mn2, running.mx2
            cells.write(i, e)

    # Backward scan: keep only each group's boundary cell, and only when the
    # group occurs in both tables (inner-join semantics).
    with tracer.phase("aggregate:mark"), local.slot(2):
        prev_j = None
        for i in range(n - 1, -1, -1):
            e = cells.read(i).copy()
            is_boundary = prev_j is None or e.j != prev_j
            prev_j = e.j
            e.null = not (is_boundary and e.c1 > 0 and e.c2 > 0)
            cells.write(i, e)

    with tracer.phase("aggregate:compact"):
        groups = compact_by_routing(cells, lambda c: c.null, stats=stats)

    result = []
    with tracer.phase("aggregate:emit"), local.slot(1):
        for i in range(groups):
            e = cells.read(i)
            result.append(
                GroupAggregate(
                    j=e.j,
                    count1=e.c1,
                    count2=e.c2,
                    sum_d1=e.s1,
                    sum_d2=e.s2,
                    min_d1=e.mn1,
                    max_d1=e.mx1,
                    min_d2=e.mn2,
                    max_d2=e.mx2,
                )
            )
    return result


def oblivious_group_by(
    table: list[tuple[int, int]],
    tracer: Tracer | None = None,
    stats: NetworkStats | None = None,
) -> list[GroupAggregate]:
    """Single-table oblivious GROUP BY (count/sum/min/max per join value).

    Implemented as the degenerate case of the join aggregation against a
    table holding one entry per distinct key — but computed directly with
    the same sort + scan + compact shape, in `O(n log^2 n)`: the ``traced``
    engine's ``group_by``, as :func:`oblivious_join_aggregate` is its
    ``aggregate``.
    """
    tracer = tracer or Tracer()
    n = len(table)
    if n == 0:
        return []
    cells = PublicArray(n, name="GB", tracer=tracer)
    for i, (j, d) in enumerate(table):
        cells.write(i, _AggCell(j=j, tid=1, d=d))
    with tracer.phase("groupby:sort"):
        bitonic_sort(cells, _SPEC_J_TID, stats=stats)
    with tracer.phase("groupby:scan"):
        running = _AggCell()
        prev_j = None
        for i in range(n):
            e = cells.read(i).copy()
            if prev_j is None or e.j != prev_j:
                prev_j = e.j
                running = _AggCell(j=e.j)
            running.c1 += 1
            running.s1 += e.d
            running.mn1 = min(running.mn1, e.d)
            running.mx1 = max(running.mx1, e.d)
            e.c1, e.s1, e.mn1, e.mx1 = running.c1, running.s1, running.mn1, running.mx1
            cells.write(i, e)
    with tracer.phase("groupby:mark"):
        prev_j = None
        for i in range(n - 1, -1, -1):
            e = cells.read(i).copy()
            is_boundary = prev_j is None or e.j != prev_j
            prev_j = e.j
            e.null = not is_boundary
            cells.write(i, e)
    with tracer.phase("groupby:compact"):
        groups = compact_by_routing(cells, lambda c: c.null, stats=stats)
    return [
        GroupAggregate(
            j=e.j,
            count1=e.c1,
            count2=0,
            sum_d1=e.s1,
            sum_d2=0,
            min_d1=e.mn1,
            max_d1=e.mx1,
            min_d2=0,
            max_d2=0,
        )
        for e in (cells.read(i) for i in range(groups))
    ]
