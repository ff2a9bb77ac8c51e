"""The ``traced`` engine: :mod:`repro.core` behind the Engine protocol.

This is the reference implementation — pure Python, every public-memory
access routed through a :class:`~repro.memory.tracer.Tracer` — so it is the
engine on which obliviousness is *proved* (type system, §6.1 trace-equality
experiments).  All other engines are validated differentially against it.
"""

from __future__ import annotations

from ..core.aggregate import (
    GroupAggregate,
    oblivious_group_by,
    oblivious_join_aggregate,
)
from ..core.join import JoinResult, oblivious_join
from ..core.join_tree import JoinTreeResult, oblivious_join_tree
from ..core.multiway import MultiwayResult, oblivious_multiway_join
from ..errors import InputError
from ..memory.public import PublicArray
from ..memory.tracer import Tracer
from ..obliv.bitonic import bitonic_sort
from ..obliv.compact import compact_by_routing
from ..obliv.compare import SortKey, SortSpec
from .base import PaddingOptionsMixin, Pairs, order_rows


def _check_pairs(*tables) -> None:
    """Refuse rows that are not ``(j, d)`` pairs with the array engines'
    error (the reference loops would fail unpacking them)."""
    for table in tables:
        for row in table:
            try:
                pair = len(row) == 2
            except TypeError:
                pair = False
            if not pair:
                raise InputError("input tables must be sequences of (j, d) pairs")


def traced_filter_indices(mask: list[bool], tracer: Tracer | None = None) -> list[int]:
    """Order-preserving compaction of the survivor indices (§3.5 filter).

    The public trace is one linear pass plus the `O(n log n)` routing-based
    compaction; only the survivor count is revealed.
    """
    n = len(mask)
    if n == 0:
        return []
    cells = PublicArray(n, name="FILTER", tracer=tracer)
    for i, keep in enumerate(mask):
        cells.write(i, i if keep else None)
    count = compact_by_routing(cells, lambda c: c is None)
    return [cells.read(i) for i in range(count)]


def traced_order_permutation(
    columns: list[tuple[list, bool]], tracer: Tracer | None = None
) -> list[int]:
    """The stable sort permutation via a traced bitonic sort of key tuples.

    Each cell holds ``(key_0, ..., key_d, position)``; the position is the
    final tiebreak key, which makes the ordering total — so every engine
    computes the identical permutation, regardless of network structure.
    """
    n = order_rows(columns)
    if n <= 1:
        return list(range(n))
    cells = PublicArray(n, name="ORDER", tracer=tracer)
    for i in range(n):
        cells.write(i, tuple(values[i] for values, _ in columns) + (i,))
    spec = SortSpec(
        *(
            SortKey(getter=lambda c, _x=x: c[_x], ascending=asc, name=f"k{x}")
            for x, (_, asc) in enumerate(columns)
        ),
        SortKey(getter=lambda c: c[-1], name="pos"),
    )
    bitonic_sort(cells, spec)
    return [cells.read(i)[-1] for i in range(n)]


class TracedEngine(PaddingOptionsMixin):
    """Reference engine with per-access tracing (the paper's prototype)."""

    name = "traced"

    def join(
        self,
        left: Pairs,
        right: Pairs,
        tracer: Tracer | None = None,
        target_m: int | None = None,
    ) -> JoinResult:
        _check_pairs(left, right)
        return oblivious_join(
            left, right, tracer=tracer, target_m=self._join_target(left, right, target_m)
        )

    def multiway_join(
        self,
        tables: list[list[tuple]],
        keys: list[tuple[int, int]],
        tracer: Tracer | None = None,
        padding: str | None = None,
        bound=None,
    ) -> MultiwayResult:
        padding, bound = self._cascade_padding(padding, bound)
        return oblivious_multiway_join(
            tables, keys, tracer=tracer, padding=padding, bound=bound
        )

    def join_tree(
        self,
        tables: list[list[tuple]],
        edges,
        tracer: Tracer | None = None,
        padding: str | None = None,
        bound=None,
    ) -> JoinTreeResult:
        padding, bound = self._cascade_padding(padding, bound)
        return oblivious_join_tree(
            tables, edges, tracer=tracer, padding=padding, bound=bound
        )

    def aggregate(
        self, left: Pairs, right: Pairs, tracer: Tracer | None = None
    ) -> list[GroupAggregate]:
        _check_pairs(left, right)
        return oblivious_join_aggregate(left, right, tracer=tracer)

    def group_by(
        self, table: Pairs, tracer: Tracer | None = None
    ) -> list[GroupAggregate]:
        _check_pairs(table)
        return oblivious_group_by(table, tracer=tracer)

    def filter_indices(
        self, mask: list[bool], tracer: Tracer | None = None
    ) -> list[int]:
        return traced_filter_indices(mask, tracer=tracer)

    def order_permutation(
        self, columns: list[tuple[list, bool]], tracer: Tracer | None = None
    ) -> list[int]:
        return traced_order_permutation(columns, tracer=tracer)
