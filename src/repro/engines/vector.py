"""The ``vector`` engine: :mod:`repro.vector` behind the Engine protocol.

The numpy fast path for every workload.  Outputs are bit-identical to the
``traced`` engine (enforced by the differential suite); there is no
per-access trace — the ``tracer`` parameters are accepted for interface
compatibility and ignored, because the adversary-visible behaviour of this
engine is its primitive schedule (``PhaseStats.schedule``), which depends
only on public sizes.

Every operator hands its ``vector`` text the engine's one ``_sort``; the
``sharded`` engine (:mod:`repro.engines.sharded`) is this class with a
sharded sort in that slot.
"""

from __future__ import annotations

from ..core.aggregate import GroupAggregate
from ..core.join import JoinResult
from ..core.multiway import MultiwayResult
from ..errors import InputError
from ..memory.tracer import Tracer
from ..store.runtime import StorePairs
from ..vector.aggregate import vector_group_by, vector_join_aggregate
from ..core.join_tree import JoinTreeResult
from ..vector.join import vector_oblivious_join
from ..vector.join_tree import vector_join_tree
from ..vector.multiway import vector_multiway_join
from ..vector.relational import vector_filter_indices, vector_order_permutation
from ..vector.sort import vector_bitonic_sort
from .base import PaddingOptionsMixin, Pairs, order_rows
from .traced import traced_order_permutation


class VectorEngine(PaddingOptionsMixin):
    """Vectorised engine: whole-array numpy primitives, identical outputs."""

    name = "vector"
    #: The sort every operator hands its text; the sharded engine's
    #: instances shadow it with a sharded one.
    _sort = staticmethod(vector_bitonic_sort)

    def join(
        self,
        left: Pairs,
        right: Pairs,
        tracer: Tracer | None = None,
        target_m: int | None = None,
    ) -> JoinResult:
        # A store-backed side is scanned once per call, blocks 0 … B-1 of
        # each column in order — a public function of (n, block_rows).
        left, right = (
            pairs.scan() if isinstance(pairs, StorePairs) else pairs
            for pairs in (left, right)
        )
        target_m = self._join_target(left, right, target_m)
        pairs, stats = vector_oblivious_join(
            left, right, target_m=target_m, sort=self._sort
        )
        return JoinResult(
            pairs=list(zip(*pairs.T.tolist())),
            m=stats.m,
            n1=len(left),
            n2=len(right),
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
        return vector_multiway_join(
            tables, keys, padding=padding, bound=bound, sort=self._sort
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
        result, _stats = vector_join_tree(
            tables, edges, padding=padding, bound=bound, sort=self._sort
        )
        return result

    def aggregate(
        self, left: Pairs, right: Pairs, tracer: Tracer | None = None
    ) -> list[GroupAggregate]:
        return vector_join_aggregate(left, right, sort=self._sort)

    def group_by(
        self, table: Pairs, tracer: Tracer | None = None
    ) -> list[GroupAggregate]:
        return vector_group_by(table, sort=self._sort)

    def filter_indices(
        self, mask: list[bool], tracer: Tracer | None = None
    ) -> list[int]:
        return vector_filter_indices(mask, sort=self._sort)

    def order_permutation(
        self, columns: list[tuple[list, bool]], tracer: Tracer | None = None
    ) -> list[int]:
        n = order_rows(columns)
        try:
            return vector_order_permutation(columns, n, sort=self._sort)
        except InputError:
            # Non-int64 sort keys (e.g. string columns): the traced network
            # computes the identical stable permutation, just slower.
            return traced_order_permutation(columns, tracer=tracer)
