"""Sharded FILTER and ORDER BY: per-block tasks plus an oblivious merge.

Both relational operators decompose over positional shards:

``filter``
    Compaction is order-preserving and blocks are positional, so compacting
    each block independently and concatenating the survivor indices (block
    offsets are public) *is* the global order-preserving compaction.  ``k``
    tasks of ``~n/k`` cells replace one ``n``-cell network — strictly less
    comparator work, embarrassingly parallel.

    Unpadded, each block's survivor list ships at its true length — the
    per-shard survivor *counts* are a finer reveal than the public total.
    ``padded=True`` closes that (the last ROADMAP residual): every block's
    survivor indices are padded to the block *capacity* with a
    :data:`~repro.core.padding.DUMMY_HANDLE`-tagged tail, so every message
    has the ``(n, k)``-determined shape and the parent compacts the tags
    away client-side.  Only the global survivor count (public in every
    engine, like ``m_final``) is revealed.

``order_by``
    The order-by contract is a *stable* sort (original position is the
    final tiebreak key — see :mod:`repro.vector.relational`), which makes
    the ordering total, so it is one call of
    :func:`repro.shard.sort.sharded_sort` over the key columns.

Per-task schedules depend only on the partition plan — never on the order
tasks happen to finish in.  The filter compiles its public plan
(:mod:`repro.plan.compile`) up front, consumes the block shapes from it,
and folds results off the executor's ordered-completion seam
(:func:`repro.plan.executors.completion_stream`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.padding import DUMMY_HANDLE
from ..plan.compile import sharded_filter_plan
from ..plan.executors import Executor, completion_stream, resolve_executor
from ..vector.relational import order_columns, vector_filter_indices
from .partition import partition_columns
from .sort import sharded_sort


def _filter_task(payload) -> list[int]:
    """Survivor indices of one block; padded to ``pad`` with tagged slots."""
    block, real, pad = payload
    kept = vector_filter_indices(block["mask"][:real])
    if pad is not None:
        kept = kept + [DUMMY_HANDLE] * (pad - len(kept))
    return kept


def sharded_filter_indices(
    mask: Sequence[bool],
    shards: int = 2,
    workers: int = 1,
    padded: bool = False,
    executor: str | Executor | None = None,
) -> list[int]:
    """Indices of the true cells of ``mask`` via per-shard compaction.

    ``padded=True`` pads every block's survivor list to the block capacity
    (tagged tail, compacted here client-side), hiding the per-shard
    survivor counts; the result is bit-identical either way.
    """
    executor = resolve_executor(executor, workers=workers)
    flags = np.asarray(mask, dtype=bool)
    plan = sharded_filter_plan(len(flags), shards, padded)
    pads = [node.attr("pad") for node in plan.nodes_by_op("block_filter")]
    payloads = [
        (block, real, pad)
        for (block, real), pad in zip(partition_columns({"mask": flags}, shards), pads)
    ]
    # Blocks complete in any order; each lands in its slot by index, so
    # the concatenation below is arrival-order independent.
    results: list[list[int] | None] = [None] * len(payloads)
    for index, block in completion_stream(executor, _filter_task, payloads):
        results[index] = block
    kept: list[int] = []
    offset = 0
    for (_, real, _), block in zip(payloads, results):
        kept.extend(
            offset + index for index in block if index != DUMMY_HANDLE
        )
        offset += real
    return kept


def sharded_order_permutation(
    columns: Sequence[tuple[Sequence[int], bool]],
    n: int,
    shards: int = 2,
    workers: int = 1,
    executor: str | Executor | None = None,
) -> list[int]:
    """The stable sort permutation, from one sharded sort.

    Raises :class:`~repro.errors.InputError` for non-int64 key columns, like
    the vector path — callers fall back to the traced engine.
    """
    executor = resolve_executor(executor, workers=workers)
    if n <= 1:
        return list(range(n))
    table, keys = order_columns(columns, n)
    return sharded_sort(table, keys, shards=shards, executor=executor)["pos"].tolist()
