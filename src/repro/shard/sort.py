"""The sharded sort: ``k`` local bitonic sorts and a tournament of merges.

The one primitive every sharded operator above a sort is built on.  The
table is cut into ``k`` positional blocks (:func:`partition_plan` — a
function of ``(n, k)`` only), each block is sorted by
:func:`~repro.vector.sort.vector_bitonic_sort` as an executor task, and the
sorted runs fold into the :class:`~repro.shard.merge.StreamingTournament`
of bitonic merges as they complete.  ``k`` local sorts plus ``log k`` merge
rounds *are* one bitonic sort, so the comparator work is the single-process
sort's (exactly, at ``k = 1``) and the workers share it.

Only the key columns and a row id cross to the workers; every other column
is gathered once, in the parent, through the sorted row ids.  The schedule —
block sizes, bracket, comparator counts — is a function of ``(n, k)`` and
the key list, so a caller's leakage is whatever its own sort sizes reveal.
"""

from __future__ import annotations

import numpy as np

from ..plan.executors import Executor, completion_stream
from ..vector.sort import Key, vector_bitonic_sort
from .merge import StreamingTournament
from .partition import partition_columns

#: Payload column carrying each row's input position through the network.
ROW_ID = "_row"


def _sort_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """Sort one padded block's real rows (worker side)."""
    block, keys, real = payload
    counter = [0]
    run = vector_bitonic_sort(
        {name: column[:real] for name, column in block.items()}, keys, counter=counter
    )
    return run, counter[0]


def sharded_sort(
    columns: dict[str, np.ndarray],
    keys: list[Key],
    counter: list | None = None,
    *,
    shards: int,
    executor: Executor,
) -> dict[str, np.ndarray]:
    """:func:`~repro.vector.sort.vector_bitonic_sort` over ``shards`` blocks.

    Same contract — a new column dict sorted by ``keys``, comparators added
    to ``counter`` — with one difference callers must allow for: rows that
    tie on every key may come back in a different relative order than the
    single-process network leaves them in (both orders are fixed by
    ``(n, k)``, neither by the data).
    """
    n = len(next(iter(columns.values())))
    table = {name: np.asarray(columns[name]) for name, _ in keys}
    table[ROW_ID] = np.arange(n, dtype=np.int64)
    payloads = [
        (block, keys, real) for block, real in partition_columns(table, shards)
    ]
    tournament = StreamingTournament(
        len(payloads), keys, executor=executor, counter=counter
    )
    try:
        for index, (run, count) in completion_stream(executor, _sort_task, payloads):
            if counter is not None:
                counter[0] += count
            tournament.add(index, run)
        merged = tournament.result()
    except BaseException:
        tournament.close()
        raise
    order = merged.pop(ROW_ID)
    return {
        name: merged[name] if name in merged else np.asarray(column)[order]
        for name, column in columns.items()
    }
