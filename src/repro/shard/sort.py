"""The sharded sort: ``k`` local bitonic sorts and a tournament of merges.

The one primitive every sharded operator above a sort is built on.  The
table is cut into ``k`` positional blocks (:func:`partition_plan` — a
function of ``(n, k)`` only), each block is sorted by
:func:`~repro.vector.sort.vector_bitonic_sort` as an executor task, and the
sorted runs fold into the :class:`~repro.shard.merge.StreamingTournament`
of bitonic merges as they complete.  ``k`` local sorts plus ``log k`` merge
rounds *are* one bitonic sort, so the comparator work is the single-process
sort's (exactly, at ``k = 1``) and the workers share it.

Only the keys and a row id cross to the workers — as **one int64 word per
row**, ``key fields ‖ row id``, the shape the network sorts with ``minimum`` /
``maximum`` on views, when every key carries a public width and the fields fit
(:func:`word_layout`); as separate columns otherwise.  Every other column is
gathered once, in the parent, through the sorted row ids.  The schedule —
block sizes, bracket, comparator counts, which shape — is a function of
``(n, k)`` and the key list, so a caller's leakage is whatever its own sort
sizes reveal.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..plan.executors import Executor, completion_stream
from ..vector.sort import Key, index_bits, vector_bitonic_sort
from .merge import StreamingTournament
from .partition import partition_columns

#: Column carrying each row's input position through the network — alone, or
#: as the low field of the packed shape's single word.
ROW_ID = "_row"

#: Bits a packed word may use (it stays below the network's int64 padding).
WORD_BITS = 62


def word_layout(keys: list[Key], n: int) -> tuple[int, ...] | None:
    """Field widths of an ``n``-row packed word, most significant first.

    A pure function of the key list and ``n`` (it is handed no column): each
    key's declared width, then ``ceil(log2 n)`` for the row id.  ``None`` — the
    wide path — when a key has no width or is descending, or they exceed 62.
    """
    if not keys or not all(len(key) == 3 and key[1] for key in keys):
        return None
    widths = (*(bits for _, _, bits in keys), index_bits(n))
    return widths if sum(widths) <= WORD_BITS else None


def _pack(table: dict[str, np.ndarray], keys: list[Key], widths, n: int) -> np.ndarray:
    """One word per row; a column outside its declared width is refused."""
    words = np.zeros(n, dtype=np.int64)
    for (name, *_), bits in zip(keys, widths):
        column = table[name]
        if n and (int(column.min()) < 0 or int(column.max()) >> bits):
            raise InputError(f"sort key {name!r} outside its declared [0, 2**{bits})")
        words = (words << bits) | column
    return (words << widths[-1]) | np.arange(n, dtype=np.int64)


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
    single-process network leaves them in.  The packed path
    (:func:`word_layout`) is **stable**: ties keep input order, the row id
    being the word's low field.  The wide path's order is fixed by ``(n, k)``.
    """
    if not columns:
        return {}
    columns = {name: np.asarray(column) for name, column in columns.items()}
    n = len(next(iter(columns.values())))
    table = {name: columns[name] for name, *_ in keys}
    widths = word_layout(keys, n)
    packed = widths is not None and all(c.dtype == np.int64 for c in table.values())
    if packed:
        table, keys = {ROW_ID: _pack(table, keys, widths, n)}, [(ROW_ID, True)]
    else:
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
    if packed:
        order = order & ((1 << widths[-1]) - 1)
    return {
        name: merged[name] if name in merged else column[order]
        for name, column in columns.items()
    }
