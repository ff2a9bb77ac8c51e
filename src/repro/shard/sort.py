"""The sharded sort: ``k`` local bitonic sorts and a tournament of merges.

The one primitive every sharded operator above a sort is built on.  The
table is cut into ``k`` positional blocks (:func:`partition_plan` — a
function of ``(n, k)`` only), each block is sorted as an executor task, and
the sorted runs meet in a tournament of bitonic merges, one ``executor.map``
per round (:func:`~repro.shard.merge.oblivious_merge_runs`): every dispatch
is a barrier.  ``k`` local sorts plus ``log k`` merge rounds *are* one
bitonic sort, so the comparator work is the single-process sort's (exactly,
at ``k = 1``, when the keys fit one word) and the workers share it.

Only the keys and a row id cross to the workers — as **one int64 word per
row**, ``key fields ‖ row id``, the shape the network sorts with ``minimum`` /
``maximum`` on views, when every key carries a public width and the fields fit
(:func:`word_layout`); as separate columns otherwise.  A block of separate
int64 columns is still ordered by that one-word network: its key fields are
cut into :func:`word_passes` digits, each sorted stably as ``digit ‖ row id``,
least significant first.  Every other column is gathered once, in the parent,
through the sorted row ids.  The schedule — block sizes, passes, bracket,
comparator counts, which shape — is a function of ``(n, k)`` and the key list,
so a caller's leakage is whatever its own sort sizes reveal.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..plan.executors import Executor
from ..plan.partition import WORD_BITS, word_passes
from ..vector.sort import Key, index_bits, vector_bitonic_sort, word_column
from .merge import oblivious_merge_runs
from .partition import partition_columns

#: Column carrying each row's input position through the network — alone, or
#: as the low field of the packed shape's single word.
ROW_ID = "_row"

_SIGN = np.uint64(1 << 63)


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


def _check_widths(table: dict[str, np.ndarray], keys: list[Key]) -> None:
    """A column outside its declared width is refused, before any dispatch."""
    for name, _, *bits in keys:
        column = table[name]
        if not bits or not len(column):
            continue
        if int(column.min()) < 0 or int(column.max()) >> bits[0]:
            raise InputError(f"sort key {name!r} outside its declared [0, 2**{bits[0]})")


def _pack(table: dict[str, np.ndarray], keys: list[Key], widths, n: int) -> np.ndarray:
    """One word per row: the key fields, then the row id (Horner)."""
    words = np.zeros(n, dtype=np.int64)
    for (name, *_), bits in zip(keys, widths):
        words = (words << bits) | table[name]
    return (words << widths[-1]) | np.arange(n, dtype=np.int64)


def _digits(block: dict[str, np.ndarray], keys: list[Key], bits: int, passes: int):
    """The key fields as one unsigned bit string, ``bits`` at a time, least
    significant digit first.  An unwidthed key is its 64 bits with the sign
    flipped, a descending one is complemented: both keep the order."""
    fields, offset = [], 0
    for name, ascending, *width in reversed(keys):
        size = width[0] if width else 64
        values = block[name].view(np.uint64)
        if not width:
            values = values ^ _SIGN
        if not ascending:
            values = ~values & np.uint64((1 << size) - 1)
        fields.append((values, offset, offset + size))
        offset += size
    mask = np.uint64((1 << bits) - 1)
    for low in range(0, passes * bits, bits):
        digit = np.zeros(len(block[ROW_ID]), dtype=np.uint64)
        for values, start, stop in fields:
            if start < low + bits and low < stop:
                shift = np.uint64(abs(start - low))
                digit |= values << shift if start >= low else values >> shift
        yield (digit & mask).view(np.int64)


def _word_order(block: dict[str, np.ndarray], keys: list[Key], counter: list) -> np.ndarray:
    """The stable order of a block's rows: one one-word sort per digit."""
    rows = len(block[ROW_ID])
    row_bits = index_bits(rows)
    passes = word_passes(keys, rows)
    order = positions = np.arange(rows, dtype=np.int64)
    for digit in _digits(block, keys, WORD_BITS - row_bits, passes):
        words = {ROW_ID: (digit[order] << row_bits) | positions}
        words = vector_bitonic_sort(words, [(ROW_ID, True)], counter=counter)[ROW_ID]
        order = order[words & ((1 << row_bits) - 1)]
    return order


def _sort_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """Sort one padded block's real rows (worker side)."""
    block, keys, real = payload
    block = {name: column[:real] for name, column in block.items()}
    counter = [0]
    # Already one word, or a non-int64 key (the masked-swap network).
    if word_column(block, keys) is not None or any(
        block[name].dtype != np.int64 for name, *_ in keys
    ):
        run = vector_bitonic_sort(block, keys, counter=counter)
    else:
        order = _word_order(block, keys, counter)
        run = {name: column[order] for name, column in block.items()}
    return run, counter[0]


def _sort_blocks(payloads, counter: list | None, executor: Executor) -> list:
    """The sorted runs of one ``map`` over the blocks, in a list no one else
    holds: passed straight to the merge, each run is freed once merged."""
    results = executor.map(_sort_task, payloads)
    if counter is not None:
        counter[0] += sum(count for _, count in results)
    return [run for run, _ in results]


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
    being the word's low field.  The wide path's local sorts are stable too
    and its merges are fixed by ``(n, k)``.
    """
    if not columns:
        return {}
    columns = {name: np.asarray(column) for name, column in columns.items()}
    n = len(next(iter(columns.values())))
    table = {name: columns[name] for name, *_ in keys}
    _check_widths(table, keys)
    int64 = all(column.dtype == np.int64 for column in table.values())
    widths = word_layout(keys, n) if int64 else None
    if widths is not None:
        table, keys = {ROW_ID: _pack(table, keys, widths, n)}, [(ROW_ID, True)]
    else:
        table[ROW_ID] = np.arange(n, dtype=np.int64)
    payloads = [
        (block, keys, real) for block, real in partition_columns(table, shards)
    ]
    merged = oblivious_merge_runs(
        _sort_blocks(payloads, counter, executor), keys, counter, executor
    )
    order = merged.pop(ROW_ID)
    if widths is not None:
        order = order & ((1 << widths[-1]) - 1)
    return {
        name: merged[name] if name in merged else column[order]
        for name, column in columns.items()
    }
