"""The sharded sort: one-word passes, each ``k`` block sorts and a tournament
of merges.

The one primitive every sharded operator above a sort is built on.  Only one
word per row crosses to the workers, ``digit ‖ position``, and the sort is a
stable LSD radix sort whose digits are whole sorts of those words: the key
fields form one unsigned bit string, cut into :func:`word_passes` digits of
``62 - ceil(log2 n)`` bits, least significant first.  The word is uint32
when the key bits and the position fit 32 bits (:func:`word_dtype`, so one
pass), else int64: half the bytes through every stage.  One pass is
the table cut into ``k`` positional blocks (:func:`partition_plan` — a
function of ``(n, k)`` only), one ``executor.map`` of block sorts, and the
sorted runs meeting in a tournament of bitonic merges, one ``executor.map``
per round (:func:`~repro.shard.merge.oblivious_merge_runs`): every dispatch
is a barrier.  ``k`` local sorts plus ``log k`` merge rounds *are* one
bitonic sort, so each pass does the single-process network's comparator
work (exactly, when the blocks are powers of two) and the workers share it;
a key list that fits one word beside the position takes one pass.

The position composes the permutation pass by pass, and every column is
gathered once, in the parent, at the end.  The schedule — passes, word
width, ``k = blocks(n, shards)``, block sizes, bracket, comparator counts,
whether the blocks go to ``executor`` (:func:`threads_pay`) — is a function
of ``(n, shards)`` and the key list, so a caller's leakage is whatever its
own sort sizes reveal.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..plan.executors import Executor, InlineExecutor
from ..plan.partition import WORD_BITS, blocks, key_bits, threads_pay, word_passes
from ..vector.sort import Key, index_bits, vector_bitonic_sort
from .merge import oblivious_merge_runs
from .partition import partition_columns

#: The one column a block ships: each row's ``digit ‖ position`` word.
ROW_ID = "_row"

#: The word's sort key: the word itself, ascending.
_WORD = [(ROW_ID, True)]

_SIGN = np.uint64(1 << 63)


def _check_keys(table: dict[str, np.ndarray], keys: list[Key]) -> None:
    """A key column that is not int64, or lies outside its declared width, is
    refused before any dispatch."""
    for name, _, *bits in keys:
        column = table[name]
        if column.dtype != np.int64:
            raise InputError(f"sort key {name!r} must be int64, got {column.dtype}")
        if not bits or not len(column):
            continue
        if int(column.min()) < 0 or int(column.max()) >> bits[0]:
            raise InputError(f"sort key {name!r} outside its declared [0, 2**{bits[0]})")


def word_dtype(keys: list[Key], rows: int) -> np.dtype:
    """The word a ``rows``-row sort by ``keys`` ships: uint32 when its
    :func:`key_bits` and the position fit 32 bits, else int64."""
    return np.dtype(np.uint32 if key_bits(keys) + index_bits(rows) <= 32 else np.int64)


def _digits(table: dict[str, np.ndarray], keys: list[Key], n: int, bits: int, passes: int):
    """The key fields as one unsigned bit string, ``bits`` at a time, least
    significant digit first.  An unwidthed key is its 64 bits with the sign
    flipped, a descending one is complemented: both keep the order."""
    fields, offset = [], 0
    for name, ascending, *width in reversed(keys):
        size = width[0] if width else 64
        values = table[name].view(np.uint64)
        if not width:
            values = values ^ _SIGN
        if not ascending:
            values = ~values & np.uint64((1 << size) - 1)
        fields.append((values, offset, offset + size))
        offset += size
    mask = np.uint64((1 << bits) - 1)
    for low in range(0, passes * bits, bits):
        digit = np.zeros(n, dtype=np.uint64)
        for values, start, stop in fields:
            if start < low + bits and low < stop:
                shift = np.uint64(abs(start - low))
                digit |= values << shift if start >= low else values >> shift
        yield (digit & mask).view(np.int64)


def _sort_task(payload) -> tuple[dict[str, np.ndarray], int]:
    """Sort one padded block's real words (worker side)."""
    block, real = payload
    counter = [0]
    run = vector_bitonic_sort({ROW_ID: block[ROW_ID][:real]}, _WORD, counter=counter)
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
    """:func:`~repro.vector.sort.vector_bitonic_sort` over at most ``shards``
    blocks, :func:`~repro.plan.partition.blocks` of them.

    Same contract — a new column dict sorted by ``keys``, comparators added
    to ``counter`` — and **stable**: rows that tie on every key keep their
    input order, the position being each word's low field.  Every key column
    must be int64.
    """
    if not columns:
        return {}
    columns = {name: np.asarray(column) for name, column in columns.items()}
    n = len(next(iter(columns.values())))
    table = {name: columns[name] for name, *_ in keys}
    _check_keys(table, keys)
    k = blocks(n, shards)
    if not threads_pay(n, k):
        executor = InlineExecutor()
    row_bits, dtype = index_bits(n), word_dtype(keys, n)
    order = positions = np.arange(n, dtype=np.int64)
    for digit in _digits(table, keys, n, WORD_BITS - row_bits, word_passes(keys, n)):
        if order is not positions:  # the first pass's order is the identity
            digit = digit[order]
        words = ((digit << row_bits) | positions).astype(dtype, copy=False)
        payloads = partition_columns({ROW_ID: words}, k)
        merged = oblivious_merge_runs(
            _sort_blocks(payloads, counter, executor), _WORD, counter, executor
        )
        order = order[merged[ROW_ID] & ((1 << row_bits) - 1)]
    return {name: column[order] for name, column in columns.items()}
