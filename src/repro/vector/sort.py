"""Vectorised bitonic sorting over struct-of-arrays tables.

The traced engine in :mod:`repro.core` is faithful to the paper at the
granularity of single memory accesses, which caps pure-Python runs at a few
thousand rows.  This module re-implements the same bitonic network with
numpy whole-array operations: each network stage compares all of its
(disjoint) pairs at once.  The *schedule* of stages is still completely
input-independent — every stage touches fixed index sets derived only from
the array length — so the engine preserves the algorithm's structure and
cost shape while running ~10^3x faster; the test suite cross-checks its
output against the traced engine row for row.

One table shape has its own kernel: a single word column (int64 or uint32)
sorted ascending by itself carries no payload, so a compare-exchange is
``minimum`` / ``maximum`` over two views (:func:`sort_words`) — same stages
and counts, a write set that does not depend on the data.
:mod:`repro.shard.sort` packs into it.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..obliv.bitonic import comparison_count, next_power_of_two

#: Column holding the padding flag in padded sorts (sorts after real rows).
PAD_COLUMN = "_pad"

#: Sort key: ``(column name, ascending)``, optionally ``(…, bits)`` — the
#: caller's promise, derived from sizes only, that the column lies in
#: ``[0, 2**bits)``.  Ignored here; :mod:`repro.shard.sort` packs by it.
Key = tuple[str, bool] | tuple[str, bool, int]

#: The dtypes a word column may have: a sharded sort's ``digit ‖ position``.
WORD_DTYPES = (np.dtype(np.int64), np.dtype(np.uint32))

#: numpy's ufunc buffer, in elements, while :func:`sort_words` runs (its
#: default is 8192): a stage's strided views are copied through it in chunks
#: this long.  The sweep is in docs/architecture.md, "One word per row".
BUFFER = 512


def index_bits(size: int) -> int:
    """Public width of a column of indices into ``size`` slots, ``[0, size)``."""
    return max(size - 1, 0).bit_length()


def word_column(columns: dict[str, np.ndarray], keys: list[Key]) -> str | None:
    """The column's name if the table is one word column (int64 or uint32)
    sorted ascending by itself."""
    if len(columns) == len(keys) == 1:
        ((name, column),) = columns.items()
        key, ascending, *_ = keys[0]
        if key == name and ascending and np.asarray(column).dtype in WORD_DTYPES:
            return name
    return None


def padded_words(size: int, dtype: np.dtype) -> np.ndarray:
    """A word buffer of ``size`` pads: the dtype's maximum, which sorts last.

    A real word can equal it only as an identical value, so the ``n``
    smallest of the buffer are the real words whatever they hold."""
    return np.full(size, np.iinfo(dtype).max, dtype=dtype)


def exchange(lo: np.ndarray, hi: np.ndarray) -> None:
    """Compare-exchange two equal-shape views in place: ``lo <= hi`` after."""
    smaller = np.minimum(lo, hi)
    np.maximum(lo, hi, out=hi)
    lo[...] = smaller


def complement(view: np.ndarray) -> None:
    """Reverse a view's order in place: ``~`` does, for int64 and unsigned alike."""
    np.invert(view, out=view)


def transpose(src: np.ndarray, dst: np.ndarray) -> None:
    """Copy one layout of a word buffer into the other."""
    dst[...] = src


def _view(array: np.ndarray, *shape: int) -> np.ndarray:
    view = array.view()
    view.shape = shape  # raises where reshape would copy: never sort a temporary
    return view


def sort_words(words: np.ndarray, k: int = 2) -> None:
    """Phases ``k, 2k, … n`` of :func:`stage_pairs`' network over a power-of-two
    buffer, in place; ``k = len(words)`` is the bitonic merger alone.

    A phase's descending blocks are complemented around its stages, so every
    stage is one ascending exchange.  Stages with partners ``j >= b`` slots
    apart exchange views of the buffer; shorter ones run on its transpose
    ``rows`` (slot ``c·b + r`` at ``rows[r, c]``), partners whole rows.
    Every view and copy is a fixed function of ``(n, k)``.  numpy's ufunc
    buffer holds :data:`BUFFER` elements for the call, in the calling thread
    only, so every caller and pool thread keeps its own setting.
    """
    with np.errstate():  # restores the caller's buffer size on the way out
        np.setbufsize(BUFFER)
        n = len(words)
        b = min(n, 128)  # the sweep is in docs/architecture.md, "One word per row"
        natural = _view(words, n // b, b).T
        rows = np.empty((b, n // b), dtype=words.dtype)
        if k <= b:  # phases of short stages only: transposed once, in and out
            transpose(natural, rows)
            while k <= b:
                # Slot c·b + r descends if r & k (k < b) or c is odd (k = b < n).
                descending = _view(rows, -1, min(2, n // k), k * n // b if k < b else 1)[:, 1:]
                complement(descending)
                _short_stages(rows, k // 2)
                complement(descending)
                k *= 2
            transpose(rows, natural)
        while k <= n:
            # Blocks of k alternate ascending ([:, 0]) and descending ([:, 1:]).
            descending = _view(words, -1, min(2, n // k), k)[:, 1:]
            complement(descending)
            j = k // 2
            while j >= b:
                pairs = _view(words, -1, 2, j)
                exchange(pairs[:, 0], pairs[:, 1])
                j //= 2
            transpose(natural, rows)
            _short_stages(rows, j)
            transpose(rows, natural)
            complement(descending)
            k *= 2


def _short_stages(rows: np.ndarray, j: int) -> None:
    """Stages ``j, j/2, … 1`` on the transposed buffer, all ascending."""
    while j >= 1:
        pairs = _view(rows, -1, 2, j * rows.shape[1])
        exchange(pairs[:, 0], pairs[:, 1])
        j //= 2


def stage_pairs(n: int):
    """Yield ``(lo, hi)`` index-array pairs for each bitonic stage of size n.

    Orientation is already applied: after a stage, ``A[lo] <= A[hi]``
    pairwise sorts the whole array ascending once all stages ran.
    """
    if n & (n - 1):
        raise InputError(f"bitonic network size must be a power of two, got {n}")
    indices = np.arange(n)
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            partner = indices ^ j
            mask = partner > indices
            i = indices[mask]
            p = partner[mask]
            ascending = (i & k) == 0
            lo = np.where(ascending, i, p)
            hi = np.where(ascending, p, i)
            yield lo, hi
            j //= 2
        k *= 2


def lexicographic_greater(
    columns: dict[str, np.ndarray],
    keys: list[Key],
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Boolean mask: row ``lo[i]`` strictly follows row ``hi[i]`` under keys."""
    greater = np.zeros(len(lo), dtype=bool)
    equal = np.ones(len(lo), dtype=bool)
    for name, ascending, *_ in keys:
        col = columns[name]
        a = col[lo]
        b = col[hi]
        if ascending:
            stage_gt = a > b
        else:
            stage_gt = a < b
        greater |= equal & stage_gt
        equal &= a == b
    return greater


def vector_bitonic_sort(
    columns: dict[str, np.ndarray],
    keys: list[Key],
    counter: list | None = None,
) -> dict[str, np.ndarray]:
    """Sort a struct-of-arrays table by ``keys`` with the bitonic network.

    Returns a new column dict (padding inserted and stripped internally for
    non-power-of-two lengths).  When ``counter`` (a one-element list) is
    given, the number of executed comparator operations is added to it —
    feeding the same Table 3 accounting as the traced engine.
    """
    names = list(columns)
    n = len(columns[names[0]]) if names else 0
    if n <= 1:
        return {k: v.copy() for k, v in columns.items()}
    padded = next_power_of_two(n)
    word = word_column(columns, keys)
    if word is not None:
        column = np.asarray(columns[word])
        words = padded_words(padded, column.dtype)
        words[:n] = column
        sort_words(words)
        if counter is not None:
            counter[0] += comparison_count(padded)
        return {word: words[:n]}
    work: dict[str, np.ndarray] = {}
    for name in names:
        col = np.asarray(columns[name])
        if padded == n:
            work[name] = col.copy()
        else:
            work[name] = np.concatenate([col, np.zeros(padded - n, dtype=col.dtype)])
    if padded != n:
        pad_flag = np.zeros(padded, dtype=np.int64)
        pad_flag[n:] = 1
        work[PAD_COLUMN] = pad_flag
        keys = [(PAD_COLUMN, True)] + list(keys)

    for lo, hi in stage_pairs(padded):
        swap = lexicographic_greater(work, keys, lo, hi)
        if counter is not None:
            counter[0] += len(lo)
        src = lo[swap]
        dst = hi[swap]
        for col in work.values():
            col[src], col[dst] = col[dst].copy(), col[src].copy()

    if padded != n:
        del work[PAD_COLUMN]
        return {name: work[name][:n] for name in names}
    return work


def is_sorted_by(columns: dict[str, np.ndarray], keys: list[Key]) -> bool:
    """Check whether the table is sorted by ``keys`` (test helper)."""
    n = len(next(iter(columns.values())))
    if n <= 1:
        return True
    lo = np.arange(n - 1)
    hi = lo + 1
    return not lexicographic_greater(columns, keys, lo, hi).any()
