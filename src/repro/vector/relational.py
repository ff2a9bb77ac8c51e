"""Vectorised fast paths for the relational operators FILTER and ORDER BY.

The db layer's ``filter`` and ``order_by`` reduce to two index-level
primitives, both expressible as one bitonic sort on
:func:`~repro.vector.sort.vector_bitonic_sort`:

``filter``
    Order-preserving compaction of the survivor indices: sort
    ``(null_flag, position)`` ascending; the first ``count`` cells are the
    survivors in original order.  This is the paper's
    ``Bitonic-Sort<!= ∅ up>`` filter idiom, whole-array.  Only the survivor
    count is revealed — the same deliberate reveal the traced path makes.

``order_by``
    A *stable* sort permutation: sort the key columns with the original
    position appended as the final tiebreak key.  Appending the position
    makes the ordering total, so every engine — traced networks, numpy
    networks, per-shard sort + oblivious merge — lands on the identical
    permutation, which is what keeps the engines bit-identical on inputs
    with duplicate sort keys.

Both schedules depend only on the input length (and the revealed survivor
count), matching the vector engine's leakage profile.  The sort is a
parameter, by :func:`filter_keys` / :func:`order_keys`: the ``sharded``
engine runs this text over :func:`repro.shard.sort.sharded_sort`.  Both key
lists end in the unique position, so every sort lands on the same order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .join import int64_cells
from .sort import Key, index_bits, vector_bitonic_sort

_INT = np.int64


def filter_keys(n: int) -> list[Key]:
    """The compaction's keys: survivors first, then by position."""
    return [("null", True, 1), ("pos", True, index_bits(n))]


def vector_filter_indices(mask: Sequence[bool], sort=vector_bitonic_sort) -> list[int]:
    """Indices of the true cells of ``mask``, in order, via bitonic compaction."""
    flags = np.asarray(mask, dtype=bool)
    n = len(flags)
    if n == 0:
        return []
    columns = {
        "null": (~flags).astype(_INT),
        "pos": np.arange(n, dtype=_INT),
    }
    columns = sort(columns, filter_keys(n))
    count = int(flags.sum())
    return columns["pos"][:count].tolist()


def order_keys(ascending: Sequence[bool], n: int) -> list[Key]:
    """A stable order-by's keys: columns ``k0, k1, …`` in their directions,
    then the position at its public width."""
    return [(f"k{i}", up) for i, up in enumerate(ascending)] + [("pos", True, index_bits(n))]


def order_columns(
    columns: Sequence[tuple[Sequence[int], bool]], n: int
) -> tuple[dict[str, np.ndarray], list[Key]]:
    """Build the struct-of-arrays table + keys of a stable order-by sort.

    Raises :class:`~repro.errors.InputError` when a key column is not int64
    ints (e.g. string or float columns) — callers fall back to the traced
    path.
    """
    work = {
        f"k{index}": int64_cells(values, f"order_by column {index}")
        for index, (values, _) in enumerate(columns)
    }
    work["pos"] = np.arange(n, dtype=_INT)
    return work, order_keys([ascending for _, ascending in columns], n)


def vector_order_permutation(
    columns: Sequence[tuple[Sequence[int], bool]], n: int, sort=vector_bitonic_sort
) -> list[int]:
    """The stable sort permutation of ``n`` rows under the given key columns.

    ``columns`` is a list of ``(values, ascending)`` pairs; the returned
    list maps output position to original row index.
    """
    if n <= 1:
        return list(range(n))
    work, keys = order_columns(columns, n)
    return sort(work, keys)["pos"].tolist()
