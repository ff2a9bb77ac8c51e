"""The oblivious partitioner: equal, padded shards sized by ``(n, k)`` only.

Rows are assigned to shards by *position* — shard ``i`` receives the ``i``-th
contiguous block of the input — so shard membership is independent of every
key and payload byte.  Each shard is then padded with zero rows up to the
common capacity ``ceil(n / k)``, which makes every shard (and therefore every
payload the executor hands a worker thread) the exact same shape for a
given ``(n, k)``.

The number of *real* rows per shard is also a pure function of ``(n, k)``:
the first ``n mod k`` shards carry ``ceil(n / k)`` rows, the rest
``floor(n / k)``.  Those counts are public — they are part of the partition
plan the obliviousness tests pin — so a worker slicing its shard back to the
real rows before running the join reveals nothing the plan did not already.

Position-based partitioning deliberately avoids key-based (hash/range)
partitioning: a key-partitioned shard's load is a function of the key
distribution, and padding it to a data-independent capacity while staying
*correct* under adversarial skew (every key in one shard) forces the
capacity up to ``n``.  Positional blocks carry no key locality, so what is
sharded is the *sort* (:mod:`repro.shard.sort`), never the join.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..plan.partition import (  # noqa: F401 (re-exports: the pure plan half)
    check_shards,
    partition_plan,
    shard_capacity,
    shard_counts,
)

_INT = np.int64


@dataclass(frozen=True)
class ShardPart:
    """One padded shard: capacity-sized column arrays plus the real count.

    ``j``/``d`` always have length ``capacity``; rows past ``real`` are
    zero padding that exists only to keep shard shapes data-independent.
    """

    j: np.ndarray
    d: np.ndarray
    real: int

    @property
    def capacity(self) -> int:
        return len(self.j)

    def rows(self) -> np.ndarray:
        """The real rows as an ``(real, 2)`` array (padding stripped)."""
        return np.stack([self.j[: self.real], self.d[: self.real]], axis=1)


def partition_columns(
    columns: dict[str, np.ndarray], k: int
) -> list[tuple[dict[str, np.ndarray], int]]:
    """Split a struct-of-arrays table into ``k`` equal, padded blocks.

    The single owner of the padding invariant: block ``i`` holds the
    ``i``-th contiguous run of rows, zero-padded (in each column's dtype)
    to the common capacity.  Returns ``(block, real_count)`` pairs; every
    shape is a function of ``(n, k)`` only.
    """
    n = len(next(iter(columns.values())))
    capacity, counts = partition_plan(n, k)
    blocks: list[tuple[dict[str, np.ndarray], int]] = []
    offset = 0
    for real in counts:
        block = {}
        for name, column in columns.items():
            padded = np.zeros(capacity, dtype=column.dtype)
            padded[:real] = column[offset : offset + real]
            block[name] = padded
        blocks.append((block, real))
        offset += real
    return blocks


def partition_pairs(pairs, k: int) -> list[ShardPart]:
    """Split a ``(j, d)`` pairs table into ``k`` equal, padded shards.

    Accepts the same inputs as the vector engine (a sequence of int pairs or
    an ``(n, 2)`` array).
    """
    array = np.asarray(pairs, dtype=_INT)
    if array.size == 0:
        array = array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise InputError("input tables must be sequences of (j, d) pairs")
    return [
        ShardPart(j=block["j"], d=block["d"], real=real)
        for block, real in partition_columns(
            {"j": array[:, 0], "d": array[:, 1]}, k
        )
    ]
