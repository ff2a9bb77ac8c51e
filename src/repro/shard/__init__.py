"""Sharded multi-process execution of the oblivious workloads.

The subsystem behind the ``sharded`` engine (:mod:`repro.engines.sharded`):

:mod:`~repro.shard.partition`
    Oblivious positional partitioner — ``k`` equal shards padded to a
    capacity that is a function of ``(n, k)`` only (the pure plan half
    lives in :mod:`repro.plan.partition`).
:mod:`~repro.shard.merge`
    Bitonic merge tournament that folds sorted runs into one.
:mod:`~repro.shard.sort`
    The sharded sort — ``k`` local bitonic sorts plus that tournament —
    under the join, ``order_by`` and, handed to the ``vector`` text as its
    ``sort``, the multiway cascade and the join tree.
:mod:`~repro.shard.join` / :mod:`~repro.shard.aggregate` /
:mod:`~repro.shard.relational`
    The sharded workloads with drivers of their own, each bit-identical to
    the vector engine and validated by the cross-engine differential suite.
    Every driver compiles its public plan (:mod:`repro.plan.compile`) before
    touching data; tasks dispatch through a pluggable executor
    (:mod:`repro.plan.executors`: inline / shared-memory pool / shuffle).
"""

from .aggregate import (
    ShardedAggregateStats,
    sharded_group_by,
    sharded_join_aggregate,
)
from .join import ShardedJoinStats, sharded_oblivious_join
from .merge import bitonic_merge_two, merge_comparator_count, oblivious_merge_runs
from .partition import ShardPart, partition_pairs, partition_plan
from .relational import sharded_filter_indices, sharded_order_permutation
from .sort import sharded_sort

__all__ = [
    "ShardPart",
    "ShardedAggregateStats",
    "ShardedJoinStats",
    "bitonic_merge_two",
    "merge_comparator_count",
    "oblivious_merge_runs",
    "partition_pairs",
    "partition_plan",
    "sharded_filter_indices",
    "sharded_group_by",
    "sharded_join_aggregate",
    "sharded_oblivious_join",
    "sharded_order_permutation",
    "sharded_sort",
]
