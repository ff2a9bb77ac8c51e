"""Sharded execution of the oblivious workloads.

The subsystem behind the ``sharded`` engine (:mod:`repro.engines.sharded`):

:mod:`~repro.shard.partition`
    Oblivious positional partitioner — ``k`` equal shards padded to a
    capacity that is a function of ``(n, k)`` only (the pure plan half
    lives in :mod:`repro.plan.partition`).
:mod:`~repro.shard.merge`
    Bitonic merge tournament that folds sorted runs into one.
:mod:`~repro.shard.sort`
    The sharded sort — one-word passes, each ``blocks(n, shards)`` local
    bitonic sorts plus that tournament.
    Handed to the ``vector`` text as its ``sort``, it runs every sharded
    operator: the join, the multiway cascade, the join tree, aggregation,
    GROUP BY, FILTER and ORDER BY.  Tasks dispatch through a pluggable
    executor (:mod:`repro.plan.executors`: inline / thread pool /
    shuffle).
:mod:`~repro.shard.join`
    The binary join's driver: the ``vector`` join over the sharded sort,
    with its public plan (:mod:`repro.plan.compile`) compiled before any
    data is touched and store-backed inputs scanned once.
"""

from .join import ShardedJoinStats, sharded_oblivious_join
from .merge import bitonic_merge_two, merge_comparator_count, oblivious_merge_runs
from .partition import ShardPart, partition_pairs, partition_plan
from .sort import sharded_sort

__all__ = [
    "ShardPart",
    "ShardedJoinStats",
    "bitonic_merge_two",
    "merge_comparator_count",
    "oblivious_merge_runs",
    "partition_pairs",
    "partition_plan",
    "sharded_oblivious_join",
    "sharded_sort",
]
