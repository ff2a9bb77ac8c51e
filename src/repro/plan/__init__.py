"""Compile-then-execute: the public oblivious plan IR and its executors.

The paper's security argument is that the schedule of oblivious primitives
is a function of public values only.  This package turns that from an
emergent property into an explicit, testable artifact:

:mod:`~repro.plan.ir`
    The Plan IR — a DAG of operator nodes with public shapes, canonical
    serialization, and a digest.  Plan equality *is* schedule equality.
:mod:`~repro.plan.compile`
    Compilers from workload shapes ``(n1, n2, …, k, padding, bound)`` to
    plans, reusing the padding planner and the partition-plan functions.
:mod:`~repro.plan.partition`
    The pure shard-layout functions (``partition_plan``, ``blocks``) — f(n, k).
:mod:`~repro.plan.executors`
    Pluggable execution substrates behind one ``map`` call: ``inline``,
    ``pool`` (a thread pool in the calling process), ``shuffle`` (shuffled
    execution order, for validation).

Usage::

    from repro.plan import compile_workload, get_executor

    plan = compile_workload("join", "sharded", n1=1024, n2=1024,
                            shards=4, padding="worst_case")
    print(plan.render())          # or plan.serialize() / plan.digest()

    engine = get_engine("sharded", workers=4, executor="pool")
    engine.join(left, right)      # consumes the same compiled plan

``python -m repro plan`` prints any query's plan from the command line.
"""

from .compile import (
    WORKLOADS,
    compile_aggregate,
    compile_filter,
    compile_join,
    compile_multiway,
    compile_order_by,
    compile_workload,
)
from .executors import (
    Executor,
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
    available_executors,
    executor_stats,
    get_executor,
    resolve_executor,
    shutdown_pools,
    shutdown_warm_executors,
    warm_executor,
    warm_pool,
)
from .ir import MergeNode, OpNode, Plan, PlanBuilder, tournament_schedule
from .partition import check_shards, partition_plan, shard_capacity, shard_counts

__all__ = [
    "Executor",
    "InlineExecutor",
    "MergeNode",
    "OpNode",
    "Plan",
    "PlanBuilder",
    "PoolExecutor",
    "ShuffleExecutor",
    "WORKLOADS",
    "available_executors",
    "check_shards",
    "compile_aggregate",
    "compile_filter",
    "compile_join",
    "compile_multiway",
    "compile_order_by",
    "compile_workload",
    "executor_stats",
    "get_executor",
    "partition_plan",
    "resolve_executor",
    "shard_capacity",
    "shard_counts",
    "shutdown_pools",
    "shutdown_warm_executors",
    "tournament_schedule",
    "warm_executor",
    "warm_pool",
]
