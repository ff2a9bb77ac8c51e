"""Pluggable executors: *how* a compiled plan's tasks run.

A :class:`~repro.plan.ir.Plan` fixes the public schedule — which tasks run
at which sizes, in which order.  Executors fix the substrate.  The contract
is one call::

    executor.map(task, payloads) -> list   # results in payload order

``task`` is a function of one payload; every payload's *shape* is already
data-independent (padded shards), so no executor can change the leakage —
only the wall clock.  A dispatch is a barrier: the sharded sort maps its
``k`` block sorts, then maps each round of its merge bracket
(:func:`repro.shard.merge.oblivious_merge_runs`).  Three executors ship
in-tree, and all three run in the calling process — one address space, the
paper's single enclave:

``inline``
    Runs the task list in the calling thread.  Deterministic, the default
    for ``workers=1`` and what the test suite hammers.
``pool``
    A persistent :class:`concurrent.futures.ThreadPoolExecutor` of
    ``workers`` threads.  Payloads and results are passed by reference,
    nothing is copied; every task is numpy ``minimum`` / ``maximum`` / copy
    over views.  Those release the GIL, but two threads only beat one when
    each call covers the hand-off, which is why a sharded sort cuts blocks
    under :data:`~repro.plan.partition.MIN_BLOCK_ROWS` (2**16) rows only
    to save comparators (:func:`~repro.plan.partition.blocks`; the
    crossover sweep is in ``docs/architecture.md``) and sorts those in the
    calling thread (:func:`~repro.plan.partition.threads_pay`).  A dispatch
    of one task runs in the calling thread.  At most
    :data:`MAX_POOL_WORKERS` threads.
``shuffle``
    A validation substrate: inline compute, adversarially shuffled
    *execution* order.  It exists to prove (in tests and the CI
    differential matrix) that no task depends on running in payload order.

Pools are *persistent*: the first ``workers=N`` dispatch creates the pool,
later dispatches reuse it (:func:`shutdown_pools` tears them down).  ``map``
returns results in payload order, so the execution strategy never changes
the output — the executor-parametrised differential suite pins that bit
for bit.  A task that raises ends its dispatch with that error; the pool
stays usable for the next one.

What is process-wide here is stateless between queries: the pools in
``_POOLS`` and the warm-executor registry (:func:`warm_executor`).  Any
number of threads may dispatch on them at once.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Protocol, Sequence, runtime_checkable

from ..errors import InputError

#: The most threads one ``pool`` executor may start: each dispatch runs up
#: to ``workers`` of them, so a hostile ``--workers`` is refused up front.
MAX_POOL_WORKERS = 64

#: Live pools keyed by worker count (see :func:`_pool`).
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def check_workers(workers: int) -> int:
    """Validate a worker count; returns it for chaining."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise InputError(f"worker count must be an int >= 1, got {workers!r}")
    return workers


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(workers)
        return pool


def shutdown_pools() -> None:
    """Shut every cached worker pool down (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def warm_pool(workers: int) -> None:
    """Create the ``workers``-thread pool ahead of time (bench warm-up)."""
    if PoolExecutor(workers).workers > 1:  # refuses a count over the limit
        _pool(workers)


# -- executors ---------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """The execution substrate contract: ordered map over padded payloads."""

    name: str

    def map(self, task: Callable, payloads: Sequence) -> list: ...


class InlineExecutor:
    """Run the task list in the calling thread (no pool)."""

    name = "inline"

    def __init__(self, workers: int = 1) -> None:
        self.workers = check_workers(workers)  # accepted for uniformity

    def map(self, task: Callable, payloads: Sequence) -> list:
        return [task(payload) for payload in payloads]


class ShuffleExecutor:
    """Inline compute, adversarially shuffled execution order (a validation
    substrate).

    Every task runs in the calling process, but ``map`` *executes* the tasks
    in a deterministic shuffled order before returning their results in
    payload order.  Outputs are bit-identical to ``inline`` by the executor
    contract; what this substrate exists to falsify is any task that depends
    on running in payload order — the CI differential matrix runs the
    sharded engine on it.  The shuffle is seeded (``seed`` plus a
    per-dispatch counter), so failures reproduce.
    """

    name = "shuffle"

    def __init__(self, workers: int = 1, seed: int = 0) -> None:
        self.workers = check_workers(workers)  # accepted for uniformity
        self.seed = seed
        self._dispatches = 0

    def _order(self, count: int) -> list[int]:
        order = list(range(count))
        random.Random(1_000_003 * self.seed + self._dispatches).shuffle(order)
        self._dispatches += 1
        return order

    def map(self, task: Callable, payloads: Sequence) -> list:
        payloads = list(payloads)
        results: dict[int, object] = {}
        for index in self._order(len(payloads)):
            results[index] = task(payloads[index])
        return [results[index] for index in range(len(payloads))]


class PoolExecutor:
    """A persistent thread pool in the calling process."""

    name = "pool"

    def __init__(self, workers: int = 2) -> None:
        self.workers = check_workers(workers)
        if workers > MAX_POOL_WORKERS:
            raise InputError(
                f"a pool runs at most {MAX_POOL_WORKERS} workers, got {workers}"
            )

    def map(self, task: Callable, payloads: Sequence) -> list:
        # A single task or a 1-thread pool gains nothing from threads;
        # inline keeps it fast, and results are identical either way.
        if len(payloads) <= 1 or self.workers == 1:
            return [task(payload) for payload in payloads]
        return list(_pool(self.workers).map(task, payloads))


#: Executor factories by name (the ``--executor`` choices).
_EXECUTORS: dict[str, type] = {
    InlineExecutor.name: InlineExecutor,
    PoolExecutor.name: PoolExecutor,
    ShuffleExecutor.name: ShuffleExecutor,
}


def available_executors() -> list[str]:
    """Sorted names of all registered executors."""
    return sorted(_EXECUTORS)


def get_executor(executor: str | Executor, workers: int = 1) -> Executor:
    """Resolve an executor by name (instances pass straight through)."""
    if not isinstance(executor, str):
        return executor
    try:
        factory = _EXECUTORS[executor]
    except KeyError:
        raise InputError(
            f"unknown executor {executor!r}; "
            f"available: {', '.join(available_executors())}"
        ) from None
    return factory(workers=check_workers(workers))


def resolve_executor(executor: str | Executor | None, workers: int = 1) -> Executor:
    """The drivers' default rule: explicit choice wins, else by workers.

    ``None`` keeps the historical behaviour — ``workers=1`` runs inline,
    ``workers>1`` runs on the thread pool.
    """
    check_workers(workers)
    if executor is None:
        executor = "inline" if workers == 1 else "pool"
    return get_executor(executor, workers=workers)


#: Warm executor instances the service layer reuses across queries,
#: keyed by ``(name, workers)``.
_WARM_EXECUTORS: dict[tuple[str, int], Executor] = {}
#: Guards :data:`_WARM_EXECUTORS`; its own lock, since :func:`warm_pool`
#: takes ``_POOLS_LOCK``.
_WARM_LOCK = threading.Lock()


def warm_executor(executor: str | Executor | None, workers: int = 1) -> Executor:
    """The cross-query warm executor registry.

    Same resolution rule as :func:`resolve_executor`, but the instance is
    cached by ``(name, workers)`` and handed out again on the next query,
    and its thread pool (persistent in :data:`_POOLS`) is created eagerly
    rather than on the first dispatch.  Its idle threads hold nothing of
    a past query.  Instances pass straight through (the caller already owns
    their lifetime).
    """
    resolved = resolve_executor(executor, workers=workers)
    if resolved is executor:
        return resolved
    with _WARM_LOCK:
        instance = _WARM_EXECUTORS.setdefault((resolved.name, workers), resolved)
    if instance is resolved and isinstance(instance, PoolExecutor):
        warm_pool(workers)
    return instance


def shutdown_warm_executors() -> None:
    """Forget the warm executor instances (their pools stay in _POOLS)."""
    with _WARM_LOCK:
        _WARM_EXECUTORS.clear()


def executor_stats() -> dict:
    """Live substrate state, for the service layer's queue stats."""
    with _POOLS_LOCK:
        pools = sorted(_POOLS)
    with _WARM_LOCK:
        warm = sorted(f"{name}:{workers}" for name, workers in _WARM_EXECUTORS)
    return {"pools": pools, "warm_executors": warm}
