"""The sharded oblivious join: Algorithm 1's own text over a sharded sort.

The paper's join is five bitonic sorts with linear scans between them, so
that is where the workers go: :func:`sharded_oblivious_join` calls
:func:`repro.vector.join.vector_oblivious_join` — the same text the
``vector`` engine runs — with :func:`repro.shard.sort.sharded_sort` in
place of the single-process sort.  Output rows and order are bit-identical
to ``vector`` (every tie the five key lists leave open is between rows
that are identical or later overwritten), the comparator work is the
same at every ``k`` — each sort's one-word passes times the single
network's — rather than ``k**2`` joins', and the leakage is the
``vector`` engine's plus the ``(n, k)``-determined block sizes: one ``m``,
no per-task sizes.  :class:`~repro.errors.BoundError` is raised in the
parent right after the augment, exactly as ``vector`` raises it, while no
task is in flight.

Store-backed inputs (:class:`~repro.store.StorePairs`) are scanned once per
query, blocks ``0 … B-1`` of each column in order — a public function of
``(n, block_rows)`` — and nothing of the scan is kept on the input object.

``stats.plan`` is the public plan compiled from ``(n1, n2, k, target,
block_rows)`` before any data is touched
(:func:`repro.plan.compile.join_plan` under ``k``); the obliviousness suite
asserts it byte-identical across inputs of one shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..core.padding import check_target_m
from ..core.stats import PhaseStats
from ..plan.compile import join_plan
from ..plan.executors import Executor, resolve_executor
from ..plan.ir import Plan
from ..store.runtime import StorePairs
from ..vector.join import vector_oblivious_join
from .sort import sharded_sort

#: Sort keys of the deleted output tournament.  Nothing in ``src`` reads
#: this; the frozen ``benchmarks/e2e/layers.py`` imports it for its merge
#: probe.  Retire with ROADMAP item 1(b).
MERGE_KEYS = [("j", True), ("d1", True), ("d2", True)]


@dataclass
class ShardedJoinStats(PhaseStats):
    """The vector join's per-phase record plus the shard count and plan."""

    shards: int = 1
    plan: Plan | None = None
    #: Always empty — there are no per-task output sizes any more.  Kept
    #: only because the frozen ``benchmarks/e2e/layers.py`` iterates it.
    #: Retire with ROADMAP item 1(b).
    task_m: list[int] = field(default_factory=list)

    @property
    def schedule(self) -> tuple:
        """The adversary-visible schedule: shard count and each phase's
        comparator count (local sorts plus merges) — a function of
        ``(n1, n2, k)``, ``m`` (the public bound under padding) and the
        five sorts' fixed key widths, which set each sort's passes."""
        return (self.shards, super().schedule)


def sharded_oblivious_join(
    left,
    right,
    shards: int = 2,
    workers: int = 1,
    stats: ShardedJoinStats | None = None,
    target_m: int | None = None,
    executor: str | Executor | None = None,
) -> tuple[np.ndarray, ShardedJoinStats]:
    """Sharded Algorithm 1; returns ``(pairs, stats)``.

    ``pairs`` is the ``(m, 2)`` int64 array
    :func:`~repro.vector.join.vector_oblivious_join` produces, bit for bit,
    under every executor (``executor=None``: inline at ``workers=1``, the
    thread pool above) and every ``target_m``.
    """
    executor = resolve_executor(executor, workers=workers)
    stats = stats if stats is not None else ShardedJoinStats()
    stats.shards = shards
    if target_m is not None:
        target_m = check_target_m(target_m, len(left), len(right))
    sides = (left, right)
    block_rows = tuple(
        pairs.block_rows if isinstance(pairs, StorePairs) else None for pairs in sides
    )
    stats.plan = join_plan("sharded", len(left), len(right), target_m, shards, block_rows)
    left, right = (
        pairs.scan() if isinstance(pairs, StorePairs) else pairs for pairs in sides
    )
    return vector_oblivious_join(
        left,
        right,
        stats=stats,
        target_m=target_m,
        sort=partial(sharded_sort, shards=shards, executor=executor),
    )
