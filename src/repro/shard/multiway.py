"""Sharded multi-way join cascade: each binary step is a sharded join.

Structurally identical to :func:`repro.vector.multiway.vector_multiway_join`
— a left-deep fold of binary joins over a client-side row catalogue — with
every step executed by :func:`repro.shard.join.sharded_oblivious_join` on
the configured executor.  Because the sharded join returns the exact pairs
in the exact canonical order the vector engine produces, the accumulated
catalogues (and therefore the final rows and intermediate sizes) are
bit-identical across the three engines; the differential suite pins that.

Under padded execution each step's left size is the *previous step's
bound*, so every step's plan (``stats.step_stats[s].plan``) and schedule is
a function of the input sizes, ``k`` and the bounds alone
(:func:`repro.plan.compile.multiway_plan` is the whole cascade's artifact).
Revealed per step without padding: the intermediate size, as in every
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.multiway import (
    MultiwayResult,
    check_step_columns,
    encode_handles,
    validate_cascade,
)
from ..core.padding import cascade_bounds, check_padding, padded_cascade
from ..plan.executors import Executor, resolve_executor
from .join import ShardedJoinStats, sharded_oblivious_join


@dataclass
class ShardedMultiwayStats:
    """Per-step sharded-join stats for one cascade run."""

    step_stats: list[ShardedJoinStats] = field(default_factory=list)
    intermediate_sizes: list[int] = field(default_factory=list)
    #: Per-step public output bounds of a padded run (empty when revealed) —
    #: the adversary-visible sizes, one per join step, so comparison tests
    #: can read the cascade's compounded padding straight off the stats.
    step_bounds: list[int] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(s.total_seconds for s in self.step_stats)

    @property
    def total_comparisons(self) -> int:
        return sum(s.total_comparisons for s in self.step_stats)

    @property
    def schedule(self) -> tuple:
        """Concatenation of every step's sharded-join schedule."""
        return tuple(
            (step, stats.schedule) for step, stats in enumerate(self.step_stats)
        )


def sharded_multiway_join(
    tables: list[list[tuple]],
    keys: list[tuple[int, int]],
    shards: int = 2,
    workers: int = 1,
    stats: ShardedMultiwayStats | None = None,
    padding: str | None = None,
    bound=None,
    executor: str | Executor | None = None,
) -> MultiwayResult:
    """Sharded left-deep cascade; same contract as the traced/vector versions."""
    padding = check_padding(padding)
    validate_cascade(tables, keys)
    stats = stats if stats is not None else ShardedMultiwayStats()
    executor = resolve_executor(executor, workers=workers)

    if padding != "revealed":
        sizes = [len(t) for t in tables]
        bounds = cascade_bounds(sizes, padding, bound)
        stats.step_bounds = list(bounds)

        def run_step(step, left_pairs, right_pairs, target):
            step_stats = ShardedJoinStats()
            handles, step_stats = sharded_oblivious_join(
                left_pairs,
                right_pairs,
                shards=shards,
                stats=step_stats,
                target_m=target,
                executor=executor,
            )
            stats.step_stats.append(step_stats)
            stats.intermediate_sizes.append(step_stats.m)
            return [tuple(pair) for pair in handles.tolist()]

        rows, sizes = padded_cascade(tables, keys, bounds, run_step)
        return MultiwayResult(
            rows=rows, intermediate_sizes=sizes, padding=padding, bounds=bounds
        )

    accumulated = list(tables[0])
    for step, table in enumerate(tables[1:]):
        next_table = list(table)
        left_col, right_col = keys[step]
        check_step_columns(step, accumulated, next_table, left_col, right_col)
        step_stats = ShardedJoinStats()
        handles, step_stats = sharded_oblivious_join(
            encode_handles(accumulated, left_col),
            encode_handles(next_table, right_col),
            shards=shards,
            stats=step_stats,
            executor=executor,
        )
        stats.step_stats.append(step_stats)
        stats.intermediate_sizes.append(step_stats.m)
        accumulated = [
            accumulated[left_index] + tuple(next_table[right_index])
            for left_index, right_index in handles.tolist()
        ]
    return MultiwayResult(
        rows=accumulated, intermediate_sizes=list(stats.intermediate_sizes)
    )
