"""Vectorised multi-way join cascade (§7) on the numpy engine.

The same fold as :func:`repro.core.multiway.oblivious_multiway_join` —
one call to :func:`repro.core.multiway.cascade`, the left-deep fold of
binary oblivious joins, in every padding mode.  Each step projects the
accumulated row catalogue to two int columns — ``(join_key, row_handle)`` —
and runs them through :func:`repro.vector.join.vector_oblivious_join`, whose
bitonic/routing networks (built on ``vector_bitonic_sort``) are scheduled by
the public sizes alone.  Payload tuples never enter the oblivious operator;
they are gathered from the client-side catalogue by the returned handles,
exactly like the traced cascade, so the two engines produce bit-identical
rows in bit-identical order.

What the numpy engine reveals is the *primitive schedule*: which bitonic
networks and routing networks run, at which sizes.  That schedule — exposed
as :attr:`VectorMultiwayStats.schedule` — is a function of the input sizes
and, by default, the (deliberately revealed) intermediate sizes, the same
leakage profile as the traced cascade's access trace.  Under
``padding="bounded"|"worst_case"`` every step runs at its public bound
instead (:mod:`repro.core.padding`), so the schedule depends on input sizes
and bounds only; the stats then record the *padded* step sizes — the
adversary's view — while the returned ``intermediate_sizes`` stay the true,
client-side ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.multiway import MultiwayResult, cascade, checked_cascade_bounds
from ..core.padding import check_padding
from ..core.stats import PhaseStats
from .join import vector_oblivious_join
from .sort import vector_bitonic_sort


@dataclass
class VectorMultiwayStats:
    """Per-step vector-join stats for one cascade run."""

    step_stats: list[PhaseStats] = field(default_factory=list)
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
    def schedule(self) -> tuple[tuple[int, str, int], ...]:
        """The cascade's primitive schedule: ``(step, phase, comparators)``.

        Fully determined by the public sizes ``(n_0..n_k, m_1..m_k)`` — the
        obliviousness tests assert this tuple is identical across same-shape
        inputs with different data.
        """
        return tuple(
            (step, phase, count)
            for step, stats in enumerate(self.step_stats)
            for phase, count in stats.schedule
        )


def vector_multiway_join(
    tables: list[list[tuple]],
    keys: list[tuple[int, int]],
    stats: VectorMultiwayStats | None = None,
    padding: str | None = None,
    bound=None,
    sort=vector_bitonic_sort,
) -> MultiwayResult:
    """Vectorised left-deep cascade, the ``vector`` engine's
    ``multiway_join``; same contract as the ``traced`` engine's.

    ``tables`` / ``keys`` follow
    :func:`repro.core.multiway.oblivious_multiway_join`; rows may carry
    arbitrary payloads as long as the key columns are ints.  ``padding`` /
    ``bound`` select padded execution with the same semantics (and
    bit-identical compacted rows).  ``sort`` is handed to every step's
    :func:`~repro.vector.join.vector_oblivious_join` — the sharded engine's
    cascade is this text over :func:`repro.shard.sort.sharded_sort`.
    """
    padding = check_padding(padding)
    bounds = checked_cascade_bounds(tables, keys, padding, bound)
    stats = stats if stats is not None else VectorMultiwayStats()
    stats.step_bounds = list(bounds or ())

    def run_step(left_pairs, right_pairs, target):
        handles, join_stats = vector_oblivious_join(
            left_pairs, right_pairs, target_m=target, sort=sort
        )
        stats.step_stats.append(join_stats)
        stats.intermediate_sizes.append(join_stats.m)
        return handles.tolist()

    rows, sizes = cascade(tables, keys, bounds, run_step)
    return MultiwayResult(
        rows=rows, intermediate_sizes=sizes, padding=padding, bounds=bounds
    )
