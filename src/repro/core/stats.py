"""Per-phase instrumentation of every operator text (feeds Table 3).

The paper's Table 3 breaks the algorithm's cost into four components
(initial sorts on TC, the sorts inside the two oblivious distributions, the
routing passes, and the align sort) and reports both comparison counts and
each component's share of total runtime.  :class:`PhaseStats` is the one
record every text fills: wall time and comparators per named phase, timed
through :meth:`PhaseStats.phase`.  :class:`JoinCounters` is the traced
engine's, which counts through a :class:`~repro.obliv.network.NetworkStats`
per named network.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..obliv.network import NetworkStats

#: Canonical phase names used by the join pipeline.
PHASE_AUGMENT_SORT1 = "augment_sort1"
PHASE_AUGMENT_SORT2 = "augment_sort2"
PHASE_FILL_DIMS = "fill_dimensions"
PHASE_EXPAND1_SORT = "expand1_sort"
PHASE_EXPAND1_ROUTE = "expand1_route"
PHASE_EXPAND2_SORT = "expand2_sort"
PHASE_EXPAND2_ROUTE = "expand2_route"
PHASE_ALIGN_SORT = "align_sort"
PHASE_LINEAR = "linear_passes"

#: Table 3 groupings: paper row -> contributing phases.
TABLE3_GROUPS = {
    "initial sorts on TC": (PHASE_AUGMENT_SORT1, PHASE_AUGMENT_SORT2),
    "o.d. on T1, T2 (sort)": (PHASE_EXPAND1_SORT, PHASE_EXPAND2_SORT),
    "o.d. on T1, T2 (route)": (PHASE_EXPAND1_ROUTE, PHASE_EXPAND2_ROUTE),
    "align sort on S2": (PHASE_ALIGN_SORT,),
}


@dataclass
class PhaseStats:
    """Wall time and comparator counts of one operator run, keyed by the
    phase names its plan uses, plus the public sizes the text records.

    ``m`` is a join's emitted row count (the public bound under padding),
    ``target`` a join tree's slot count, ``n`` and ``groups`` an
    aggregation's input rows and emitted groups.
    """

    seconds_by_phase: dict[str, float] = field(default_factory=dict)
    comparisons_by_phase: dict[str, int] = field(default_factory=dict)
    m: int = 0
    target: int | None = None
    n: int = 0
    groups: int = 0

    @contextmanager
    def phase(self, name: str, counted: bool = True) -> Iterator[list[int]]:
        """Time the block under ``name``; if ``counted``, also record the
        comparators its sorts add to the one-element counter it yields."""
        counter = [0]
        start = time.perf_counter()
        try:
            yield counter
        finally:
            seconds = time.perf_counter() - start
            self.seconds_by_phase[name] = self.seconds_by_phase.get(name, 0.0) + seconds
            if counted:
                self.comparisons_by_phase[name] = self.comparisons(name) + counter[0]
            self._closed()

    def _closed(self) -> None:
        """Called as each phase block closes."""

    def comparisons(self, phase: str) -> int:
        return self.comparisons_by_phase.get(phase, 0)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_phase.values())

    @property
    def total_comparisons(self) -> int:
        return sum(self.comparisons_by_phase.values())

    @property
    def schedule(self) -> tuple[tuple[str, int], ...]:
        """The primitive schedule ``(phase, comparators)`` — under padding a
        function of the public sizes only."""
        return tuple(sorted(self.comparisons_by_phase.items()))


@dataclass
class JoinCounters(PhaseStats):
    """The traced engine's record: its texts count through a
    :class:`NetworkStats` bundle per named network, not through a phase's
    counter, so ``comparisons_by_phase`` is refiled from the bundles as
    each phase block closes."""

    stats_by_phase: dict[str, NetworkStats] = field(default_factory=dict)

    def stats(self, phase: str) -> NetworkStats:
        """The (auto-created) counter bundle for ``phase``."""
        if phase not in self.stats_by_phase:
            self.stats_by_phase[phase] = NetworkStats()
        return self.stats_by_phase[phase]

    def _closed(self) -> None:
        self.comparisons_by_phase = {
            phase: bundle.comparisons for phase, bundle in self.stats_by_phase.items()
        }

    def table3_rows(self) -> list[tuple[str, int, float]]:
        """(component, comparisons, runtime share) rows in Table 3's layout."""
        total_time = self.total_seconds or 1.0
        rows = []
        for label, phases in TABLE3_GROUPS.items():
            comparisons = sum(self.comparisons(p) for p in phases)
            seconds = sum(self.seconds_by_phase.get(p, 0.0) for p in phases)
            rows.append((label, comparisons, seconds / total_time))
        return rows
