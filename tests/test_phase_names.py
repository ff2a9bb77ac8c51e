"""Every operator text's phase names, and the public sizes it records.

The per-phase records feed Table 3 (``benchmarks/bench_table3_breakdown.py``)
and name a sort's plan stage, so their keys are part of what a text
promises.  Comparator values are pinned elsewhere (``tests/test_counts.py``,
``tests/test_cascade_pin.py``, ``tests/test_plan.py``); this file pins the
key sets of ``seconds_by_phase`` and ``comparisons_by_phase`` and the sizes
``m`` / ``target`` / ``n`` / ``groups`` where a text sets them.  A vector
record is taken from the text that fills it, never built by class name.
"""

from __future__ import annotations

import pytest

from repro.core.join import oblivious_join
from repro.core.join_tree import oblivious_join_tree
from repro.core.stats import TABLE3_GROUPS, JoinCounters
from repro.shard.join import sharded_oblivious_join
from repro.vector.aggregate import vector_group_by, vector_join_aggregate
from repro.vector.join import vector_oblivious_join
from repro.vector.join_tree import vector_join_tree
from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join

LEFT = [(1, 10), (2, 20), (2, 21)]
MATCHING = [(2, 5), (3, 6)]  # m = 2
DISJOINT = [(7, 5), (8, 6)]  # m = 0

JOIN_SECONDS = {
    "augment_sort1", "fill_dimensions", "augment_sort2",
    "expand1_sort", "expand1_route", "expand2_sort", "expand2_route",
    "align_sort", "zip",
}
JOIN_COMPARISONS = JOIN_SECONDS - {"fill_dimensions", "zip"}
AUGMENT_SECONDS = {"augment_sort1", "fill_dimensions", "augment_sort2"}
AUGMENT_COMPARISONS = {"augment_sort1", "augment_sort2"}

TREE_TABLES = [[(1, 2), (2, 3)], [(2, 9)], [(1, 4)]]
TREE_EDGES = [(0, 1, 1, 0), (0, 2, 0, 0)]
TREE_PHASES = {"multiplicity", "finalize", "distribute_expand", "align_concat"}


def _keys(record):
    return set(record.seconds_by_phase), set(record.comparisons_by_phase)


def _empty_record():
    """A fresh record of the class the vector texts fill."""
    _, record = vector_oblivious_join([], [])
    assert _keys(record) == (set(), set())
    return record


@pytest.mark.parametrize(
    "right, target_m, seconds, comparisons, m",
    [
        (MATCHING, None, JOIN_SECONDS, JOIN_COMPARISONS, 2),
        (DISJOINT, None, AUGMENT_SECONDS, AUGMENT_COMPARISONS, 0),
        (MATCHING, 6, JOIN_SECONDS, JOIN_COMPARISONS, 6),
        (DISJOINT, 6, JOIN_SECONDS, JOIN_COMPARISONS, 6),
    ],
    ids=["revealed-m2", "revealed-m0", "worst_case-m2", "worst_case-m0"],
)
def test_the_vector_join_names_its_phases(right, target_m, seconds, comparisons, m):
    _, record = vector_oblivious_join(LEFT, right, target_m=target_m)
    assert _keys(record) == (seconds, comparisons)
    assert record.m == m
    _, sharded = sharded_oblivious_join(LEFT, right, shards=2, target_m=target_m)
    assert _keys(sharded) == (seconds, comparisons)
    assert sharded.m == m


def test_aggregate_and_group_by_name_their_phases():
    record = _empty_record()
    vector_join_aggregate(LEFT, MATCHING, stats=record)
    assert _keys(record) == (
        {"aggregate_sort", "scan", "aggregate_compact"},
        {"aggregate_sort", "aggregate_compact"},
    )
    assert (record.n, record.groups) == (5, 1)
    record = _empty_record()
    vector_group_by(LEFT, stats=record)
    assert _keys(record) == (
        {"groupby_sort", "scan", "groupby_compact"},
        {"groupby_sort", "groupby_compact"},
    )
    assert (record.n, record.groups) == (3, 2)


@pytest.mark.parametrize("padding, target", [(None, 1), ("worst_case", 2)])
def test_the_join_tree_names_its_phases(padding, target):
    _, record = vector_join_tree(TREE_TABLES, TREE_EDGES, padding=padding)
    assert _keys(record) == (TREE_PHASES, TREE_PHASES - {"align_concat"})
    assert (record.m, record.target) == (1, target)


def test_each_cascade_step_names_its_phases():
    stats = VectorMultiwayStats()
    vector_multiway_join([[(1, 2)], [(1, 3)], [(3, 4)]], [(0, 0), (1, 0)], stats=stats)
    # Step 0 matches one row; step 1 matches none and stops after the augment.
    assert [_keys(step) for step in stats.step_stats] == [
        (JOIN_SECONDS, JOIN_COMPARISONS),
        (AUGMENT_SECONDS, AUGMENT_COMPARISONS),
    ]
    assert [step.m for step in stats.step_stats] == [1, 0]
    assert {phase for _, phase, _ in stats.schedule} == JOIN_COMPARISONS


def test_the_traced_counters_name_their_phases():
    counters = oblivious_join(LEFT, MATCHING).counters
    assert set(counters.seconds_by_phase) == JOIN_SECONDS - {"zip"} | {"linear_passes"}
    assert set(counters.stats_by_phase) == JOIN_COMPARISONS
    counters = JoinCounters()
    oblivious_join_tree(TREE_TABLES, TREE_EDGES, counters=counters)
    assert set(counters.seconds_by_phase) == TREE_PHASES
    assert set(counters.stats_by_phase) == {"multiplicity", "distribute_expand"}


def test_every_table3_row_of_a_traced_join_has_a_runtime_share():
    """Each Table 3 group names phases the traced join times: the two
    distributions' sorts and routes are timed apart, not as one phase."""
    table = [(k % 8, k) for k in range(32)]
    rows = oblivious_join(table, table).counters.table3_rows()
    assert [label for label, _, _ in rows] == list(TABLE3_GROUPS)
    assert all(comparisons > 0 and share > 0 for _, comparisons, share in rows), rows
