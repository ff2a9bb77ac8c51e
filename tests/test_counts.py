"""Analytic count formulas vs the instrumented implementation (Table 3)."""

import pytest

from repro.analysis.counts import (
    bitonic_comparisons_exact,
    bitonic_comparisons_paper,
    nested_loop_comparisons,
    routing_comparisons_exact,
    sort_merge_operations,
    table3_analytic,
    total_comparisons_exact,
    total_comparisons_paper,
)
from repro.core.join import oblivious_join
from repro.core.stats import TABLE3_GROUPS, JoinCounters
from repro.workloads.generators import ones_groups


def test_bitonic_exact_matches_paper_order():
    for n in (2**8, 2**12, 2**16):
        paper = bitonic_comparisons_paper(n)
        exact = bitonic_comparisons_exact(n)
        # paper formula: n log^2 n / 4; exact: n log n (log n + 1) / 4.
        assert paper <= exact <= paper * 1.3


def test_routing_count_closed_form():
    assert routing_comparisons_exact(8, 8) == (8 - 4) + (8 - 2) + (8 - 1)
    assert routing_comparisons_exact(8, 1) == 0


def test_measured_counts_match_analytic_exactly():
    """The instrumented join must agree with the analytic accounting
    comparator-for-comparator — not approximately."""
    workload = ones_groups(16, seed=3)
    counters = JoinCounters()
    result = oblivious_join(workload.left, workload.right, counters=counters)
    rows = {r.component: r.exact for r in table3_analytic(16, 16, result.m)}
    measured = {label: sum(counters.comparisons(p) for p in phases)
                for label, phases in TABLE3_GROUPS.items()}
    assert measured == rows


@pytest.mark.parametrize("n1,n2,seed", [(8, 8, 1), (12, 20, 2), (31, 9, 3)])
def test_measured_total_matches_analytic(n1, n2, seed):
    from repro.workloads.generators import uniform_random

    workload = uniform_random(n1, n2, key_space=6, seed=seed)
    counters = JoinCounters()
    result = oblivious_join(workload.left, workload.right, counters=counters)
    assert counters.total_comparisons == total_comparisons_exact(n1, n2, result.m)


def test_paper_total_near_exact_at_balanced_sizes():
    n = 2**16
    paper = total_comparisons_paper(n)
    exact = total_comparisons_exact(n // 2, n // 2, n // 2)
    assert 0.5 * paper < exact < 2.5 * paper


def test_sort_merge_operations_grow_loglinearly():
    small = sort_merge_operations(100, 100, 100)
    large = sort_merge_operations(10000, 10000, 10000)
    assert 100 < large / small < 200  # ~100x n, ~x1.? log factor


def test_nested_loop_is_quadratic():
    assert nested_loop_comparisons(100, 100) > 100 * 100
    ratio = nested_loop_comparisons(200, 200) / nested_loop_comparisons(100, 100)
    assert 3.5 < ratio < 5.0


def test_table3_rows_have_all_components():
    rows = table3_analytic(100, 100, 100)
    assert [r.component for r in rows] == [
        "initial sorts on TC",
        "o.d. on T1, T2 (sort)",
        "o.d. on T1, T2 (route)",
        "align sort on S2",
    ]
    assert all(r.exact >= 0 for r in rows)


def test_join_tree_beats_cascade_compounded_bounds():
    """PR 8's headline claim on a canonical 3-table skewed bounded query:
    the cascade pays a padding bound at *every* step (surfaced per step in
    ``stats.step_bounds``), the join tree pays one bound for the final
    output — so the tree's total padded rows and its total comparator
    count both land strictly below the cascade's, read from stats on both
    sides rather than re-derived.  Both are the ``vector`` text with its
    single-process sort: one network per sort, the algorithms' own count.
    (Over a 3-block sharded sort the tree's count is the larger: its
    slot-space sorts pad each block to a power of two and take two
    one-word passes — docs/architecture.md, "The join tree".)"""
    from repro.vector.join_tree import vector_join_tree
    from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join

    # Skewed: keys 0..2 on both wide tables, every t2 row in the heaviest
    # group — the worst shape for compounded per-step padding.
    t0 = [(i % 3, i) for i in range(12)]
    t1 = [(i % 3, i) for i in range(12)]
    t2 = [(0, i) for i in range(8)]
    tables, bound = [t0, t1, t2], 200
    padding = {"padding": "bounded", "bound": bound}

    cascade_stats = VectorMultiwayStats()
    cascade = vector_multiway_join(
        tables, [(0, 0), (0, 0)], stats=cascade_stats, **padding
    )
    tree, tree_stats = vector_join_tree(tables, [(0, 1, 0, 0), (0, 2, 0, 0)], **padding)
    # Same query, bit-equal real rows as a multiset.
    assert sorted(tree.rows) == sorted(cascade.rows)

    # Bounds: one per cascade step vs one for the whole tree.
    assert cascade_stats.step_bounds == [144, 200]
    assert cascade.total_padded_rows == sum(cascade_stats.step_bounds) == 344
    assert tree_stats.target == tree.target == bound == 200
    assert tree_stats.target < cascade.total_padded_rows

    # Comparators: every sort of either side, phase by phase.
    assert tree_stats.total_comparisons < cascade_stats.total_comparisons


def test_route_share_is_small():
    """Table 3: routing is ~3% of work at paper scale — check the analytic
    counts reproduce the orders of magnitude."""
    n1 = n2 = m = 500_000
    rows = {r.component: r.exact for r in table3_analytic(n1, n2, m)}
    total = sum(rows.values())
    assert rows["o.d. on T1, T2 (route)"] / total < 0.10
    assert rows["initial sorts on TC"] / total > 0.35
