"""The vectorised join engine and its insecure baseline."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.hash_join import join_multiset
from repro.core.stats import PhaseStats
from repro.errors import InputError
from repro.vector.baseline import vector_sort_merge_join
from repro.vector.join import vector_oblivious_join

from conftest import pairs_strategy


@given(left=pairs_strategy(max_rows=16), right=pairs_strategy(max_rows=16))
@settings(max_examples=60, deadline=None)
def test_vector_join_matches_oracle(left, right):
    pairs, stats = vector_oblivious_join(left, right)
    assert sorted(map(tuple, pairs.tolist())) == join_multiset(left, right)
    assert stats.m == len(pairs)


def test_empty_inputs():
    pairs, stats = vector_oblivious_join([], [])
    assert pairs.shape == (0, 2)
    assert stats.m == 0
    pairs, _ = vector_oblivious_join([(1, 1)], [])
    assert pairs.shape == (0, 2)


def test_no_match_returns_empty():
    pairs, stats = vector_oblivious_join([(1, 1)], [(2, 2)])
    assert stats.m == 0 and len(pairs) == 0


def test_stats_cover_all_sort_phases():
    _, stats = vector_oblivious_join(
        [(i % 3, i) for i in range(20)], [(i % 3, i) for i in range(20)]
    )
    for phase in (
        "augment_sort1", "augment_sort2", "expand1_sort", "expand2_sort",
        "expand1_route", "expand2_route", "align_sort", "zip",
    ):
        assert phase in stats.seconds_by_phase, phase
    assert stats.total_comparisons > 0
    assert stats.total_seconds > 0


def test_larger_scale_correctness():
    rng = np.random.default_rng(7)
    left = [(int(j), int(d)) for j, d in zip(rng.integers(0, 200, 800), rng.integers(0, 10**6, 800))]
    right = [(int(j), int(d)) for j, d in zip(rng.integers(0, 200, 800), rng.integers(0, 10**6, 800))]
    pairs, _ = vector_oblivious_join(left, right)
    assert sorted(map(tuple, pairs.tolist())) == join_multiset(left, right)


def test_malformed_input_rejected():
    with pytest.raises(InputError):
        vector_oblivious_join([(1, 2, 3)], [(1, 2)])


@given(left=pairs_strategy(max_rows=16), right=pairs_strategy(max_rows=16))
@settings(max_examples=60, deadline=None)
def test_vector_sort_merge_matches_oracle(left, right):
    pairs = vector_sort_merge_join(left, right)
    assert sorted(map(tuple, pairs.tolist())) == join_multiset(left, right)


def test_vector_sort_merge_empty():
    assert vector_sort_merge_join([], [(1, 1)]).shape == (0, 2)
    assert vector_sort_merge_join([(1, 1)], []).shape == (0, 2)


def test_vector_sort_merge_malformed():
    with pytest.raises(InputError):
        vector_sort_merge_join([(1,)], [(1, 2)])


def test_stats_dataclass_defaults():
    stats = PhaseStats()
    assert stats.total_seconds == 0.0
    assert stats.total_comparisons == 0
