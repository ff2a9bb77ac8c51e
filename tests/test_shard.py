"""Unit tests for the shard subsystem's primitives.

Partitioner (plans are functions of ``(n, k)`` only), bitonic merge
(sorted-run reassembly + comparator accounting), the executor
(pool vs inline equivalence), the sharded sort, and the sharded join's
phase accounting.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import sharded_sort_comparators

from repro.errors import InputError
from repro.plan.executors import (
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
    check_workers,
    resolve_executor,
)
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.shard.merge import (
    bitonic_merge_two,
    merge_comparator_count,
    oblivious_merge_runs,
)
from repro.shard.partition import (
    partition_pairs,
    partition_plan,
    shard_capacity,
    shard_counts,
)
from repro.shard.sort import ROW_ID, sharded_sort
from repro.vector.join import vector_oblivious_join
from repro.vector.sort import vector_bitonic_sort

# -- partitioner -------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(0, 1), (0, 3), (1, 1), (7, 3), (8, 4), (5, 8)])
def test_partition_plan_shapes(n, k):
    capacity, counts = partition_plan(n, k)
    assert len(counts) == k
    assert sum(counts) == n
    assert capacity == -(-n // k)
    assert all(count <= capacity for count in counts)
    # Counts differ by at most one: "k equal shards".
    assert max(counts) - min(counts) <= 1


def test_partition_plan_is_data_independent():
    # Any two same-size tables — identical plan, whatever the data.
    assert partition_plan(10, 3) == (4, (4, 3, 3))
    uniform = partition_pairs([(i, i) for i in range(10)], 3)
    skewed = partition_pairs([(0, 7)] * 10, 3)
    assert [p.real for p in uniform] == [p.real for p in skewed] == [4, 3, 3]
    assert [p.capacity for p in uniform] == [p.capacity for p in skewed] == [4, 4, 4]


def test_partition_is_positional_and_padded():
    parts = partition_pairs([(i, 10 * i) for i in range(5)], 2)
    assert parts[0].rows().tolist() == [[0, 0], [1, 10], [2, 20]]
    assert parts[1].rows().tolist() == [[3, 30], [4, 40]]
    # Padding cells exist and are zero (uniform message shape).
    assert parts[1].j.tolist() == [3, 4, 0]
    assert parts[1].d.tolist() == [30, 40, 0]


def test_partition_validates_inputs():
    with pytest.raises(InputError):
        shard_counts(4, 0)
    with pytest.raises(InputError):
        shard_capacity(-1, 2)
    with pytest.raises(InputError):
        partition_pairs([(1, 2, 3)], 2)


# -- oblivious merge ---------------------------------------------------------


def _run(values: list[tuple[int, int]]) -> dict[str, np.ndarray]:
    array = np.asarray(sorted(values), dtype=np.int64).reshape(len(values), 2)
    return {"a": array[:, 0].copy(), "b": array[:, 1].copy()}


@given(
    chunks=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=12,
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_merge_tournament_equals_global_sort(chunks):
    runs = [_run(chunk) for chunk in chunks]
    counter = [0]
    merged = oblivious_merge_runs(runs, [("a", True), ("b", True)], counter=counter)
    expected = sorted(pair for chunk in chunks for pair in chunk)
    got = list(zip(merged["a"].tolist(), merged["b"].tolist()))
    assert got == expected
    # Comparator count is a pure function of the run lengths.
    assert counter[0] == merge_comparator_count([len(c) for c in chunks])


def test_merge_two_handles_empty_runs():
    a = _run([(1, 1), (3, 3)])
    empty = _run([])
    assert bitonic_merge_two(a, empty, [("a", True)])["a"].tolist() == [1, 3]
    assert bitonic_merge_two(empty, a, [("a", True)])["a"].tolist() == [1, 3]


def test_merge_respects_descending_keys():
    a = _run([(1, 0), (3, 0)])
    b = _run([(2, 0), (5, 0)])
    for run in (a, b):
        run["a"] = run["a"][::-1].copy()
    merged = bitonic_merge_two(a, b, [("a", False)])
    assert merged["a"].tolist() == [5, 3, 2, 1]


# -- executor ----------------------------------------------------------------


def _double(x):
    return x * 2


def _default_map(payloads, workers):
    return resolve_executor(None, workers=workers).map(_double, payloads)


def test_default_executors_inline_and_pool_agree():
    payloads = list(range(6))
    inline = _default_map(payloads, workers=1)
    pooled = _default_map(payloads, workers=2)
    assert inline == pooled == [0, 2, 4, 6, 8, 10]


def test_default_executor_preserves_payload_order():
    assert _default_map([3, 1, 2], workers=1) == [6, 2, 4]


def test_worker_validation():
    with pytest.raises(InputError):
        check_workers(0)
    with pytest.raises(InputError):
        _default_map([1], workers=-1)


# -- the sharded sort ---------------------------------------------------------

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


class RecordingExecutor(InlineExecutor):
    """Inline, recording the column names of every dispatched payload."""

    def __init__(self) -> None:
        super().__init__()
        self.shipped: set[str] = set()

    def imap(self, task, payloads):
        for payload in payloads:
            self.shipped |= set(payload[0])
        return super().imap(task, payloads)


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(ShuffleExecutor(seed=3), id="shuffle"),
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
def test_sharded_sort_equals_the_single_process_sort(executor):
    """Same rows, same comparator formula, at int64 extremes and negative
    payloads; (a, b) is a total order here, so there are no ties to break."""
    rng = np.random.default_rng(5)
    keys = [("a", True), ("b", False)]
    for n in (0, 1, 2, 7, 16, 37):
        table = {
            "a": rng.choice([INT64_MIN, -1, 0, 1, INT64_MAX], n),
            "b": rng.permutation(n).astype(np.int64) - n // 2,
            "payload": rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True),
        }
        reference_counter = [0]
        reference = vector_bitonic_sort(table, keys, counter=reference_counter)
        for k in (1, 2, 3, 5):
            counter = [0]
            got = sharded_sort(table, keys, counter, shards=k, executor=executor)
            assert list(got) == list(table)
            for name in table:
                assert np.array_equal(got[name], reference[name]), (n, k, name)
            assert counter[0] == sharded_sort_comparators(n, k)
            if k == 1:
                assert counter[0] == reference_counter[0]


def test_sharded_sort_ships_only_keys_and_a_row_id():
    executor = RecordingExecutor()
    table = {name: np.arange(9, dtype=np.int64) for name in ("k", "p1", "p2")}
    sharded_sort(table, [("k", False)], shards=3, executor=executor)
    assert executor.shipped == {"k", ROW_ID}


def test_merge_two_keeps_zero_padding_out_of_extreme_runs():
    """The merge network pads with zero rows; flagged, they must sort after
    INT64_MAX keys and never displace negative ones."""
    a = {"k": np.array([INT64_MIN, -5, INT64_MAX], dtype=np.int64),
         "v": np.array([-1, INT64_MIN, 7], dtype=np.int64)}
    b = {"k": np.array([-7, INT64_MAX], dtype=np.int64),
         "v": np.array([INT64_MAX, -2], dtype=np.int64)}
    merged = bitonic_merge_two(a, b, [("k", True), ("v", True)])  # 5 rows in 8
    assert merged["k"].tolist() == [INT64_MIN, -7, -5, INT64_MAX, INT64_MAX]
    assert merged["v"].tolist() == [-1, INT64_MAX, INT64_MIN, -2, 7]


# -- sharded join: phase accounting partitions the wall clock ----------------


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(ShuffleExecutor(seed=1), id="shuffle"),
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
@pytest.mark.parametrize("target", [None, 7 * 6], ids=["revealed", "padded"])
def test_phase_seconds_partition_the_wall_clock_on_every_executor(
    executor, target
):
    """The accounting contract: the phase keys are the vector join's own
    (the sharded join *is* that text), every phase is non-negative, and
    their sum never exceeds the measured wall time."""
    left = [(0, v) for v in range(7)]
    right = [(0, v) for v in range(6)]
    stats = ShardedJoinStats()
    start = time.perf_counter()
    sharded_oblivious_join(
        left, right, shards=2, stats=stats, target_m=target, executor=executor
    )
    wall = time.perf_counter() - start
    assert set(stats.seconds_by_phase) == {
        "augment_sort1",
        "fill_dimensions",
        "augment_sort2",
        "expand1_sort",
        "expand1_route",
        "expand2_sort",
        "expand2_route",
        "align_sort",
        "zip",
    }
    _, vector_stats = vector_oblivious_join(left, right, target_m=target)
    assert set(vector_stats.seconds_by_phase) == set(stats.seconds_by_phase)
    assert all(seconds >= 0.0 for seconds in stats.seconds_by_phase.values())
    assert stats.total_seconds <= wall + 1e-6
