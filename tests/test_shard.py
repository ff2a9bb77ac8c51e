"""Unit tests for the shard subsystem's primitives.

Partitioner (plans are functions of ``(n, k)`` only), bitonic merge
(sorted-run reassembly + comparator accounting), the executor
(pool vs inline equivalence), the sharded sort, and the sharded join's
phase accounting.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import plan_sort_comparators, sharded_sort_comparators

from repro.errors import InputError
from repro.obliv.bitonic import comparison_count, next_power_of_two
from repro.plan.compile import compile_order_by
from repro.plan.executors import (
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
    available_executors,
    check_workers,
    get_executor,
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
from repro.shard import merge as merge_module
from repro.shard import sort as sort_module
from repro.shard.sort import ROW_ID, _sort_task, sharded_sort, word_dtype, word_passes
from repro.store import InMemoryStore, StorePairs, adopt, detach_all
from repro.store.columns import write_int_column
from repro.vector.join import vector_oblivious_join
from repro.vector.relational import order_columns, vector_order_permutation
from repro.vector.sort import index_bits, vector_bitonic_sort

#: These tests pin block structure (counts, schedules, dispatches) at test
#: sizes, so every sort is cut into ``shards`` blocks however small.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")

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


def _run(values: list[int]) -> dict[str, np.ndarray]:
    """A one-word run: one int64 column, sorted ascending."""
    return {"w": np.sort(np.asarray(values, dtype=np.int64))}


WORD = [("w", True)]


@given(
    chunks=st.lists(
        st.lists(
            st.sampled_from([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max])
            | st.integers(-6, 6),
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
    merged = oblivious_merge_runs(runs, WORD, counter=counter)
    assert merged["w"].tolist() == sorted(value for chunk in chunks for value in chunk)
    # Comparator count is a pure function of the run lengths.
    assert counter[0] == merge_comparator_count([len(c) for c in chunks])


def test_merge_two_handles_empty_runs():
    a = _run([1, 3])
    empty = _run([])
    assert bitonic_merge_two(a, empty, WORD)["w"].tolist() == [1, 3]
    assert bitonic_merge_two(empty, a, WORD)["w"].tolist() == [1, 3]


def test_merge_refuses_runs_that_are_not_one_word():
    """Every sharded sort merges one-word runs; a descending key or a second
    column is refused with a typed error, not merged by another network."""
    a, b = _run([1, 3]), _run([2, 5])
    with pytest.raises(InputError, match="one-word runs"):
        bitonic_merge_two(a, b, [("w", False)])
    with pytest.raises(InputError, match="one-word runs"):
        bitonic_merge_two({**a, "v": a["w"]}, {**b, "v": b["w"]}, WORD)


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

    def map(self, task, payloads):
        for payload in payloads:
            self.shipped |= set(payload[0])
        return super().map(task, payloads)


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
    payloads; (a, b) is a total order here, so there are no ties to break.
    Two unwidthed keys are 128 bits: every block takes 3 one-word passes."""
    rng = np.random.default_rng(5)
    keys = [("a", True), ("b", False)]
    passes = 3
    for n in (0, 1, 2, 7, 16, 37):
        assert word_passes(keys, n) == passes
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
            assert counter[0] == sharded_sort_comparators(n, k, passes)
            if k == 1:
                assert counter[0] == passes * reference_counter[0]


def test_sharded_sort_ships_only_keys_and_a_row_id():
    executor = RecordingExecutor()
    table = {name: np.arange(9, dtype=np.int64) for name in ("k", "p1", "p2")}
    sharded_sort(table, [("k", False)], shards=3, executor=executor)
    assert executor.shipped == {ROW_ID}


class MapOnlyExecutor:
    """The minimal contract — a name and ``map`` — counting what it runs."""

    name = "map-only"

    def __init__(self) -> None:
        self.tasks: list[str] = []

    def map(self, task, payloads):
        self.tasks += [task.__name__] * len(payloads)
        return [task(payload) for payload in payloads]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_map_only_executor_receives_every_block_sort_and_merge(k):
    """A sort on an executor with only ``map`` hands it all ``k`` block sorts
    and all ``k - 1`` merges of each of the ``passes`` its plan compiles;
    none runs behind its back in the caller."""
    rng = np.random.default_rng(k)
    n = 37
    table, keys = order_columns([(rng.permutation(n) - 5, True)], n)
    (partition,) = compile_order_by(n, "sharded", shards=k).nodes_by_op("partition")
    executor = MapOnlyExecutor()
    got = sharded_sort(table, keys, shards=k, executor=executor)
    passes = partition.attr("passes")
    assert passes == 2
    assert sorted(executor.tasks) == sorted(
        (["_sort_task"] * k + ["merge_pair_task"] * (k - 1)) * passes
    )
    reference = vector_bitonic_sort(table, keys)
    for name in table:
        assert np.array_equal(got[name], reference[name]), name


# -- one word per row, in passes chosen by (key list, n) alone -----------------


def _shipped(table, keys, shards=3, counter=None):
    executor = RecordingExecutor()
    got = sharded_sort(table, keys, counter, shards=shards, executor=executor)
    return executor.shipped, got


def test_one_bit_over_the_budget_ships_key_columns_sorted_in_two_passes():
    """52 key bits leave 10 for the position: 1024 rows take one pass, 1025
    take 2 — the boundary is crossed with sizes, not by patching the
    constant — and both ship one word per row, never the key columns."""
    keys = [("a", True, 40), ("b", True, 12)]
    assert (word_passes(keys, 1024), word_passes(keys, 1025)) == (1, 2)
    rng = np.random.default_rng(2)
    for n, passes in ((1024, 1), (1025, 2)):
        table = {
            "a": rng.integers(0, 1 << 40, n),
            "b": rng.integers(0, 1 << 12, n),
            "payload": rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True),
        }
        counter = [0]
        seen, got = _shipped(table, keys, shards=1, counter=counter)
        assert seen == {ROW_ID}
        assert counter[0] == sharded_sort_comparators(n, 1, passes)
        reference = vector_bitonic_sort(table, keys)
        for name in table:
            assert np.array_equal(got[name], reference[name]), (n, name)


def test_descending_unwidthed_and_non_int64_keys_take_the_wide_path():
    """Descending, unwidthed and over-budget key lists ship one word per row
    like any other; a key that is not int64 is an ``InputError`` naming it,
    raised in the parent with nothing shipped."""
    n = 9
    ints = np.arange(n, dtype=np.int64)
    table = {"k": ints % 4, "p": ints}
    for keys in (
        [("k", True, 2)], [("k", False, 2)], [("k", True)], [("k", True, 2), ("p", True)]
    ):
        assert _shipped(table, keys)[0] == {ROW_ID}
    for dtype in (np.int32, np.float64, np.uint64):
        executor = RecordingExecutor()
        with pytest.raises(InputError, match=f"sort key 'k' must be int64, got {dtype.__name__}"):
            sharded_sort(
                {"k": (ints % 4).astype(dtype), "p": ints}, [("k", True, 2)],
                shards=3, executor=executor,
            )
        assert executor.shipped == set()


@pytest.mark.parametrize("bad", [-1, 4, INT64_MIN, INT64_MAX])
def test_a_column_outside_its_declared_width_is_refused_before_any_dispatch(bad):
    """A packed word never overflows silently: one value outside
    ``[0, 2**bits)``, wherever it sits, is an ``InputError`` raised in the
    parent with nothing shipped."""
    for position in (0, 4, 8):
        column = np.arange(9, dtype=np.int64) % 4
        column[position] = bad
        executor = RecordingExecutor()
        with pytest.raises(InputError, match=r"'k' outside its declared \[0, 2\*\*2\)"):
            sharded_sort(
                {"k": column, "p": column}, [("k", True, 2)], shards=3, executor=executor
            )
        assert executor.shipped == set()


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(ShuffleExecutor(seed=4), id="shuffle"),
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
def test_the_packed_path_is_a_stable_sort(executor):
    """Ties keep input order (the row id is the word's low field) for every
    shard count, and every column — keys included — is gathered once."""
    rng = np.random.default_rng(9)
    keys = [("a", True, 1), ("b", True, 2)]
    for n in (0, 1, 2, 7, 16, 37, 100):
        table = {
            "a": rng.integers(0, 2, n),
            "b": rng.integers(0, 3, n),
            "payload": np.arange(n, dtype=np.int64) * -7,
        }
        order = np.lexsort((table["b"], table["a"]))  # stable
        for k in (1, 2, 3, 5):
            counter = [0]
            got = sharded_sort(table, keys, counter, shards=k, executor=executor)
            assert list(got) == list(table)
            for name in table:
                assert np.array_equal(got[name], table[name][order]), (n, k, name)
            assert counter[0] == sharded_sort_comparators(n, k)


def test_sorting_an_empty_table_returns_an_empty_table():
    assert sharded_sort({}, [("k", True)], shards=2, executor=InlineExecutor()) == {}


# -- key lists wider than one word: several passes --------------------------

#: Substrates for the tests below: every registered executor, or the
#: REPRO_EXECUTORS subset (the CI matrix runs this file once per substrate).
EXECUTORS = [
    name
    for name in available_executors()
    if name
    in os.environ.get("REPRO_EXECUTORS", ",".join(available_executors())).split(",")
]

#: Algorithm 1's first sort: 64 + 2 + 64 = 130 key bits.
SORT1_KEYS = [("j", True), ("tid", True, 2), ("d", True)]


def _lexsort(table, keys):
    """The stable oracle; ``~`` reverses an int64 order without overflow."""
    return np.lexsort(
        [table[name] if ascending else ~table[name] for name, ascending, *_ in reversed(keys)]
    )


# -- the word's width: uint32 where the key bits and the position fit 32 -----


def _recording_word_dtypes(monkeypatch):
    """The word dtype of every block sort's and every merge's payload."""
    seen = {"_sort_task": [], "merge_pair_task": []}
    sort_task, merge_task = sort_module._sort_task, merge_module.merge_pair_task

    def sorting(payload):
        seen["_sort_task"].append(payload[0][ROW_ID].dtype)
        return sort_task(payload)

    def merging(payload):
        seen["merge_pair_task"] += [payload[0][ROW_ID].dtype, payload[1][ROW_ID].dtype]
        return merge_task(payload)

    monkeypatch.setattr(sort_module, "_sort_task", sorting)
    monkeypatch.setattr(merge_module, "merge_pair_task", merging)
    return seen


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("word_bits,dtype", [(32, np.uint32), (33, np.int64)])
def test_a_word_ships_as_uint32_exactly_when_it_fits_32_bits(
    monkeypatch, executor, word_bits, dtype
):
    """Key bits plus ``index_bits(n)`` = 32 ship uint32 words, 33 int64 —
    one pass either way, crossed with widths, not by patching a constant.
    Blocks and merges alike carry that dtype, and the rows, heavy ties and
    the width's extremes included, are the stable order: ``vector``'s with
    the input position as a last key."""
    n = 1000
    keys = [("a", True, word_bits - index_bits(n) - 4), ("b", False, 4)]
    assert word_dtype(keys, n) == dtype and word_passes(keys, n) == 1
    rng = np.random.default_rng(word_bits)
    top = (1 << keys[0][2]) - 1
    table = {
        "a": rng.choice([0, 1, top - 1, top], n),
        "b": rng.choice([0, 7, 15], n),
        "payload": np.arange(n, dtype=np.int64),
    }
    reference = vector_bitonic_sort(table, keys + [("payload", True)])
    seen = _recording_word_dtypes(monkeypatch)
    substrate = get_executor(executor, workers=2)
    for k in (1, 3):
        counter = [0]
        got = sharded_sort(table, keys, counter, shards=k, executor=substrate)
        for name in table:
            assert np.array_equal(got[name], reference[name]), (k, name)
        assert np.array_equal(got["payload"], _lexsort(table, keys))
        assert counter[0] == sharded_sort_comparators(n, k)
    assert len(seen["_sort_task"]) == 1 + 3 and len(seen["merge_pair_task"]) == 2 * 2
    assert {*seen["_sort_task"], *seen["merge_pair_task"]} == {np.dtype(dtype)}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_real_uint32_word_equal_to_the_pad_sorts_right(k):
    """At a power-of-two ``n`` with every key all ones, the last row's word is
    ``digit ‖ position`` = 2**32 - 1, the uint32 pad itself: the block
    networks and the merges pad with it, and the sort stays the identity."""
    n = 1024
    keys = [("a", True, 32 - index_bits(n))]
    assert word_dtype(keys, n) == np.uint32
    table = {"a": np.full(n, (1 << keys[0][2]) - 1), "payload": np.arange(n, dtype=np.int64)}
    counter = [0]
    got = sharded_sort(table, keys, counter, shards=k, executor=InlineExecutor())
    for name in table:
        assert np.array_equal(got[name], table[name]), name
    assert counter[0] == sharded_sort_comparators(n, k)


def test_word_passes_is_a_pure_function_of_the_key_list_and_rows():
    """Handed no column, it can read no value: digits of ``62 - ceil(log2
    rows)`` bits over the declared widths, 64 bits per unwidthed key."""
    assert list(inspect.signature(word_passes).parameters) == ["keys", "rows"]
    assert word_passes(SORT1_KEYS, 1 << 18) == 3  # 44-bit digits
    assert word_passes(SORT1_KEYS, (1 << 18) + 1) == 4  # 43-bit digits
    assert word_passes(SORT1_KEYS, 0) == word_passes(SORT1_KEYS, 1) == 3
    assert word_passes([("nowhere", False)], 8) == 2
    assert word_passes([("a", True, 0)], 8) == word_passes([], 8) == 1
    # One pass exactly when the widths fit one word beside the position.
    for keys, n in (([("tid", True, 17)], 1 << 45), ([("a", True, 40), ("b", True, 12)], 1024)):
        assert {word_passes(keys, rows) for rows in (0, 1, 2, n // 3, n)} == {1}
        assert word_passes(keys, n + 1) == 2


@pytest.mark.parametrize("bad", [-1, 4, INT64_MIN, INT64_MAX])
def test_a_broken_width_beside_an_unwidthed_key_is_refused_before_any_dispatch(bad):
    """A key list of several passes packs its digits by the declared widths
    too, so it checks them in the parent exactly as a one-pass list does."""
    column = np.arange(9, dtype=np.int64) % 4
    column[4] = bad
    executor = RecordingExecutor()
    with pytest.raises(InputError, match=r"'k' outside its declared \[0, 2\*\*2\)"):
        sharded_sort(
            {"j": column * -7, "k": column}, [("j", True), ("k", True, 2)],
            shards=3, executor=executor,
        )
    assert executor.shipped == set()


def _local_sort_cases(rows, rng):
    """Key lists over ``rows`` rows: random, all-equal and one giant group."""
    for case in ("random", "all-equal", "giant"):
        keys, table = [], {}
        for index in range(int(rng.integers(1, 4))):
            width = int(rng.integers(0, 30)) if rng.integers(0, 2) else None
            high = 1 << width if width is not None else None
            if case == "all-equal":
                column = np.full(rows, 0 if high is None else high - 1, dtype=np.int64)
            elif high is None:
                column = rng.choice([INT64_MIN, -1, 0, 1, INT64_MAX], rows)
                column[: rows // 2] = rng.integers(INT64_MIN, INT64_MAX, rows // 2)
            else:
                column = rng.integers(0, high, rows) if high > 1 else np.zeros(rows, np.int64)
            if case == "giant":
                column[: rows - rows // 10] = column[0] if rows else 0
            name = f"k{index}"
            keys.append((name, bool(rng.integers(0, 2))) + (() if width is None else (width,)))
            table[name] = column.astype(np.int64)
        yield case, keys, table


def test_the_local_sort_is_the_stable_lexsort_permutation():
    """``sharded_sort``'s one-word passes equal ``np.lexsort`` — ties in
    input order — and count ``passes`` times the blocks' networks plus the
    merges; ``_sort_task`` orders a padded block's real words only."""
    rng = np.random.default_rng(13)
    sizes = list(range(131)) + [(1 << k) + d for k in range(8, 13) for d in (-1, 1)]
    for rows in sizes:
        for case, keys, table in _local_sort_cases(rows, rng):
            table["payload"] = np.arange(rows, dtype=np.int64)
            for k in (1, 3):
                counter = [0]
                got = sharded_sort(table, keys, counter, shards=k, executor=InlineExecutor())
                assert got["payload"].tolist() == _lexsort(table, keys).tolist(), (rows, case, keys)
                assert counter[0] == sharded_sort_comparators(rows, k, word_passes(keys, rows))
    words = rng.integers(0, 1 << 62, 37)
    run, count = _sort_task(({ROW_ID: np.concatenate([words, np.zeros(3, np.int64)])}, 37))
    assert run[ROW_ID].tolist() == sorted(words.tolist())
    assert count == comparison_count(next_power_of_two(37))


def _digit_edges(rows):
    """int64 extremes and the values around every digit boundary of sort 1's
    ``d`` (bits 0–63) and ``j`` (bits 66–129) at this sort size."""
    digit = 62 - max(rows - 1, 0).bit_length()
    edges = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX}
    for bit in (47, 48, digit, 2 * digit - 66, 3 * digit - 66):
        if 0 < bit < 63:
            edges |= {sign * ((1 << bit) + d) for sign in (1, -1) for d in (-1, 0, 1)}
    return np.array(sorted(edges), dtype=np.int64)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_sort_one_orders_int64_extremes_and_digit_boundaries(executor):
    """Straight through ``sharded_sort``: ``j`` and ``d`` at ``INT64_MIN``,
    -1, 0, ``INT64_MAX`` and either side of every digit boundary (±2^47,
    ±2^48 and the sort's own) sort equal to the stable ``np.lexsort`` — the
    payload too, heavy ties and all, at every shard count."""
    rng = np.random.default_rng(17)
    substrate = get_executor(executor, workers=2)
    for n, choices in ((100, (1, 2, 3, 4)), (16384, (1, 2))):
        for k in choices:
            edges = _digit_edges(n)
            table = {
                "j": rng.choice(edges, n),
                "tid": rng.integers(1, 3, n),
                "d": rng.choice(edges, n),
                "payload": np.arange(n, dtype=np.int64),
            }
            order = _lexsort(table, SORT1_KEYS)
            counter = [0]
            got = sharded_sort(table, SORT1_KEYS, counter, shards=k, executor=substrate)
            for name in table:
                assert np.array_equal(got[name], table[name][order]), (n, k, name)
            assert counter[0] == sharded_sort_comparators(n, k, passes=3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_heavy_ties_keep_input_order_at_every_shard_count(k):
    """Every sharded sort is stable: 4 096 rows over a handful of key values
    — one pass or three, ascending or descending, widthed or not — come
    back in ``np.lexsort`` order, payload included."""
    rng = np.random.default_rng(k)
    n = 4096
    table = {
        "j": rng.choice([INT64_MIN, -1, 0, INT64_MAX], n),
        "tid": rng.integers(0, 3, n),
        "d": rng.integers(0, 2, n),
        "payload": np.arange(n, dtype=np.int64),
    }
    for keys in (
        SORT1_KEYS, [("tid", False, 2)], [("tid", True, 2), ("d", False)], [("j", False)]
    ):
        got = sharded_sort(table, keys, shards=k, executor=InlineExecutor())
        order = _lexsort(table, keys)
        for name in table:
            assert np.array_equal(got[name], table[name][order]), (keys, name)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_sharded_order_by_equals_vector_on_every_substrate(data):
    """ORDER BY on the one-word passes: duplicates, int64 extremes, mixed
    directions, 1–4 shards — the ``vector`` permutation on every substrate."""
    n = data.draw(st.integers(0, 40))
    values = st.sampled_from([INT64_MIN, -1, 0, 1, INT64_MAX]) | st.integers(
        INT64_MIN, INT64_MAX
    )
    columns = [
        (data.draw(st.lists(values, min_size=n, max_size=n)), data.draw(st.booleans()))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    shards = data.draw(st.integers(1, 4))
    expected = vector_order_permutation(columns, n)
    for executor in EXECUTORS:
        sort = partial(
            sharded_sort, shards=shards, executor=get_executor(executor, workers=2)
        )
        got = vector_order_permutation(columns, n, sort=sort)
        assert got == expected, (executor, shards)


def test_a_one_key_order_by_takes_two_passes_as_its_plan_says():
    """The position carries ``ceil(log2 n)`` bits, so one int64 key plus the
    position is 78 bits at 2^14 rows: 2 passes of 49-bit digits, not 3."""
    n, k = 1 << 14, 2
    plan = compile_order_by(n, "sharded", shards=k)
    assert [node.attr("passes") for node in plan.nodes_by_op("partition")] == [2]
    rng = np.random.default_rng(3)
    table, keys = order_columns([(rng.integers(INT64_MIN, INT64_MAX, n), False)], n)
    counter = [0]
    sharded_sort(table, keys, counter, shards=k, executor=InlineExecutor())
    assert counter[0] == plan_sort_comparators(plan, "order")
    two_keys = compile_order_by(n, "sharded", shards=k, columns=2)
    assert [node.attr("passes") for node in two_keys.nodes_by_op("partition")] == [3]


# -- the benchmark shapes: schedule pinned ----------------------------------

_SORT_16K = {"augment": 1966080, "expand": 860160, "route": 212993}
_SORT_512 = {"augment": 67584, "expand": 28160, "route": 9217}


def _phases(sizes, sort1):
    return {
        "augment_sort1": sort1, "augment_sort2": sizes["augment"],
        "expand1_sort": sizes["expand"], "expand2_sort": sizes["expand"],
        "expand1_route": sizes["route"], "expand2_route": sizes["route"],
        "align_sort": sizes["expand"],
    }


#: shape -> (sharded_oblivious_join options, comparators per phase, plan
#: digest, store block bytes).  Sort 1 runs 3 one-word passes of the whole
#: sharded sort, each the packed sort 2's network and merges: 3 x 1 966 080
#: = 5 898 240 at both 16 384-row shapes (k = 2 and k = 4 alike) and
#: 3 x 67 584 = 202 752 at 512 rows.  The parent commit (88b8e9d) ran the
#: passes inside each block and merged once with the masked-swap merge:
#: 5 406 720 / 180 224 / 4 947 968.  Every other phase is the parent's.  The
#: digests are of plan format 12, every sort cut into ``shards`` blocks (the
#: tests' ``blocks_at_any_size``); at the two revealed-size shapes an m-sized
#: sort shows a ``k=None`` partition and no blocks.
BENCHMARK_SHAPES = {
    "join_sharded_pool": (
        {"shards": 2}, _phases(_SORT_16K, 3 * _SORT_16K["augment"]),
        "bc272b053cd1e1072eee9295de06c4e2f503cc386001788346383b3c42ce4638", None,
    ),
    "join_sharded_bounded": (
        {"shards": 2, "target_m": 1024}, _phases(_SORT_512, 3 * _SORT_512["augment"]),
        "452118d72fa523a6e28f5a7abfb3d3023deabd2666c775bf52f1a60b4ce166a2", None,
    ),
    "store_paged_join": (
        {"shards": 4}, _phases(_SORT_16K, 3 * _SORT_16K["augment"]),
        "158cf87cf8ef1b9ec0aa9d1b90af88890d2c9c18cf88299eaf02e3fadf58f811", 4096,
    ),
}

#: The same plans' digests at earlier commits: at 9e4030f (plan format 12),
#: the bytes with every sort shown in ``shards`` blocks, a revealed-size one
#: too; at 88b8e9d (plan format 11), from those,
#: the bytes with each partition's ``passes`` moved back onto its
#: ``shard_sort`` nodes (the same value at these shapes); at 3aaff8a (format 10),
#: 6442b2c (format 9) and 1dc4b94 (format 8), the bytes with only the
#: format tag set back; at 642a1cd (format 7), with every ``shard_sort``
#: node's ``passes`` removed as well.
PARENT_PLAN_DIGESTS = {
    "join_sharded_pool": (
        "0f8e4a5fed4369a16eb174a75cf4517ed223f4ca249d0aa6112bdd198dee0fa8",
        "b7174cf096b458df919ab200bb662a3c94bbda1272779e7ac8a6b3dd5718aa7e",
        "91503f7ed3bdc06289bfa0bf68608def0294a1d0bb4e80f8a465086bb59bc20d",
        "97b53e399cb91bec206881e13ae771cc85c58e2dac964b77426024c165d5ec04",
        "107f180c6f3defec056d1c02f0dd85212215cbbdc5d2c648d9e9136838d90320",
        "45908fde4feae3729dd86ee9da3e7a39062908bcf21158b3805b80653118b161",
    ),
    "join_sharded_bounded": (
        "452118d72fa523a6e28f5a7abfb3d3023deabd2666c775bf52f1a60b4ce166a2",
        "e79bd026512fe836513030d8df45598ee4953dd4c045b286bf06d8e412e8c974",
        "07b6aa42142c37eb207b33cbb2cbf7b140e5fa6914f42f39eaa3fcd7ce591dca",
        "f9886b598b4702cee823b856b422b006102b725ab87933e7e5b49a7ff1de548a",
        "638297776b7f3a4a999a3af506633ff0f0201134c29e071318c6643841cdf861",
        "a620e846961ae8f06fbfe574445689f129ac9e6cfca355ddd5728adba720c05f",
    ),
    "store_paged_join": (
        "75310f702330b412fd31d19a3c34227e98b70dd7707a88da9ceb5d69f25caa2a",
        "6bdb2a4a6d53c843c70a47f2b8094b288c79a3f73eb139bf5b925d460e6ed8b1",
        "eb73e3ade15e3055d02e4a7026cbd6658d25694c53d2b3fddc38f2441af3b724",
        "eb9407218bc2eee5152278599edb37162487a589dfc66c9e9484539f6aad16d5",
        "4ee813f12f59416a88fc00d50fb9542d1506b40243c87471d92b86e6dea532f4",
        "15558eb3fd47055d4a25ae67dcc4300d4fc6efe8c4b607eabaeb3245ed0d71b3",
    ),
}


def _benchmark_datasets(shape: str):
    """Adversarially different ``(left, right)`` inputs of one public shape
    (same ``n1, n2`` and — where it is revealed — same ``m``)."""
    rng = np.random.default_rng(31)
    n, side = (512, 32) if shape == "join_sharded_bounded" else (16384, 128)
    payload = rng.integers(0, 1 << 40, n)
    one_to_one = (
        np.stack([rng.permutation(n), payload], axis=1),
        np.stack([rng.permutation(n), payload[::-1]], axis=1),
    )
    # One side x side group holding every output row; nothing else matches,
    # keys reach down to the int64 minimum, payloads are all equal.
    lone = np.arange(n - side, dtype=np.int64)
    giant = (
        np.stack([np.concatenate([np.zeros(side, np.int64), INT64_MIN + lone]),
                  np.zeros(n, np.int64)], axis=1),
        np.stack([np.concatenate([1 + lone, np.zeros(side, np.int64)]),
                  np.full(n, 7, np.int64)], axis=1),
    )
    datasets = [one_to_one, giant]
    if shape == "join_sharded_bounded":  # m is hidden: vary it too (768, 1024, 0)
        repeated = np.concatenate([np.arange(n - n // 4), np.arange(n // 4)])
        datasets.append((
            np.stack([rng.permutation(repeated), np.arange(n)], axis=1),
            np.stack([rng.permutation(repeated), np.arange(n)], axis=1),
        ))
        datasets.append((one_to_one[0], one_to_one[1] + [[n, 0]]))
    return datasets


@functools.lru_cache(maxsize=None)
def benchmark_shape_runs(shape: str):
    """``[(pairs, stats, vector pairs)]`` per dataset of a benchmark shape."""
    options, _, _, block_bytes = BENCHMARK_SHAPES[shape]
    runs = []
    for left, right in _benchmark_datasets(shape):
        sides = (left, right)
        if block_bytes is not None:
            store = InMemoryStore(block_bytes, b"shape-test-key-0")
            for tag, table in zip("LR", sides):
                write_int_column(store, f"{tag}/j", table[:, 0])
                write_int_column(store, f"{tag}/d", table[:, 1])
            store.flush()
            spec = adopt(store, cache_bytes=1 << 16)
            sides = tuple(StorePairs(spec, len(left), f"{t}/j", f"{t}/d") for t in "LR")
        pairs, stats = sharded_oblivious_join(*sides, **options)
        detach_all()
        expected, _ = vector_oblivious_join(left, right, target_m=options.get("target_m"))
        runs.append((pairs, stats, expected))
    return runs


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_benchmark_shapes_keep_the_parent_commits_schedule(shape):
    """Only sort 1 moved: ``stats.schedule`` and ``stats.comparisons_by_phase``
    are the pinned values — the parent commit's for every phase but
    ``augment_sort1``, whose count is the one its plan's ``passes`` imply,
    three times sort 2's —
    the same on adversarially different data of one shape, and the rows are
    the ``vector`` engine's."""
    options, phases, _, _ = BENCHMARK_SHAPES[shape]
    for pairs, stats, expected in benchmark_shape_runs(shape):
        assert stats.comparisons_by_phase == phases
        assert stats.schedule == (options["shards"], tuple(sorted(phases.items())))
        assert phases["augment_sort1"] == plan_sort_comparators(stats.plan, "augment_sort1")
        assert np.array_equal(pairs, expected)


def test_comparator_work_does_not_depend_on_the_shard_count():
    """At n1 = n2 = 2^14 every phase counts the same comparators at k = 1, 2
    and 4: each pass of a sort is one bitonic network over its 2^15 rows,
    however it is cut — sort 1 three of them."""
    left, right = _benchmark_datasets("join_sharded_pool")[0]
    phases = {
        k: sharded_oblivious_join(left, right, shards=k)[1].comparisons_by_phase
        for k in (1, 2, 4)
    }
    assert phases[1] == phases[2] == phases[4]
    assert phases[1]["augment_sort1"] == 3 * phases[1]["augment_sort2"] == 5898240
    assert sum(phases[1].values()) == 10870786


def test_merge_two_keeps_zero_padding_out_of_extreme_runs():
    """The merge network pads with ``int64`` max: it sorts after every real
    word, ties harmlessly with a real ``INT64_MAX`` and never displaces a
    negative one."""
    a = {"w": np.array([INT64_MIN, -5, INT64_MAX], dtype=np.int64)}
    b = {"w": np.array([-7, INT64_MAX], dtype=np.int64)}
    merged = bitonic_merge_two(a, b, WORD)  # 5 rows in 8
    assert merged["w"].tolist() == [INT64_MIN, -7, -5, INT64_MAX, INT64_MAX]


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
