"""The block rule: a sharded sort of ``n`` rows is cut into
``blocks(n, shards)`` blocks, never one under ``MIN_BLOCK_ROWS`` rows, and
its compiled plan shows exactly the blocks that run."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import plan_sort_comparators, sharded_sort_comparators

from repro.engines import get_engine
from repro.errors import InputError
from repro.plan import partition
from repro.plan.compile import compile_join, join_plan
from repro.plan.executors import InlineExecutor, PoolExecutor
from repro.plan.partition import MIN_BLOCK_ROWS, blocks
from repro.shard import sort as sort_module
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.shard.sort import sharded_sort


@pytest.fixture(autouse=True)
def _shipped_rule(monkeypatch):
    """The shipped threshold, whatever the pool matrix's autouse set."""
    monkeypatch.setattr(partition, "MIN_BLOCK_ROWS", MIN_BLOCK_ROWS)


def test_min_block_rows_is_two_to_the_sixteen():
    assert MIN_BLOCK_ROWS == 2**16


@pytest.mark.parametrize("shards", [2, 3, 4, 8])
def test_blocks_cap_at_shards_and_hold_min_block_rows(shards):
    assert blocks(shards * MIN_BLOCK_ROWS, shards) == shards
    assert blocks(shards * MIN_BLOCK_ROWS + 1, shards) == shards
    assert blocks(2 * MIN_BLOCK_ROWS, shards) == 2
    assert blocks(MIN_BLOCK_ROWS, shards) == 1
    assert blocks(MIN_BLOCK_ROWS - 1, shards) == 1
    assert blocks(0, shards) == 1
    assert blocks(None, shards) is None  # revealed with the size
    # Two blocks of 2**16 - 1 rows and one of 2**16 - 2 (shards=3) pad to
    # 2**17 each: more comparators than ``shards`` blocks, so it keeps them.
    assert blocks(shards * MIN_BLOCK_ROWS - 1, shards) == (1 if shards == 2 else shards)


@pytest.mark.parametrize("shards", [2, 3, 4, 8])
def test_fewer_blocks_never_count_more_comparators(shards):
    """Over sizes around powers of two and multiples of the threshold, the
    rule's blocks count no more comparators than ``shards`` blocks would,
    and hold ``MIN_BLOCK_ROWS`` rows each unless they are ``shards`` or one."""
    sizes = {0, 1, 7, 1026, MIN_BLOCK_ROWS + 1, 2**17 + 2, 3 * MIN_BLOCK_ROWS - 1}
    sizes |= {2**e + d for e in range(1, 20) for d in (-1, 0, 1, 2, 3)}
    for n in sorted(sizes):
        k = blocks(n, shards)
        assert 1 <= k <= shards
        assert sharded_sort_comparators(n, k) <= sharded_sort_comparators(n, shards), n
        assert k in (1, shards) or n // k >= MIN_BLOCK_ROWS, n


def test_just_above_a_power_of_two_a_sort_keeps_its_shards_blocks():
    """The augment sort of a padded join at ``n1 = n2 = 2**16`` has 2**17 + 2
    rows.  Two blocks of 65 537 rows would pad to two 2**17 networks,
    22 413 312 comparators; four blocks of 32 768-32 769 rows count
    16 842 752, so at ``shards=4`` the sort keeps its four blocks and counts
    exactly that."""
    n = 2**17 + 2
    assert blocks(n, 4) == 4
    assert sharded_sort_comparators(n, 2) == 22_413_312
    words = np.random.default_rng(17).permutation(n).astype(np.int64)
    counter = [0]
    out = sharded_sort({"k": words}, [("k", True, 18)], counter, shards=4,
                       executor=InlineExecutor())
    assert out["k"].tolist() == list(range(n))
    assert counter[0] == sharded_sort_comparators(n, 4) == 16_842_752
    # One block of 2**16 + 1 rows would pad to a 2**17 network as well.
    assert blocks(MIN_BLOCK_ROWS + 1, 2) == 2


class _CountingPool(PoolExecutor):
    """The thread pool, recording how many payloads each dispatch carries."""

    def __init__(self) -> None:
        super().__init__(workers=2)
        self.dispatches: list[int] = []

    def map(self, task, payloads):
        self.dispatches.append(len(payloads))
        return super().map(task, payloads)


def test_the_fallbacks_small_blocks_run_in_the_calling_thread(monkeypatch):
    """130 rows at ``shards=4`` keep four blocks (one would pad to 256), each
    under ``MIN_BLOCK_ROWS``: their sorts and merges make no multi-payload
    dispatch on the pool, and the rows and count are inline's bit for bit.
    At a zero threshold the same blocks do reach the pool."""
    n = 130
    assert blocks(n, 4) == 4
    rng = np.random.default_rng(130)
    columns = {"k": rng.integers(0, 2**20, n), "v": np.arange(n, dtype=np.int64)}
    keys = [("k", True, 20)]
    counters = [0], [0]
    expected = sharded_sort(columns, keys, counters[0], shards=4, executor=InlineExecutor())
    pool = _CountingPool()
    pooled = sharded_sort(columns, keys, counters[1], shards=4, executor=pool)
    assert all(count <= 1 for count in pool.dispatches), pool.dispatches
    for name in columns:
        np.testing.assert_array_equal(pooled[name], expected[name])
    assert counters[0] == counters[1] == [sharded_sort_comparators(n, 4)]
    monkeypatch.setattr(partition, "MIN_BLOCK_ROWS", 0)
    sharded_sort(columns, keys, shards=4, executor=pool)
    assert 4 in pool.dispatches


def test_one_shard_is_one_block_at_every_size():
    for n in (0, 1, MIN_BLOCK_ROWS - 1, MIN_BLOCK_ROWS, 2**20, None):
        assert blocks(n, 1) == 1


def test_a_zero_threshold_cuts_every_sort_into_shards_blocks(monkeypatch):
    monkeypatch.setattr(partition, "MIN_BLOCK_ROWS", 0)
    for n in (0, 1, 7, 2**17 + 2):
        assert blocks(n, 3) == 3
    assert blocks(None, 3) is None


@pytest.mark.parametrize("shards", [0, -1, True, 2.0])
def test_blocks_refuse_a_bad_shard_count(shards):
    with pytest.raises(InputError, match="shard count"):
        blocks(8, shards)


def test_seven_rows_over_three_shards_run_one_block():
    """One 7-row block is one 8-wide network: 24 comparators where three
    blocks and their merges took 32."""
    columns = {"k": np.array([5, 3, 6, 0, 2, 4, 1], dtype=np.int64)}
    counter = [0]
    out = sharded_sort(columns, [("k", True, 3)], counter, shards=3, executor=InlineExecutor())
    assert out["k"].tolist() == list(range(7))
    assert counter[0] == sharded_sort_comparators(7, 1) == 24
    assert sharded_sort_comparators(7, 3) == 32


def test_a_revealed_sort_shows_no_blocks():
    """A sort whose size is revealed at run time reveals its block count
    with it: its ``partition`` node has ``k=None`` and no block or merge
    follows it; the known-size sorts show the one block they run."""
    plan = join_plan("sharded", 8, 8, None, 4)
    for part in plan.nodes_by_op("partition"):
        stage = part.attr("stage")
        sorts = [n for n in plan.nodes_by_op("shard_sort") if n.attr("stage") == stage]
        merges = [n for n in plan.nodes_by_op("merge_pair") if n.attr("stage") == stage]
        assert not merges
        if part.attr("n") is None:
            assert part.attr("k") is None and not sorts
        else:
            assert part.attr("k") == 1 and len(sorts) == 1
    assert dict(plan.shapes)["k"] == 4  # the cap stays the plan's shape


def test_the_compiled_plan_is_the_blocks_a_join_at_two_to_the_sixteen_runs(monkeypatch):
    """At ``n1 = n2 = 2**16`` the augment sorts (2**17 + 2 rows) run two
    blocks, the expand sorts (2**16 + 1 rows) two as well (one block would
    pad to a 2**17 network), and the align sort (2**16 rows) one: every
    pass cuts the blocks its sort's ``shard_sort`` nodes name, the
    ``_sort_task`` dispatches sort blocks of their rows, each phase counts
    the comparators the plan implies, and the rows are ``vector``'s."""
    n = MIN_BLOCK_ROWS
    rng = np.random.default_rng(16)
    left = np.stack([rng.permutation(n), np.arange(n)], axis=1)
    right = np.stack([rng.permutation(n), np.arange(n)], axis=1)
    cut, tasks = [], []
    partition_columns, sort_task = sort_module.partition_columns, sort_module._sort_task

    def recording_partition(columns, k):
        cut.append(k)
        return partition_columns(columns, k)

    def recording_task(payload):
        tasks.append(payload[1])  # the block's real rows
        return sort_task(payload)

    monkeypatch.setattr(sort_module, "partition_columns", recording_partition)
    monkeypatch.setattr(sort_module, "_sort_task", recording_task)
    stats = ShardedJoinStats()
    pairs, _ = sharded_oblivious_join(left, right, shards=2, stats=stats, target_m=n)
    plan = compile_join(n, n, "sharded", shards=2, padding="bounded", bound=n)
    assert stats.plan.serialize() == plan.serialize()

    expected, block_rows = [], []
    for part in plan.nodes_by_op("partition"):
        stage = part.attr("stage")
        rows = [s.attr("rows") for s in plan.nodes_by_op("shard_sort")
                if s.attr("stage") == stage]
        assert part.attr("k") == len(rows) == (1 if stage == "align_sort" else 2)
        expected += [len(rows)] * part.attr("passes")
        block_rows += rows * part.attr("passes")
        assert stats.comparisons_by_phase[stage] == plan_sort_comparators(plan, stage)
    assert cut == expected
    assert tasks == block_rows
    np.testing.assert_array_equal(pairs, np.array(get_engine("vector").join(left, right).pairs))
