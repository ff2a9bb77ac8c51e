"""The sharded sort's merge tournament: the bracket is one pure function of
the run count, each round is one ``executor.map`` of pairwise merges, and
neither the output bits nor the comparator schedule may depend on the
substrate — pinned on the merge itself and on the drivers whose sorts run
on it.  (The file keeps the name of the streaming tournament it replaced,
so the surviving test ids do not move.)
"""

from __future__ import annotations

import random
from functools import partial

import numpy as np
import pytest
from conftest import shm_segments

from repro.engines import get_engine
from repro.errors import BoundError, InputError
from repro.plan.executors import (
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
)
from repro.plan.ir import tournament_schedule
from repro.shard.join import MERGE_KEYS, ShardedJoinStats, sharded_oblivious_join
from repro.shard.merge import merge_comparator_count, oblivious_merge_runs
from repro.shard.sort import sharded_sort
from repro.vector.join import vector_oblivious_join
from repro.vector.relational import vector_order_permutation

#: These tests race and scramble the blocks and merges of sharded sorts at
#: test sizes, so every sort is cut into ``shards`` blocks however small.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")

#: A run's one word, its own ascending key: the sharded sort's run shape.
KEYS = [("a", True)]


def _random_runs(rng, count, max_len=7):
    return [
        {"a": np.array(sorted(rng.randrange(10) for _ in range(rng.randrange(0, max_len))),
                       dtype=np.int64)}
        for _ in range(count)
    ]


# -- the public bracket (tournament_schedule) ---------------------------------


def test_schedule_pairs_in_order_and_carries_odd_tails():
    nodes = tournament_schedule(5, [3, 1, 4, 1, 5])
    # Round 1: (0,1), (2,3), carry 4; round 2: pair + carry; round 3: root.
    assert [(n.round, n.slot, n.left, n.right) for n in nodes] == [
        (1, 0, 0, 1), (1, 1, 2, 3), (1, 2, 4, None),
        (2, 0, 0, 1), (2, 1, 2, None),
        (3, 0, 0, 1),
    ]
    # A merge's output is its two runs; a carry passes its run on.
    assert [n.rows for n in nodes] == [4, 5, 5, 9, 5, 14]
    assert nodes[0].left_rows == 3 and nodes[0].right_rows == 1
    assert nodes[2].is_carry and nodes[2].left_rows == 5


def test_schedule_is_pure_in_count_and_lengths():
    assert tournament_schedule(6, [2] * 6) == tournament_schedule(6, [2] * 6)
    assert tournament_schedule(6) != tournament_schedule(7)
    assert tournament_schedule(0) == () and tournament_schedule(1, [9]) == ()
    with pytest.raises(InputError, match="run lengths"):
        tournament_schedule(3, [1, 2])
    with pytest.raises(InputError, match="non-negative"):
        tournament_schedule(-1)


# -- every substrate merges like the inline tournament ------------------------


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(None, id="no-executor"),
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(ShuffleExecutor(seed=5), id="shuffle"),
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
def test_streaming_matches_barrier_bit_for_bit(executor):
    """(The id predates the barrier merge.)  Any substrate's rounds give
    the inline tournament's run and comparator count."""
    rng = random.Random(17)
    for trial in range(12):
        runs = _random_runs(rng, rng.randrange(0, 8))
        reference_counter = [0]
        reference = oblivious_merge_runs(
            runs, KEYS, counter=reference_counter, executor=InlineExecutor()
        )
        counter = [0]
        merged = oblivious_merge_runs(runs, KEYS, counter=counter, executor=executor)
        assert sorted(merged) == sorted(reference)
        for name in reference:
            assert np.array_equal(merged[name], reference[name]), (trial, name)
        # The worker-side rounds execute the same comparator total as the
        # inline path, and both equal the pure schedule count.
        assert counter[0] == reference_counter[0]
        assert counter[0] == merge_comparator_count([len(run["a"]) for run in runs])


#: Every shuffle seed this module uses elsewhere.
SHUFFLE_SEEDS = range(6)


def test_packed_runs_merge_bit_identically_on_every_substrate():
    """One-word-per-row runs (the packed shape: a single int64 column sorted
    by itself) of unequal and zero lengths, ``int64`` max included: the
    min / max merger gives ``np.sort`` of the rows and the schedule's
    comparator count under no executor, inline, pool and every shuffle seed."""
    keys = [("_row", True)]
    rng = np.random.default_rng(23)
    executors = [None, InlineExecutor(), PoolExecutor(workers=2)]
    executors += [ShuffleExecutor(seed=seed) for seed in SHUFFLE_SEEDS]
    for lengths in ([], [0], [5], [0, 0], [3, 0, 4], [1, 8, 0, 2, 13], [7] * 8):
        runs = [{"_row": np.sort(rng.integers(0, 1 << 40, n))} for n in lengths]
        if lengths and lengths[-1]:
            runs[-1]["_row"][-1] = np.iinfo(np.int64).max
        rows = np.concatenate([run["_row"] for run in runs] + [np.zeros(0, np.int64)])
        reference = oblivious_merge_runs(runs, keys, executor=InlineExecutor())
        for executor in executors:
            counter = [0]
            merged = oblivious_merge_runs(runs, keys, counter, executor=executor)
            assert list(merged) == (["_row"] if runs else [])
            if runs:
                assert merged["_row"].tobytes() == np.sort(rows).tobytes(), lengths
                assert merged["_row"].tobytes() == reference["_row"].tobytes()
            assert counter[0] == merge_comparator_count(lengths)


class _RoundRecorder:
    """A ``map``-only executor that keeps each dispatch's run lengths."""

    name = "rounds"

    def __init__(self):
        self.rounds = []

    def map(self, task, payloads):
        payloads = list(payloads)
        self.rounds.append([(len(a["a"]), len(b["a"])) for a, b, _ in payloads])
        return [task(payload) for payload in payloads]


@pytest.mark.parametrize("count", [2, 3, 5, 7, 8])
def test_each_merge_round_is_one_map_of_its_scheduled_pairs(count):
    """The runtime walks the compiler's bracket: one ``map`` per round of
    ``tournament_schedule``, its payloads that round's non-carry pairings
    at the scheduled lengths, in slot order."""
    rng = random.Random(count)
    runs = _random_runs(rng, count, max_len=9)
    lengths = [len(run["a"]) for run in runs]
    schedule = tournament_schedule(count, lengths)
    expected = []
    for node in schedule:
        if len(expected) < node.round:
            expected.append([])
        if not node.is_carry:
            expected[-1].append((node.left_rows, node.right_rows))
    recorder = _RoundRecorder()
    merged = oblivious_merge_runs(runs, KEYS, executor=recorder)
    assert recorder.rounds == expected
    assert len(recorder.rounds) == (count - 1).bit_length()
    reference = oblivious_merge_runs(runs, KEYS)
    for name in reference:
        assert np.array_equal(merged[name], reference[name]), name


# -- execution-order independence of the full drivers ---------------------------


def _join_fixture():
    rng = random.Random(3)
    left = [(rng.randrange(6), rng.randrange(5)) for _ in range(21)]
    right = [(rng.randrange(6), rng.randrange(5)) for _ in range(19)]
    return left, right


@pytest.mark.parametrize("target", [None, 21 * 19])
def test_join_is_bit_identical_under_adversarial_completion_orders(target):
    """The acceptance pin: shuffled execution orders change nothing —
    not the output bytes, not the schedule, not the executed plan bytes."""
    left, right = _join_fixture()
    reference, _ = sharded_oblivious_join(left, right, shards=3, target_m=target)
    outputs, schedules, plans = set(), set(), set()
    for seed in range(5):
        stats = ShardedJoinStats()
        pairs, stats = sharded_oblivious_join(
            left,
            right,
            shards=3,
            stats=stats,
            target_m=target,
            executor=ShuffleExecutor(seed=seed),
        )
        outputs.add(pairs.tobytes())
        schedules.add(stats.schedule)
        plans.add(stats.plan.serialize())
    assert outputs == {reference.tobytes()}
    assert len(schedules) == 1
    assert len(plans) == 1


def test_worker_side_tournament_matches_inline_join():
    left, right = _join_fixture()
    reference, reference_stats = sharded_oblivious_join(left, right, shards=3)
    stats = ShardedJoinStats()
    pairs, stats = sharded_oblivious_join(
        left, right, shards=3, stats=stats, executor=PoolExecutor(workers=2)
    )
    assert pairs.tobytes() == reference.tobytes()
    # Same comparator counts phase by phase: the sorts and merges moved to
    # workers, the schedule did not move at all.
    assert stats.comparisons_by_phase == reference_stats.comparisons_by_phase
    assert stats.schedule == reference_stats.schedule


def test_order_permutation_streams_identically():
    rng = random.Random(11)
    values = [rng.randrange(4) for _ in range(23)]
    columns = [(values, True)]

    def order(executor):
        sort = partial(sharded_sort, shards=3, executor=executor)
        return vector_order_permutation(columns, len(values), sort=sort)

    reference = order(InlineExecutor())
    for executor in (ShuffleExecutor(seed=2), PoolExecutor(workers=2)):
        assert order(executor) == reference


def test_padded_join_streams_identically_across_substrates():
    left, right = _join_fixture()
    target = len(left) * len(right)
    expected, _ = vector_oblivious_join(left, right, target_m=target)
    for executor in ("shuffle", "pool"):
        engine = get_engine(
            "sharded", shards=2, workers=2, executor=executor, padding="worst_case"
        )
        assert engine.join(left, right).pairs == [
            tuple(pair) for pair in expected.tolist()
        ]


def test_bounded_abort_still_raises_while_merges_are_in_flight(shm_leak_guard):
    """A too-small bound aborts on every substrate, and the abort leaks no
    shared-memory run: it comes from the parent after the second augment
    sort's last merge round has returned, so no merge is in flight any
    more (under the grid design some were — hence the name)."""
    left = [(0, value) for value in range(8)]
    right = [(0, value) for value in range(8)]
    for executor in (ShuffleExecutor(seed=0), PoolExecutor(workers=2)):
        before = shm_segments()
        with pytest.raises(BoundError, match="exceeds the public padding bound"):
            sharded_oblivious_join(
                left, right, shards=2, target_m=16, executor=executor
            )
        leaked = shm_segments() - before
        assert not leaked, (executor.name, leaked)


#: Over-bound inputs at n=64, k=2, bound=96.
#: "hot": one key everywhere, true size 4096.
#: "spread": 32 two-row groups against 32 two-row groups, true size 128.
OVER_BOUND = {
    "hot": ([(0, v) for v in range(64)], [(0, v) for v in range(64)]),
    "spread": (
        [(v // 2, v) for v in range(64)],
        [(v % 32, v) for v in range(64)],
    ),
}


@pytest.mark.parametrize(
    "executor",
    [
        pytest.param(InlineExecutor(), id="inline"),
        pytest.param(PoolExecutor(workers=2), id="pool"),
    ],
)
@pytest.mark.parametrize("shape", sorted(OVER_BOUND))
def test_over_bound_cells_defer_the_abort_to_the_parent(
    shape, executor, shm_leak_guard
):
    """The abort discipline (the id predates the sort-sharded join, which
    has no cells): no worker ever sees the true size, so none can raise.
    The parent raises once, right after the augment, with the vector
    engine's text; up to that public point the aborted run's schedule is
    an in-bound run's, and the pool stays usable."""
    left, right = OVER_BOUND[shape]
    bound = 96
    with pytest.raises(BoundError) as vector_abort:
        vector_oblivious_join(left, right, target_m=bound)

    stats = ShardedJoinStats()
    with pytest.raises(BoundError) as abort:
        sharded_oblivious_join(
            left, right, shards=2, stats=stats, target_m=bound, executor=executor
        )
    assert str(abort.value) == str(vector_abort.value)

    # The next query on the same executor is an in-bound input of the same
    # shape: it succeeds, and the aborted run recorded the same schedule
    # for the two sorts it ran.
    in_bound = [(v, v) for v in range(64)]
    expected, _ = vector_oblivious_join(in_bound, in_bound, target_m=bound)
    in_bound_stats = ShardedJoinStats()
    pairs, _ = sharded_oblivious_join(
        in_bound,
        in_bound,
        shards=2,
        stats=in_bound_stats,
        target_m=bound,
        executor=executor,
    )
    assert pairs.tobytes() == expected.tobytes()
    assert set(stats.comparisons_by_phase) == {"augment_sort1", "augment_sort2"}
    for phase, count in stats.comparisons_by_phase.items():
        assert count == in_bound_stats.comparisons_by_phase[phase]
    assert stats.plan.serialize() == in_bound_stats.plan.serialize()


def test_merge_keys_are_the_documented_total_order():
    # A stub since the output tournament went: only the frozen
    # benchmarks/e2e/layers.py reads it (ROADMAP item 1(b) retires both).
    assert MERGE_KEYS == [("j", True), ("d1", True), ("d2", True)]


def test_the_streaming_seam_is_gone():
    """The sharded sort maps its blocks, then maps each merge round: no
    completion stream, deferred completion or stateful tournament is left,
    and ``map`` is the whole executor contract (names split so a grep for
    them finds only this test)."""
    import inspect

    import repro.plan as plan_package
    from repro.plan import executors
    from repro.shard import merge, sort

    for name in ("completion_" "stream", "submit_" "task", "_Imm" "ediate",
                 "_Lazy" "Call", "_Pool" "Future"):
        assert not hasattr(executors, name), name
        assert not hasattr(plan_package, name), name
        assert name not in plan_package.__all__, name
    assert not hasattr(merge, "Streaming" "Tournament")
    for executor in (InlineExecutor(), ShuffleExecutor(), PoolExecutor(workers=2)):
        for seam in ("i" "map", "sub" "mit"):
            assert not hasattr(executor, seam), (executor.name, seam)
    assert "executor" in inspect.signature(oblivious_merge_runs).parameters
    for module in (sort, merge, executors):
        text = inspect.getsource(module)
        for name in ("i" "map", "as_" "completed"):
            assert name not in text, (module.__name__, name)
