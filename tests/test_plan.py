"""The Plan IR: compilation, canonical serialization, and plan-equality
obliviousness — same public shapes ⇒ byte-identical serialized plans,
across engines, key distributions, and padding modes."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from functools import partial

import numpy as np
import pytest
from conftest import plan_sort_comparators, run_chain
from test_shard import BENCHMARK_SHAPES, PARENT_PLAN_DIGESTS, benchmark_shape_runs

from repro.cli import main
from repro.core.padding import cascade_bounds, join_bound
from repro.core.stats import PhaseStats as VectorAggregateStats
from repro.engines import available_engines, get_engine
from repro.errors import InputError
from repro.plan import (
    Plan,
    PlanBuilder,
    available_executors,
    compile_join,
    compile_multiway,
    compile_workload,
    partition_plan,
)
from repro.plan.compile import join_plan
from repro.plan.executors import InlineExecutor, get_executor
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.shard.sort import sharded_sort
from repro.vector.aggregate import vector_group_by, vector_join_aggregate
from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join
from repro.vector.relational import vector_filter_indices, vector_order_permutation

#: These tests pin block structure (counts, schedules, dispatches) at test
#: sizes, so every sort is cut into ``shards`` blocks however small.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")

#: Substrates: every registered executor, or the REPRO_EXECUTORS subset.
EXECUTORS = [
    name
    for name in available_executors()
    if name
    in os.environ.get("REPRO_EXECUTORS", ",".join(available_executors())).split(",")
]


# -- IR mechanics ------------------------------------------------------------


def test_plan_serialization_is_canonical_and_digest_stable():
    plan = join_plan("sharded", 10, 7, 70, 3)
    again = join_plan("sharded", 10, 7, 70, 3)
    assert plan == again
    assert plan.serialize() == again.serialize()
    assert plan.digest() == again.digest()
    payload = json.loads(plan.serialize())
    assert payload["workload"] == "join"
    assert payload["shapes"] == {"n1": 10, "n2": 7, "k": 3, "target": 70}


def test_plan_attrs_are_sorted_and_queryable():
    builder = PlanBuilder("join", "vector", n1=4, n2=2)
    index = builder.add("input", zeta=1, alpha=2, rows=3)
    plan = builder.build()
    node = plan.nodes[index]
    assert [name for name, _ in node.attrs] == ["alpha", "rows", "zeta"]
    assert node.attr("alpha") == 2
    assert node.attr("missing", "fallback") == "fallback"
    assert plan.shape("n1") == 4 and plan.shape("absent") is None


def test_plan_rejects_floats_and_unknown_inputs():
    builder = PlanBuilder("join", "vector")
    with pytest.raises(InputError, match="int/str/bool/None"):
        builder.add("input", rows=1.5)
    with pytest.raises(InputError, match="unknown input"):
        builder.add("zip", inputs=(3,))


def test_embed_offsets_inputs_and_tags_steps():
    inner = join_plan("sharded", 4, 4, None, 2)
    builder = PlanBuilder("multiway", "sharded", sizes=(4, 4))
    builder.add("marker")
    indices = builder.embed(inner, step=7)
    plan = builder.build()
    assert indices[0] == 1
    for index in indices:
        node = plan.nodes[index]
        assert node.attr("step") == 7
        assert all(i >= 1 for i in node.inputs)


def test_render_mentions_every_node_and_digest():
    plan = compile_join(8, 8, "vector", padding="worst_case")
    text = plan.render()
    assert plan.digest() in text
    assert text.count("\n") >= len(plan.nodes)


# -- compilers reuse the padding/partition planners --------------------------


@pytest.mark.parametrize("engine", ["traced", "vector", "sharded"])
@pytest.mark.parametrize(
    "padding,bound", [("revealed", None), ("bounded", 13), ("worst_case", None)]
)
def test_compile_join_target_matches_join_bound(engine, padding, bound):
    plan = compile_join(9, 5, engine, shards=2, padding=padding, bound=bound)
    assert plan.shape("target") == join_bound(9, 5, padding, bound)


def test_compile_multiway_bounds_match_cascade_bounds():
    sizes = [5, 4, 3]
    plan = compile_multiway(sizes, "vector", padding="worst_case")
    assert plan.shape("bounds") == cascade_bounds(sizes, "worst_case")
    capped = compile_multiway(sizes, "sharded", shards=2, padding="bounded", bound=6)
    assert capped.shape("bounds") == cascade_bounds(sizes, "bounded", 6)


#: The five sorts of Algorithm 1, by the stage name plan and stats share.
JOIN_SORTS = (
    "augment_sort1", "augment_sort2", "expand1_sort", "expand2_sort", "align_sort",
)


def _sort_sizes(n1, n2, target):
    """Rows each of the five sorts runs at under padded execution."""
    total = n1 + n2 + 2
    return dict(
        zip(JOIN_SORTS, (total, total, max(n1 + 1, target), max(n2 + 1, target), target))
    )


def _stage(plan, op, stage):
    return [node for node in plan.nodes_by_op(op) if node.attr("stage") == stage]


def test_sharded_join_plan_grid_uses_partition_counts():
    """Every block size in the plan is ``partition_plan(sort size, k)``
    (the id predates the sort-sharded join, whose plan has no grid)."""
    n1, n2, k = 10, 7, 3
    plan = join_plan("sharded", n1, n2, n1 * n2, k)
    for stage, size in _sort_sizes(n1, n2, n1 * n2).items():
        capacity, counts = partition_plan(size, k)
        (part,) = _stage(plan, "partition", stage)
        assert (part.attr("n"), part.attr("k")) == (size, k)
        assert (part.attr("capacity"), part.attr("counts")) == (capacity, counts)
        sorts = _stage(plan, "shard_sort", stage)
        assert [node.attr("shard") for node in sorts] == list(range(k))
        assert tuple(node.attr("rows") for node in sorts) == counts
    # The pipeline around the sorts is the inline engines' own.
    skeleton = [n.op for n in plan.nodes if n.op not in ("partition", "shard_sort", "merge_pair")]
    assert skeleton == [
        n.op for n in compile_join(n1, n2, "vector", target_m=n1 * n2).nodes
    ]


def test_sharded_plans_embed_the_merge_tournament_bracket():
    """Every pairwise merge of every sharded sort is a merge_pair node whose
    (round, slot, lengths) come from tournament_schedule — the same pure
    function :func:`repro.shard.merge.oblivious_merge_runs` walks."""
    from repro.plan import tournament_schedule

    n1, n2, k = 10, 7, 3

    def bracket(plan, stage):
        return [
            (p.attr("round"), p.attr("slot"), p.attr("left_rows"),
             p.attr("right_rows"), p.attr("rows"))
            for p in _stage(plan, "merge_pair", stage)
        ]

    def expected(size):
        _, counts = partition_plan(size, k)
        return [(n.round, n.slot, n.left_rows, n.right_rows, n.rows)
                for n in tournament_schedule(k, counts) if not n.is_carry]

    plan = join_plan("sharded", n1, n2, n1 * n2, k)
    for stage, size in _sort_sizes(n1, n2, n1 * n2).items():
        assert bracket(plan, stage) == expected(size)
    # Revealed mode keeps the augment sorts' brackets; an m-sized sort's
    # block count is revealed with m, so it shows a k=None partition alone.
    revealed = join_plan("sharded", n1, n2, None, k)
    for stage in JOIN_SORTS:
        (part,) = _stage(revealed, "partition", stage)
        if stage.startswith("augment"):
            assert part.attr("k") == k and bracket(revealed, stage) == expected(part.attr("n"))
        else:
            assert part.attr("k") is None and not _stage(revealed, "shard_sort", stage)
            assert not bracket(revealed, stage)
    # k = 1 is one block and no merge at all.
    assert not join_plan("sharded", n1, n2, None, 1).nodes_by_op("merge_pair")


@pytest.mark.parametrize(
    "padding,bound",
    [
        ("bounded", 3),  # below both input sizes
        ("bounded", 7),
        ("bounded", 12),  # above them, below n1 * n2
        ("worst_case", None),
    ],
)
def test_padded_grid_cells_are_bounded_by_the_public_bound(padding, bound):
    """The public-size pin (the id predates the sort-sharded join, which
    has no grid): under padding every sort size — and so every task and
    merge size — is fixed by ``(n1, n2, k, target)``; the plan bytes are
    equal across recompiles and across adversarial data of one shape, and
    the executed comparator counts are the ones the plan's sizes imply."""
    n1, n2, k = 8, 8, 3
    target = join_bound(n1, n2, padding, bound)
    plan = join_plan("sharded", n1, n2, target, k)
    sizes = _sort_sizes(n1, n2, target)
    assert {
        stage: _stage(plan, "partition", stage)[0].attr("n") for stage in JOIN_SORTS
    } == sizes
    # No op of the k x k design is left, no shape key selects a variant.
    assert {node.op for node in plan.nodes} == {
        "input", "partition", "shard_sort", "merge_pair",
        "augment", "expand", "align", "zip",
    }
    assert json.loads(plan.serialize())["shapes"] == {
        "n1": n1, "n2": n2, "k": k, "target": target,
    }
    assert plan.serialize() == join_plan("sharded", n1, n2, target, k).serialize()
    # Skewed-but-disjoint keys and DATASET_B both stay under every bound.
    disjoint = ([(0, v) for v in range(n1)], [(1, v) for v in range(n2)])
    for left, right in (DATASET_B, disjoint):
        stats = ShardedJoinStats()
        sharded_oblivious_join(left, right, shards=k, stats=stats, target_m=target)
        assert stats.plan.serialize() == plan.serialize()
        for stage in sizes:
            assert stats.comparisons_by_phase[stage] == plan_sort_comparators(plan, stage)


def test_revealed_plans_mark_runtime_sizes_as_null():
    plan = join_plan("sharded", 6, 6, None, 2)
    for op in ("expand", "align", "zip"):
        assert all(n.attr("rows") is None for n in plan.nodes_by_op(op))
    for stage in JOIN_SORTS[2:]:
        (part,) = _stage(plan, "partition", stage)
        assert part.attr("n") is None and part.attr("counts") is None
    cascade = compile_multiway([4, 4, 4], "vector", padding=None)
    assert cascade.shape("bounds") == ()


def test_compile_workload_validates_inputs():
    with pytest.raises(InputError, match="unknown workload"):
        compile_workload("scan", "vector", n=4)
    with pytest.raises(InputError, match="join plans need"):
        compile_workload("join", "vector", n1=4)
    with pytest.raises(InputError, match="multiway plans need"):
        compile_workload("multiway", "vector")
    with pytest.raises(InputError, match="no plan compiler"):
        compile_join(4, 4, "gpu")


# -- engines emit plans ------------------------------------------------------


def test_engine_compile_plan_uses_engine_configuration():
    engine = get_engine("sharded", shards=4, padding="worst_case")
    plan = engine.compile_plan("join", n1=12, n2=6)
    assert plan == compile_workload(
        "join", "sharded", n1=12, n2=6, shards=4, padding="worst_case"
    )
    assert plan.shape("k") == 4 and plan.shape("target") == 72


@pytest.mark.parametrize("engine", ["traced", "vector"])
def test_inline_engines_compile_linear_pipelines(engine):
    plan = get_engine(engine).compile_plan("join", n1=5, n2=5, padding="worst_case")
    assert plan.engine == engine
    assert [node.op for node in plan.nodes] == [
        "input", "input", "augment", "expand", "expand", "align", "zip",
    ]
    assert plan.nodes_by_op("augment")[0].attr("rows") == 12  # anchors included


#: The single-process engines' plans at the end-to-end benchmark's shapes:
#: ``(workload, compile_workload shapes, {engine: sha256 of the bytes})``.
#: The digests were computed at 537fe3a, before the two join compilers and
#: the two array engines were folded into one each.
INLINE_PLAN_DIGESTS = {
    "join": ("join", {"n1": 16384, "n2": 16384}, {
        "traced": "b825f9d4f0a2f5bcc7ed308da261a825646a0e488d5248717f16ca548f1c26b4",
        "vector": "4b7027d35316d3277b1e5449085a7a0829cecc2640f31c64cfccff8192261f37",
    }),
    "join_padded": (
        "join", {"n1": 4096, "n2": 4096, "padding": "bounded", "bound": 32768}, {
            "traced": "d3d5dedcd9a748c7e231edcc870594f642ebf524b2e68f2b4744fe5ce3395d9a",
            "vector": "cbf69bc0b21ba70e8bec29777a692b48d8a9f53efc6617982f16a366b26fbaa3",
        }),
    "multiway": (
        "multiway", {"sizes": [8192] * 3, "padding": "bounded", "bound": 16384}, {
            "traced": "bee20f8f9bd820b495ae4a8ee7bd6081b4a5ec919b9c8e3887683d8c7d0d3d91",
            "vector": "60695f5ce74448186c9c7bbf1472e2d5f30b78f9929f620f1700b90024c6bfd9",
        }),
    "join_tree": (
        "join_tree", {"sizes": [4096] * 3, "edges": [(0, 1, 0, 0), (0, 2, 1, 0)]}, {
            "traced": "8533d4d496db955607d8b4ae2129de9f36938dae1aa1ff526d93591c7220f2d5",
            "vector": "0cb4607c2c1dbc964c39fc20610d3cbd4dae6b33ac2f592d2d654b044988efe2",
        }),
    "aggregate": ("aggregate", {"n1": 4096, "n2": 4096}, {
        "traced": "9a3b9333a0c8176ba0f6a2ea6c9267f60d19945935af84e2886d64120466ee4d",
        "vector": "3bff41b1bf5f06685430d96d9c84cf9046bfa44e42a80a112b7b2ad1d4b6b55c",
    }),
    "group_by": ("group_by", {"n": 4096}, {
        "traced": "795765750a995bb991cad4ad8b74d40336330820b3597ec79f5e09a000524a11",
        "vector": "875c6f0896b2b16ababb92fa3a1fb6480a8168f54a132e912ed8bd65d255709a",
    }),
    "filter": ("filter", {"n": 4096}, {
        "traced": "d4c5834ae42de4e586f04b3b5c3aa7550c8d31889bed343ae46206bad9714d1c",
        "vector": "3b46e01f5b5d474f8d24ff5fef89acb8585184b8705399f88489968a194315d1",
    }),
    "order_by": ("order_by", {"n": 4096, "columns": 2}, {
        "traced": "cfba97ef24524990e0ef7a560d2f4ee304172ace8f5e61ed726ad85628616fc7",
        "vector": "f86401275556676c988dab3a3aed28d3ff2a3a2c4adb60a8dac7d5da024791ca",
    }),
}


@pytest.mark.parametrize("engine", ["traced", "vector"])
@pytest.mark.parametrize("case", sorted(INLINE_PLAN_DIGESTS))
def test_inline_plans_are_the_pinned_bytes(case, engine):
    """Every workload's ``traced`` and ``vector`` plan at the benchmark
    shapes hashes to the pinned digest, so no compiler refactor can move
    an inline plan's bytes unnoticed."""
    workload, shapes, digests = INLINE_PLAN_DIGESTS[case]
    plan = compile_workload(workload, engine=engine, **shapes)
    assert hashlib.sha256(plan.serialize()).hexdigest() == digests[engine]


def test_engine_compile_plan_covers_every_workload():
    engine = get_engine("sharded", shards=3, padding="worst_case")
    for workload, shapes in [
        ("join", {"n1": 6, "n2": 6}),
        ("multiway", {"sizes": [4, 4, 4]}),
        ("join_tree", {"sizes": [4, 4, 4], "edges": [(0, 1, 0, 0), (0, 2, 0, 0)]}),
        ("aggregate", {"n1": 6, "n2": 6}),
        ("group_by", {"n": 6}),
        ("filter", {"n": 6}),
        ("order_by", {"n": 6}),
    ]:
        plan = engine.compile_plan(workload, **shapes)
        assert isinstance(plan, Plan) and plan.workload == workload
        assert plan.shape("segments") is None


# -- plan-equality obliviousness ---------------------------------------------

#: Two same-shape, very differently distributed inputs (8 rows each side).
DATASET_A = (
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8)],
    [(0, 9), (0, 8), (0, 7), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)],
)
DATASET_B = (
    [(7, 1), (6, 1), (5, 1), (4, 1), (3, 1), (2, 1), (1, 1), (0, 1)],
    [(9, 0), (9, 0), (9, 0), (9, 0), (9, 0), (9, 0), (9, 0), (7, 2)],
)


def _executed_join_plan(left, right, target):
    stats = ShardedJoinStats()
    sharded_oblivious_join(left, right, shards=3, stats=stats, target_m=target)
    return stats.plan


def test_padded_join_plans_are_byte_identical_across_key_distributions():
    target = 64
    plan_a = _executed_join_plan(*DATASET_A, target)
    plan_b = _executed_join_plan(*DATASET_B, target)
    assert plan_a.serialize() == plan_b.serialize()
    # ... and identical to the plan compiled with no data in sight.
    assert plan_a.serialize() == join_plan("sharded", 8, 8, target, 3).serialize()


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_benchmark_shape_plans_are_the_parent_commits_bytes(shape, monkeypatch):
    """At the three sharded benchmark shapes the executed plan's canonical
    bytes hash to the pinned digest and are the same bytes on adversarially
    different data of one shape.  With every sort shown in ``shards``
    blocks, a revealed-size one too (as before a revealed size revealed its
    block count with it), they are the parent commit's bytes.  With each
    partition's ``passes`` moved back onto its ``shard_sort`` nodes and the
    format tag set back to 11 they are the bytes of the commit before (at
    these shapes a block's passes were its sort's), at 10 those of the
    commit before that (removing the pipeline's ops touched no join plan),
    at 9 those of the commit before (nor did removing the sharded
    aggregate's and filter's ops), at 8 the bytes of the commit before that
    (the key lists the compiler now reads from ``repro.vector.join`` are the
    ones it used to restate); without ``passes``, at format 7, the bytes
    from before the one-word passes."""
    import repro.plan.compile as compile_module

    _, _, digest, _ = BENCHMARK_SHAPES[shape]
    plans = {stats.plan.serialize() for _, stats, _ in benchmark_shape_runs(shape)}
    assert len(plans) == 1
    assert hashlib.sha256(plans.pop()).hexdigest() == digest
    monkeypatch.setattr(compile_module, "blocks", lambda n, shards: shards)
    runs = benchmark_shape_runs.__wrapped__(shape)  # past the cache, patched
    plans = {stats.plan.serialize() for _, stats, _ in runs}
    assert len(plans) == 1
    plan = plans.pop()
    parent, format_11, format_10, format_9, format_8, before_passes = PARENT_PLAN_DIGESTS[shape]
    assert hashlib.sha256(plan).hexdigest() == parent
    payload = json.loads(plan)

    def digest_at(fmt):
        payload["format"] = fmt
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    for node in payload["nodes"]:
        assert (node["op"] == "partition") == ("passes" in node["attrs"])
        if node["op"] == "partition":
            passes = node["attrs"].pop("passes")
        elif node["op"] == "shard_sort":
            node["attrs"]["passes"] = passes
    assert digest_at(11) == format_11
    assert digest_at(10) == format_10
    assert digest_at(9) == format_9
    assert digest_at(8) == format_8
    for node in payload["nodes"]:
        node["attrs"].pop("passes", None)
    assert digest_at(7) == before_passes


def test_every_sharded_sort_carries_its_passes_on_its_partition():
    """Sort 1 (130 key bits) takes 3 passes, the four packed sorts 1, at the
    CLI smoke's shape — one value per sort, on its ``partition`` node, and
    none on a ``shard_sort``; revealed sizes leave ``passes`` unknown with
    ``n``."""
    plan = compile_join(64, 64, "sharded", shards=4, padding="worst_case")
    passes = {node.attr("stage"): node.attr("passes") for node in plan.nodes_by_op("partition")}
    assert passes == {stage: 3 if stage == "augment_sort1" else 1 for stage in JOIN_SORTS}
    assert not any("passes" in dict(node.attrs) for node in plan.nodes_by_op("shard_sort"))
    for node in join_plan("sharded", 64, 64, None, 4).nodes_by_op("partition"):
        assert (node.attr("passes") is None) == (node.attr("n") is None)


def test_executed_plan_bytes_survive_adversarial_completion_orders():
    """The shuffle substrate runs each dispatch's tasks in a scrambled
    order; the executed plan's canonical bytes must stay a pure function
    of (sizes, k, bounds) anyway — execution order is scheduling
    jitter, not schedule."""
    from repro.plan import ShuffleExecutor

    target = 64
    compiled = join_plan("sharded", 8, 8, target, 3).serialize()
    for data in (DATASET_A, DATASET_B):
        for seed in range(3):
            stats = ShardedJoinStats()
            sharded_oblivious_join(
                *data,
                shards=3,
                stats=stats,
                target_m=target,
                executor=ShuffleExecutor(seed=seed),
            )
            assert stats.plan.serialize() == compiled


def _step(plan: Plan, step: int) -> Plan:
    """The nodes ``builder.embed`` tagged with cascade ``step``."""
    nodes = tuple(node for node in plan.nodes if node.attr("step") == step)
    return Plan(plan.workload, plan.engine, plan.shapes, nodes)


@pytest.mark.parametrize("executor", ["inline", "shuffle", "pool"])
@pytest.mark.parametrize(
    "padding,bound", [("revealed", None), ("bounded", 30), ("worst_case", None)]
)
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_cascade_steps_count_their_compiled_sub_plans(shards, padding, bound, executor):
    """The sharded cascade — the ``vector`` text over ``sharded_sort`` — runs
    every sort of every step at exactly the comparators its
    ``compile_multiway`` sub-plan implies, whatever the data.  A revealed
    cascade's plan sizes only step 0's augment sorts; padded, all five
    sorts of every step."""
    t3 = [(1, 0), (2, 0), (3, 0)]
    plan = compile_multiway([8, 8, 3], "sharded", shards=shards, padding=padding, bound=bound)
    sort = partial(sharded_sort, shards=shards, executor=get_executor(executor, workers=2))
    for left, right in (DATASET_A, DATASET_B):
        stats = VectorMultiwayStats()
        vector_multiway_join(
            [left, right, t3], [(0, 0), (3, 0)],
            stats=stats, padding=padding, bound=bound, sort=sort,
        )
        for step, join_stats in enumerate(stats.step_stats):
            sub = _step(plan, step)
            stages = [
                p.attr("stage") for p in sub.nodes_by_op("partition") if p.attr("n") is not None
            ]
            assert len(stages) == (5 if padding != "revealed" else 2 * (step == 0))
            for stage in stages:
                assert join_stats.comparisons_by_phase[stage] == plan_sort_comparators(sub, stage)


def test_engine_level_plan_depends_only_on_shapes_not_data():
    """compile_plan never sees data, so this is equality by construction —
    pinned anyway as the contract the CLI `plan` command sells."""
    engine = get_engine("sharded", shards=2, padding="worst_case")
    one = engine.compile_plan("multiway", sizes=[8, 8, 3])
    two = engine.compile_plan("multiway", sizes=[8, 8, 3])
    other = engine.compile_plan("multiway", sizes=[8, 8, 4])
    assert one.serialize() == two.serialize()
    assert one.serialize() != other.serialize()


# -- aggregate, GROUP BY, FILTER, ORDER BY: the vector text, sorts sharded ----


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_relational_sorts_count_their_compiled_plans(shards, executor):
    """Every sort the ``vector`` text runs over ``sharded_sort`` executes
    exactly the comparators its compiled plan's ``shard_sort`` nodes imply,
    on both datasets: aggregate, GROUP BY, FILTER and ORDER BY."""
    substrate = get_executor(executor, workers=2)
    sort = partial(sharded_sort, shards=shards, executor=substrate)
    plans = {
        workload: compile_workload(workload, "sharded", shards=shards, **shapes)
        for workload, shapes in (
            ("aggregate", {"n1": 8, "n2": 8}),
            ("group_by", {"n": 8}),
            ("filter", {"n": 8}),
            ("order_by", {"n": 8}),
        )
    }
    for left, right in (DATASET_A, DATASET_B):
        stats = VectorAggregateStats()
        vector_join_aggregate(left, right, stats=stats, sort=sort)
        for stage in ("aggregate_sort", "aggregate_compact"):
            expected = plan_sort_comparators(plans["aggregate"], stage)
            assert stats.comparisons_by_phase[stage] == expected
        stats = VectorAggregateStats()
        vector_group_by(left, stats=stats, sort=sort)
        for stage in ("groupby_sort", "groupby_compact"):
            expected = plan_sort_comparators(plans["group_by"], stage)
            assert stats.comparisons_by_phase[stage] == expected
        counter = [0]
        vector_filter_indices([j % 2 == 0 for j, _ in left], sort=partial(sort, counter=counter))
        assert counter[0] == plan_sort_comparators(plans["filter"], "filter_compact")
        counter = [0]
        vector_order_permutation(
            [([j for j, _ in right], True)], 8, sort=partial(sort, counter=counter)
        )
        assert counter[0] == plan_sort_comparators(plans["order_by"], "order")


class CapturingExecutor(InlineExecutor):
    """Inline executor recording the shape of everything that crosses to a
    task and back: every array's row count and dtype, every other value."""

    def __init__(self) -> None:
        super().__init__()
        self.shipped: list = []

    def _run(self, task, payload):
        result = task(payload)
        self.shipped.append((task.__name__, _wire_shape(payload), _wire_shape(result)))
        return result

    def map(self, task, payloads):
        return [self._run(task, payload) for payload in payloads]


def _wire_shape(value):
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str)
    if isinstance(value, dict):
        return tuple((name, _wire_shape(item)) for name, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_wire_shape(item) for item in value)
    return value


#: Same-shape inputs per operator whose data differ as much as they can.
WIRE_INPUTS = {
    "aggregate": [DATASET_A, DATASET_B],
    "group_by": [([(0, v) for v in range(8)],), ([(v, v) for v in range(8)],)],
    "filter": [([True] * 10,), ([False] * 10,), ([True, False] * 5,)],
}


@pytest.mark.parametrize(
    "padding,bound", [("revealed", None), ("bounded", 30), ("worst_case", None)]
)
@pytest.mark.parametrize("operator", sorted(WIRE_INPUTS))
def test_shipped_blocks_depend_only_on_shapes(operator, padding, bound):
    """What workers receive and return — block row counts, dtypes, key
    lists — is the same for every input of one shape in every padding mode:
    no per-shard group or survivor count crosses, and only keys and a row
    id ship (the aggregate's ``d`` column stays in the parent)."""
    records = []
    for inputs in WIRE_INPUTS[operator]:
        executor = CapturingExecutor()
        engine = get_engine(
            "sharded", shards=3, executor=executor, padding=padding, bound=bound
        )
        method = "filter_indices" if operator == "filter" else operator
        getattr(engine, method)(*inputs)
        assert executor.shipped
        records.append(executor.shipped)
    assert all(record == records[0] for record in records)
    columns = {name for _, payload, _ in records[0] for name, _ in payload[0]}
    assert "d" not in columns


def test_the_sharded_aggregate_and_filter_modules_are_gone():
    """Aggregation and FILTER are the vector text over the sharded sort: no
    sharded driver, plan compiler or op of their own is left."""
    import repro.plan.compile as compile_module

    for module in ("repro.shard.aggregate", "repro.shard.relational"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    for name in ("sharded_aggregate_plan", "sharded_filter_plan", "sharded_order_plan"):
        assert not hasattr(compile_module, name)
    engine = get_engine("sharded", shards=3, padding="worst_case")
    for workload, shapes in (("aggregate", {"n1": 6, "n2": 6}), ("filter", {"n": 6})):
        ops = {node.op for node in engine.compile_plan(workload, **shapes).nodes}
        assert not ops & {"partial_aggregate", "block_filter", "combine", "concat"}


def test_padded_filter_via_engine_matches_reference():
    mask = [True, False, True, False, True]
    padded_engine = get_engine("sharded", padding="worst_case", shards=2)
    assert padded_engine.filter_indices(mask) == get_engine(
        "traced"
    ).filter_indices(mask)


# -- chain plans ----------------------------------------------------------------

#: Eight source rows, four survivors, each joining one of three right rows,
#: four groups: sizes 8, 4, 4, 4.  The second dataset has the same sizes
#: from one all-duplicate key, the other survivors and one matching row.
PIPELINE_DATASETS = [
    (
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (1, 6), (2, 7), (3, 8)],
        [True, False] * 4,
        [(0, 9), (2, 9), (4, 9)],
    ),
    ([(5, v) for v in range(8)], [False] * 4 + [True] * 4, [(6, 0), (5, 1), (7, 0)]),
]

PIPELINE_ENGINES = [{"name": "traced"}, {"name": "vector"}, {"name": "sharded", "shards": 3}]
PADDINGS = [{"padding": "revealed"}, {"padding": "bounded", "bound": 10}, {"padding": "worst_case"}]


def _pipeline_engine(config: dict, padding: dict):
    options = dict(config)
    return get_engine(options.pop("name"), **options, **padding)


def _pipeline_chain(source, mask, right):
    return [("source", source), ("filter", mask), ("join", right), ("group_by",)]


def _stage_workloads(stages, sizes):
    """What every operator stage compiles alone at the size it received."""
    for index, stage in enumerate(stages[1:], start=1):
        n = sizes[index - 1]
        if stage[0] == "join":
            yield "join", {"n1": n, "n2": len(stage[1])}
        elif stage[0] == "multiway":
            yield "multiway", {"sizes": [n] + [len(table) for table in stage[1]]}
        elif stage[0] == "order_by":
            yield "order_by", {"n": n, "columns": len(stage[1])}
        else:
            yield stage[0], {"n": n}


@pytest.mark.parametrize("padding", PADDINGS, ids=lambda padding: padding["padding"])
@pytest.mark.parametrize("config", PIPELINE_ENGINES, ids=lambda config: config["name"])
@pytest.mark.parametrize(
    "chain",
    [
        pytest.param(_pipeline_chain(*PIPELINE_DATASETS[0]), id="filter-join-group_by"),
        pytest.param(
            [
                ("source", PIPELINE_DATASETS[0][0]),
                ("filter", PIPELINE_DATASETS[0][1]),
                ("multiway", [[(1, 0), (3, 1), (5, 2)], [(0, 4), (1, 5)]], [(1, 0), (3, 0)]),
                ("order_by", [(5, False), (0, True), (3, False)]),
            ],
            id="filter-multiway-order_by",
        ),
    ],
)
def test_pipeline_plan_is_the_plans_of_the_operators_it_ran(chain, config, padding):
    """Every operator of a chain runs the plan it compiles alone for the
    input it received: the 8 -> 4 survivors join at n1 = 4 (target 12
    under worst_case), not at the filter's input size, and the padded join
    returns exactly its plan's target rows."""
    engine = _pipeline_engine(config, padding)
    result = run_chain(engine, chain)
    assert result.sizes[:2] == [8, 4]
    expected = list(_stage_workloads(chain, result.sizes))
    assert len(result.plans) == len(expected) == len(chain) - 1
    for plan, (workload, shapes) in zip(result.plans, expected):
        assert plan.workload == workload and plan.engine == engine.name
        assert plan.serialize() == engine.compile_plan(workload, **shapes).serialize()
    if chain[2][0] == "join":
        join = result.plans[1]
        assert join.nodes_by_op("input")[0].attr("rows") == 4 + (padding["padding"] != "revealed")
        target = {"revealed": None, "bounded": 10, "worst_case": 12}[padding["padding"]]
        assert join.nodes_by_op("zip")[0].attr("rows") == target
        source, mask = chain[0][1], chain[1][1]
        survivors = [row for row, keep in zip(source, mask) if keep]
        ran = engine.join(survivors, chain[2][1])
        assert len(ran.pairs) == (result.sizes[2] if target is None else target)


def test_pipeline_plan_bytes_identical_across_adversarial_data():
    """Datasets with equal revealed ``sizes`` — skewed keys against one
    all-duplicate key, other survivors — run byte-identical operator plans
    on every engine and padding mode; each plan is compiled at the size the
    stage before revealed, and another survivor count is another plan."""
    source, mask, right = PIPELINE_DATASETS[0]
    for config in PIPELINE_ENGINES:
        for padding in PADDINGS:
            engine = _pipeline_engine(config, padding)
            results = [run_chain(engine, _pipeline_chain(*data)) for data in PIPELINE_DATASETS]
            assert {tuple(result.sizes) for result in results} == {(8, 4, 4, 4)}
            serialized = {
                tuple(plan.serialize() for plan in result.plans) for result in results
            }
            assert len(serialized) == 1, engine.name
            plans = results[0].plans
            assert plans[0].shape("n") == 8
            assert plans[1].shape("n1") == 4 and plans[1].shape("n2") == 3
            other = run_chain(engine, _pipeline_chain(source, [True] * 6 + [False] * 2, right))
            assert other.sizes[1] == 6
            assert other.plans[1].digest() != plans[1].digest()


def test_pipeline_plan_bytes_survive_adversarial_completion_orders():
    from repro.engines import ShardedEngine
    from repro.plan import ShuffleExecutor

    chain = _pipeline_chain(*PIPELINE_DATASETS[0])
    reference = [plan.serialize() for plan in run_chain(ShardedEngine(shards=3), chain).plans]
    for seed in range(4):
        engine = ShardedEngine(shards=3, executor=ShuffleExecutor(seed=seed))
        assert [plan.serialize() for plan in run_chain(engine, chain).plans] == reference


# -- retired pipeline -----------------------------------------------------------


def test_a_three_key_order_by_stage_compiles_its_three_keys():
    """``compile_plan("order_by", columns=...)`` reaches the compiler, so a
    sharded order-by partitions on as many keys as it names (plus the row
    position), and a three-key plan is not the one-key plan."""
    engine = get_engine("sharded")
    three = engine.compile_plan("order_by", n=4, columns=3)
    one = engine.compile_plan("order_by", n=4)
    assert three.shape("columns") == 3
    assert three.nodes_by_op("partition")[0].attr("passes") == 4
    assert one.nodes_by_op("partition")[0].attr("passes") == 2
    assert three.digest() != one.digest()


def test_the_ahead_of_time_pipeline_plan_is_gone():
    """No pipeline is left: no DAG compiler, stage vocabulary, engine or
    db-layer method, stats class, CLI flag or ops."""
    import repro
    import repro.cli as cli_module
    import repro.db as db_module
    import repro.engines as engines_module
    import repro.plan as plan_module
    import repro.plan.compile as compile_module
    from repro.db import ObliviousEngine
    from repro.engines.base import Engine

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engines.pipeline")
    for module, name in (
        (compile_module, "compile_pipeline"),
        (compile_module, "PIPELINE_OPS"),
        (compile_module, "_deferred_stage_plan"),
        (plan_module, "compile_pipeline"),
        (plan_module, "PIPELINE_OPS"),
        (engines_module, "PipelineStats"),
        (engines_module, "PipelineResult"),
        (engines_module, "check_pipeline_stages"),
        (db_module, "PipelineQueryResult"),
        (cli_module, "_parse_pipeline_stage"),
    ):
        assert not hasattr(module, name), name
    for attribute in ("compile_pipeline", "pipeline"):
        assert not hasattr(Engine, attribute)
        assert not hasattr(ObliviousEngine(), attribute)
        for name in available_engines():
            assert not hasattr(get_engine(name), attribute)
    with pytest.raises(SystemExit):
        main(["plan", "--n", "8", "--stages", "filter"])
    root = os.path.dirname(repro.__file__)
    text = "".join(
        open(os.path.join(folder, name), encoding="utf-8").read()
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    for op in ("channel", "filter_deferred", "group_by_deferred",
               "shard_sort_deferred", "cascade_deferred"):
        assert f'"{op}"' not in text, op
    assert '"join_deferred"' in text  # the unpadded cascade still uses it


# -- the CLI plan command -----------------------------------------------------


def test_cli_plan_json_is_deterministic(capsys):
    args = [
        "plan", "--workload", "join", "--engine", "sharded",
        "--padding", "worst_case", "--n1", "16", "--n2", "16",
        "--shards", "4", "--json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["shapes"] == {"k": 4, "n1": 16, "n2": 16, "target": 256}


def test_cli_plan_renders_human_readable(capsys):
    assert main(["plan", "--n1", "8", "--n2", "8"]) == 0
    out = capsys.readouterr().out
    assert "plan join on vector" in out and "digest" in out


def test_cli_plan_multiway_and_scalar_workloads(capsys):
    assert main(
        ["plan", "--workload", "multiway", "--sizes", "4", "4", "4",
         "--engine", "sharded", "--padding", "worst_case", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shapes"]["bounds"] == [16, 64]
    assert main(["plan", "--workload", "filter", "--n", "9"]) == 0
    capsys.readouterr()


def test_cli_plan_rejects_missing_shapes_and_bad_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["plan", "--workload", "join"])  # no sizes given
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["plan", "--n1", "4", "--n2", "4", "--bound", "3"])  # bound sans bounded
    capsys.readouterr()
    with pytest.raises(SystemExit):  # engine-option errors exit cleanly too
        main(["plan", "--engine", "vector", "--shards", "4", "--n1", "4", "--n2", "4"])
    capsys.readouterr()


#: One negative size per workload, in the shape ``compile_workload`` reads.
NEGATIVE_SHAPES = {
    "join": {"n1": -1, "n2": 3},
    "multiway": {"sizes": [-1, 3]},
    "join_tree": {"sizes": [-1, 3], "edges": [(0, 1, 0, 0)]},
    "aggregate": {"n1": 3, "n2": -1},
    "group_by": {"n": -1},
    "filter": {"n": -1},
    "order_by": {"n": -1},
}


@pytest.mark.parametrize("engine", ["traced", "vector", "sharded"])
@pytest.mark.parametrize("workload", sorted(NEGATIVE_SHAPES))
def test_every_workload_refuses_a_negative_size(workload, engine):
    shapes = NEGATIVE_SHAPES[workload]
    with pytest.raises(InputError, match="table sizes must be >= 0"):
        compile_workload(workload, engine, **shapes)
    with pytest.raises(InputError, match="table sizes must be >= 0"):
        get_engine(engine).compile_plan(workload, **shapes)


def test_cli_plan_refuses_a_negative_size_in_one_line(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["plan", "--engine", "vector", "--workload", "join", "--n1", "-1", "--n2", "3"])
    assert str(exit_info.value) == "table sizes must be >= 0, got -1"
    assert capsys.readouterr().out == ""
