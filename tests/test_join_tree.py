"""Differential + property suite for the Yannakakis-style join tree.

Hypothesis generates adversarial tables — skewed keys, heavy duplicates,
empty sides, single rows (the same corner bias as
``test_engine_properties.py``) — and the join tree must agree, as a
multiset, with the binary cascade oracle on every engine, executor
substrate and padding mode, and bit-for-bit (values *and* order) with the
traced reference.  Band predicates (``|a - b| <= w``), which the cascade
cannot express, are checked against a brute-force oracle instead,
including the empty-band and full-band (cross product) edges and keys at
the int64 limits.

The plan tests pin that the compiled tree is a *pure function of shapes*:
byte-identical serialization for equal ``(sizes, tree, k, padding,
bound)``, different bytes when any of them changes, and no dependence on
the data values at all — and that the sharded tree, the ``vector`` text
over :func:`~repro.shard.sort.sharded_sort`, executes exactly the
comparators its plan's ``shard_sort`` and ``merge_pair`` nodes imply.

``REPRO_ENGINES`` / ``REPRO_EXECUTORS`` restrict the engine/executor lists
exactly as in ``test_engine_properties.py`` — the CI ``differential``
job's sharded step uses them.
"""

from __future__ import annotations

import itertools
import os
import random
from functools import partial

import pytest
from conftest import plan_sort_comparators, sort_comparators
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.join_tree import oblivious_join_tree
from repro.engines import ShardedEngine, available_engines, get_engine
from repro.errors import BoundError, InputError
from repro.memory.monitor import run_hashed
from repro.plan import available_executors
from repro.plan.compile import compile_join_tree
from repro.plan.executors import get_executor
from repro.shard.sort import sharded_sort
from repro.vector.join_tree import stab_keys, vector_join_tree

#: These tests pin block structure (counts, schedules, dispatches) at test
#: sizes, so every sort is cut into ``shards`` blocks however small.
pytestmark = pytest.mark.usefixtures("blocks_at_any_size")

ENGINES = [
    name
    for name in available_engines()
    if name in os.environ.get("REPRO_ENGINES", ",".join(available_engines())).split(",")
]

EXECUTORS = [
    name
    for name in available_executors()
    if name
    in os.environ.get("REPRO_EXECUTORS", ",".join(available_executors())).split(",")
]

REFERENCE = "traced"

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

CONFIGURATIONS = ENGINES + (
    [pytest.param(ShardedEngine(shards=5), id="sharded[shards=5]")]
    + [
        pytest.param(
            ShardedEngine(shards=3, workers=2, executor=name),
            id=f"sharded[executor={name}]",
        )
        for name in EXECUTORS
        if name != "inline"
    ]
    if "sharded" in ENGINES
    else []
)

#: Canonical 3-table tree shapes over (j, d) tables, with the cascade key
#: specs that express the identical query: the star joins both children on
#: the root's key, the chain joins table 2 on table 1's *payload* column
#: (accumulated column 3 in cascade coordinates).
STAR = [(0, 1, 0, 0), (0, 2, 0, 0)]
STAR_KEYS = [(0, 0), (0, 0)]
CHAIN = [(0, 1, 0, 0), (1, 2, 1, 0)]
CHAIN_KEYS = [(0, 0), (3, 0)]
SHAPES = [
    pytest.param(STAR, STAR_KEYS, id="star"),
    pytest.param(CHAIN, CHAIN_KEYS, id="chain"),
]


@st.composite
def table(draw, max_rows: int = 16):
    """A (j, d) table biased toward the nasty corners (see
    ``test_engine_properties.py``): tiny key spaces for skew and giant
    groups, small payload spaces for duplicate ``(j, d)`` rows."""
    key_space = draw(st.sampled_from([1, 2, 3, 40]))
    data_space = draw(st.sampled_from([2, 5, 1000]))
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=key_space - 1),
                st.integers(min_value=0, max_value=data_space - 1),
            ),
            max_size=max_rows,
        )
    )


def _cascade_oracle(tables, keys):
    """The binary cascade as the equi-join oracle (multiset semantics)."""
    return sorted(get_engine(REFERENCE).multiway_join(tables, keys).rows)


def _band_oracle(tables, edges):
    """Brute force over the full cross product, in Python ints: an int64
    difference overflows at the int64 limits."""
    return sorted(
        sum(combo, ())
        for combo in itertools.product(*(map(tuple, t) for t in tables))
        if all(
            abs(combo[parent][pcol] - combo[child][ccol]) <= band
            for parent, child, pcol, ccol, band in edges
        )
    )


# -- differential: join tree vs cascade oracle, every engine/executor --------


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize("edges,keys", SHAPES)
@given(t1=table(max_rows=6), t2=table(max_rows=6), t3=table(max_rows=6))
@settings(max_examples=15, deadline=None)
@example(t1=[(0, 0), (0, 0)], t2=[(0, 1), (0, 1)], t3=[(1, 9)])
@example(t1=[], t2=[(0, 1)], t3=[(0, 2)])
@example(t1=[(0, 0)], t2=[], t3=[])
def test_join_tree_matches_cascade_oracle_and_reference(
    configuration, edges, keys, t1, t2, t3
):
    engine = get_engine(configuration)
    tables = [t1, t2, t3]
    result = engine.join_tree(tables, edges)
    assert sorted(result.rows) == _cascade_oracle(tables, keys)
    assert result.m == len(result.rows)
    assert result.sizes == (len(t1), len(t2), len(t3))
    # Bit-identical to the reference: the canonical slot order is a pure
    # function of the inputs, on every engine and executor substrate.
    assert result.rows == get_engine(REFERENCE).join_tree(tables, edges).rows


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize("padding", ["worst_case", "bounded"])
@pytest.mark.parametrize("edges,keys", SHAPES)
@given(t1=table(max_rows=5), t2=table(max_rows=5), t3=table(max_rows=5))
@settings(max_examples=8, deadline=None)
@example(t1=[(0, 0), (0, 0)], t2=[(0, 1), (0, 1)], t3=[(1, 9)])
@example(t1=[], t2=[(0, 1)], t3=[(0, 2)])
def test_padded_join_tree_compacts_to_unpadded_result(
    configuration, padding, edges, keys, t1, t2, t3
):
    """Padded trees return the identical real rows; the slot space pads to
    one public target (never a per-step compounded bound)."""
    engine = get_engine(configuration)
    tables = [t1, t2, t3]
    reference = get_engine(REFERENCE).join_tree(tables, edges)
    worst = len(t1) * len(t2) * len(t3)
    result = engine.join_tree(
        tables,
        edges,
        padding=padding,
        bound=worst if padding == "bounded" else None,
    )
    assert result.rows == reference.rows
    assert result.m == reference.m
    assert result.padding == padding
    assert result.target == worst


def test_four_table_tree_matches_cascade_on_all_engines():
    """A 4-table mixed shape (chain + branch) against the cascade oracle."""
    t0 = [(k % 3, k) for k in range(7)]
    t1 = [(k % 3, k % 2) for k in range(6)]
    t2 = [(k % 2, k + 10) for k in range(5)]
    t3 = [(k % 3, k + 20) for k in range(4)]
    tables = [t0, t1, t2, t3]
    # 0 -> 1 (on j), 1 -> 2 (on t1's payload), 0 -> 3 (on j).
    edges = [(0, 1, 0, 0), (1, 2, 1, 0), (0, 3, 0, 0)]
    # Cascade coordinates: t2 joins accumulated column 3 (t1's payload),
    # t3 joins accumulated column 0 (the root key).
    keys = [(0, 0), (3, 0), (0, 0)]
    oracle = _cascade_oracle(tables, keys)
    results = [get_engine(name).join_tree(tables, edges).rows for name in ENGINES]
    for rows in results:
        assert sorted(rows) == oracle
        assert rows == results[0]


@pytest.mark.skipif("sharded" not in ENGINES, reason="sharded engine excluded")
@given(t1=table(max_rows=6), t2=table(max_rows=6), t3=table(max_rows=6))
@settings(max_examples=10, deadline=None)
def test_shuffled_completion_order_cannot_change_the_rows(t1, t2, t3):
    """The shuffle executor completes sort blocks and merges in adversarial
    orders; repeated runs (fresh shuffles) must still be bit-identical."""
    tables = [t1, t2, t3]
    reference = get_engine(REFERENCE).join_tree(tables, STAR).rows
    engine = ShardedEngine(shards=3, workers=2, executor="shuffle")
    for _ in range(3):
        assert engine.join_tree(tables, STAR).rows == reference


# -- band predicates vs the brute-force numpy oracle -------------------------


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(
    t1=table(max_rows=6),
    t2=table(max_rows=6),
    band=st.sampled_from([0, 1, 3, 10_000]),
)
@settings(max_examples=15, deadline=None)
@example(t1=[(0, 0), (5, 1)], t2=[(2, 7), (6, 8)], band=2)
@example(t1=[(0, 0)], t2=[(100, 1)], band=5)  # empty band: no key within w
@example(t1=[(0, 0), (1, 1)], t2=[(39, 2)], band=10_000)  # full band: cross
# Bands reaching past the int64 limits: the ends saturate instead of wrapping.
@example(t1=[(I64_MAX, 1), (I64_MAX - 2, 0)], t2=[(I64_MAX, 2), (0, 3)], band=1)
@example(t1=[(I64_MIN, 1)], t2=[(I64_MIN, 2), (I64_MIN + 1, 3), (0, 4)], band=3)
@example(t1=[(I64_MIN, 1), (I64_MAX, 0)], t2=[(I64_MAX, 2), (I64_MIN, 3)], band=10_000)
def test_band_join_matches_brute_force(configuration, t1, t2, band):
    engine = get_engine(configuration)
    edges = [(0, 1, 0, 0, band)]
    result = engine.join_tree([t1, t2], edges)
    assert sorted(result.rows) == _band_oracle([t1, t2], edges)
    assert result.rows == get_engine(REFERENCE).join_tree([t1, t2], edges).rows


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@given(
    t1=table(max_rows=5),
    t2=table(max_rows=5),
    t3=table(max_rows=5),
    band1=st.sampled_from([0, 1, 4]),
    band2=st.sampled_from([0, 2, 10_000]),
)
@settings(max_examples=10, deadline=None)
@example(t1=[(0, 3)], t2=[(1, 2)], t3=[(4, 0)], band1=1, band2=2)
def test_mixed_band_tree_matches_brute_force(
    configuration, t1, t2, t3, band1, band2
):
    """A chain mixing two band widths — including an equi edge (w=0) and a
    full-band edge — still matches the cross-product oracle."""
    engine = get_engine(configuration)
    edges = [(0, 1, 0, 0, band1), (1, 2, 1, 0, band2)]
    tables = [t1, t2, t3]
    result = engine.join_tree(tables, edges)
    assert sorted(result.rows) == _band_oracle(tables, edges)
    assert result.rows == get_engine(REFERENCE).join_tree(tables, edges).rows


def test_band_join_full_band_is_the_cross_product():
    t1 = [(0, 0), (7, 1), (39, 2)]
    t2 = [(3, 5), (20, 6)]
    result = get_engine("vector").join_tree([t1, t2], [(0, 1, 0, 0, 10_000)])
    assert len(result.rows) == len(t1) * len(t2)
    assert sorted(result.rows) == sorted(
        a + b for a, b in itertools.product(t1, t2)
    )


def test_band_join_empty_band_is_empty():
    t1 = [(0, 0), (1, 1)]
    t2 = [(50, 2), (60, 3)]
    for name in ENGINES:
        assert get_engine(name).join_tree([t1, t2], [(0, 1, 0, 0, 3)]).rows == []


# -- padding semantics --------------------------------------------------------


def test_bounded_tree_aborts_above_the_bound():
    t1 = [(0, 0)] * 4
    t2 = [(0, 1)] * 4
    for name in ENGINES:
        with pytest.raises(BoundError):
            get_engine(name).join_tree(
                [t1, t2], [(0, 1, 0, 0)], padding="bounded", bound=15
            )


def test_invalid_trees_are_rejected():
    tables = [[(0, 0)], [(1, 1)], [(2, 2)]]
    engine = get_engine("vector")
    with pytest.raises(InputError):  # cycle / re-parenting
        engine.join_tree(tables, [(0, 1, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(InputError):  # disconnected node 2
        engine.join_tree(tables, [(0, 1, 0, 0)])
    with pytest.raises(InputError):  # key column out of range
        engine.join_tree(tables, [(0, 1, 0, 5), (0, 2, 0, 0)])


@pytest.mark.parametrize(
    "padding,bound", [("worst_case", None), ("bounded", 30)], ids=["worst_case", "bounded"]
)
def test_padded_join_tree_trace_is_independent_of_the_data(padding, bound):
    """The traced tree's per-access trace under padding is a function of
    ``(sizes, tree, target)``: a 3-table chain with 2 output rows and one
    with 27 (every key shared) hash equal.  A scan that skipped writing its
    marker cells made the write set follow where the sorted markers land."""
    edges = [(0, 1, 0, 0), (1, 2, 1, 0)]
    datasets = [
        [[(1, 10), (2, 11), (3, 12)], [(1, 5), (2, 6), (9, 7)], [(5, 0), (6, 1), (8, 2)]],
        [[(4, 4)] * 3, [(4, 3)] * 3, [(3, 9)] * 3],
    ]
    runs = [
        run_hashed(
            partial(oblivious_join_tree, tables, edges, padding=padding, bound=bound)
        )
        for tables in datasets
    ]
    assert [result.m for _, _, result in runs] == [2, 27]
    assert runs[0][:2] == runs[1][:2]


# -- plan byte-pins: the compiled tree is a pure function of shapes ----------

_PLAN_SHAPES = dict(engine="sharded", shards=3, padding="bounded", bound=40)


def test_plan_bytes_are_a_pure_function_of_shapes():
    base = compile_join_tree([6, 5, 4], STAR, **_PLAN_SHAPES).serialize()
    again = compile_join_tree([6, 5, 4], STAR, **_PLAN_SHAPES).serialize()
    assert base == again
    different = [
        compile_join_tree([6, 5, 5], STAR, **_PLAN_SHAPES),  # sizes
        compile_join_tree([6, 5, 4], CHAIN, **_PLAN_SHAPES),  # tree shape
        compile_join_tree(  # band width
            [6, 5, 4], [(0, 1, 0, 0, 2), (0, 2, 0, 0)], **_PLAN_SHAPES
        ),
        compile_join_tree(  # k
            [6, 5, 4], STAR, **{**_PLAN_SHAPES, "shards": 4}
        ),
        compile_join_tree(  # padding mode
            [6, 5, 4], STAR, engine="sharded", shards=3, padding="worst_case"
        ),
        compile_join_tree(  # bound
            [6, 5, 4], STAR, **{**_PLAN_SHAPES, "bound": 41}
        ),
    ]
    assert len({plan.serialize() for plan in different} | {base}) == 7


@given(t1=table(max_rows=6), t2=table(max_rows=6), t3=table(max_rows=6))
@settings(max_examples=10, deadline=None)
def test_plan_bytes_do_not_depend_on_data(t1, t2, t3):
    """Compiling from the tables and from their bare sizes is the same
    plan, whatever the rows hold."""
    from_tables = compile_join_tree([t1, t2, t3], STAR, **_PLAN_SHAPES)
    from_sizes = compile_join_tree(
        [len(t1), len(t2), len(t3)], STAR, **_PLAN_SHAPES
    )
    assert from_tables.serialize() == from_sizes.serialize()


#: A 4-table chain + branch, one of its edges a band.
FOUR_TABLES = [
    [(k % 3, k) for k in range(7)],
    [(k % 3, k % 2) for k in range(6)],
    [(k % 2, k + 10) for k in range(5)],
    [(k % 3, k + 20) for k in range(4)],
]
FOUR_EDGES = [(0, 1, 0, 0), (1, 2, 1, 0, 1), (0, 3, 0, 0)]

#: The join tree's phases that sort; a plan stage's first field names one.
SORT_PHASES = ("multiplicity", "finalize", "distribute_expand")


def _sharded_tree(tables, edges, shards, executor, **options):
    """The sharded engine's tree: the ``vector`` text over ``sharded_sort``."""
    sort = partial(sharded_sort, shards=shards, executor=get_executor(executor, workers=2))
    return vector_join_tree(tables, edges, sort=sort, **options)


def _phase_comparators(plan, phase: str, m: int) -> int:
    """What a sharded tree plan's sorts of ``phase`` imply.  A sort the plan
    leaves unsized is node ``v``'s stab of the revealed slot space, which
    runs at ``m + n_v`` rows."""
    total = 0
    for part in plan.nodes_by_op("partition"):
        stage = part.attr("stage")
        if stage.split(".")[0] != phase:
            continue
        if part.attr("n") is not None:
            total += plan_sort_comparators(plan, stage)
            continue
        _, node, sort = stage.split(".")
        size = m + plan.shape("sizes")[int(node[1:])]
        keys = stab_keys(size, 2)[sort == "unstab"]
        total += sort_comparators(size, plan.shape("k"), keys)
    return total


@pytest.mark.skipif("sharded" not in ENGINES, reason="sharded engine excluded")
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "padding,bound", [("revealed", None), ("bounded", 120), ("worst_case", None)]
)
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_executed_comparators_are_the_compiled_plans(shards, padding, bound, executor):
    """Phase by phase, the sharded tree counts exactly what the
    ``shard_sort`` and ``merge_pair`` nodes of its compiled plan imply, and
    returns the ``vector`` engine's rows."""
    options = {"padding": padding, "bound": bound}
    result, stats = _sharded_tree(FOUR_TABLES, FOUR_EDGES, shards, executor, **options)
    assert result.rows == get_engine("vector").join_tree(FOUR_TABLES, FOUR_EDGES, **options).rows
    plan = compile_join_tree(FOUR_TABLES, FOUR_EDGES, "sharded", shards=shards, **options)
    assert set(stats.comparisons_by_phase) == set(SORT_PHASES)
    for phase in SORT_PHASES:
        assert stats.comparisons_by_phase[phase] == _phase_comparators(plan, phase, stats.m)


def _outcome(call):
    """A query's rows, or the text of the ``BoundError`` it raised."""
    try:
        return call().rows
    except BoundError as error:
        return str(error)


@pytest.mark.skipif("sharded" not in ENGINES, reason="sharded engine excluded")
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_sharded_tree_and_cascade_match_vector_for_any_shard_count(shards):
    """On random 4-table band / equi trees and their 3-table cascades, every
    padding mode and executor: the sharded rows — or the ``BoundError``
    text — are the ``vector`` engine's."""
    rng = random.Random(shards)
    for _ in range(4):
        tables = [
            [(rng.randrange(3), rng.randrange(4)) for _ in range(rng.randrange(6))]
            for _ in range(4)
        ]
        edges = [(0, 1, 0, 0, rng.choice([0, 1])), (1, 2, 1, 0), (0, 3, 0, 0, 2)]
        for padding, bound in (("revealed", None), ("bounded", 6), ("worst_case", None)):
            options = {"padding": padding, "bound": bound}
            engines = [get_engine("vector")] + [
                ShardedEngine(shards=shards, workers=2, executor=name) for name in EXECUTORS
            ]
            outcomes = [
                (
                    _outcome(lambda: engine.join_tree(tables, edges, **options)),
                    _outcome(lambda: engine.multiway_join(tables[:3], CHAIN_KEYS, **options)),
                )
                for engine in engines
            ]
            assert outcomes[1:] == [outcomes[0]] * len(EXECUTORS), (padding, tables)


@pytest.mark.skipif("sharded" not in ENGINES, reason="sharded engine excluded")
def test_executed_plan_and_schedule_are_input_independent():
    """Two same-shape datasets with different values: the compiled plan
    bytes and the per-phase comparator schedule coincide."""
    first = [[(k % 2, k) for k in range(6)], [(0, 9)] * 4, [(1, 7)] * 5]
    second = [[(3, 0)] * 6, [(k % 4, 0) for k in range(4)], [(2, 2)] * 5]
    runs = []
    for tables in (first, second):
        _, stats = _sharded_tree(tables, STAR, 3, "inline", padding="worst_case")
        plan = compile_join_tree(tables, STAR, "sharded", shards=3, padding="worst_case")
        runs.append((plan.serialize(), stats.comparisons_by_phase, stats.target))
    assert runs[0] == runs[1]
    assert runs[0][2] == 6 * 4 * 5


@pytest.mark.skipif("sharded" not in ENGINES, reason="sharded engine excluded")
def test_over_bound_tree_raises_the_vector_text_in_the_parent(shm_leak_guard):
    """Under a process pool an exceeded bound is raised in the parent, after
    the bottom-up pass, with the ``vector`` engine's text; nothing is left in
    ``/dev/shm`` and the same pool answers the next query."""
    tables, edges = [[(0, 0)] * 4, [(0, 1)] * 4], [(0, 1, 0, 0)]
    with pytest.raises(BoundError) as vector_abort:
        get_engine("vector").join_tree(tables, edges, padding="bounded", bound=15)
    engine = ShardedEngine(shards=2, workers=2, executor="pool")
    with pytest.raises(BoundError) as abort:
        engine.join_tree(tables, edges, padding="bounded", bound=15)
    assert str(abort.value) == str(vector_abort.value)
    expected = get_engine("vector").join_tree(tables, edges, padding="bounded", bound=16)
    assert engine.join_tree(tables, edges, padding="bounded", bound=16).rows == expected.rows
