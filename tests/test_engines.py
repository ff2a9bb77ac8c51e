"""The engine registry and its cross-engine differential safety net.

Every registered engine must produce identical results for join, multiway
join, and aggregation; the join is additionally checked against the
non-oblivious ``hash_join`` oracle.  The vector engine's primitive schedule
(its adversary-visible behaviour) must depend only on public sizes.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings

from repro.baselines.hash_join import join_multiset
from repro.core.aggregate import oblivious_group_by, oblivious_join_aggregate
from repro.core.multiway import oblivious_multiway_join
from repro.core.stats import PhaseStats as VectorAggregateStats
from repro.db.query import ObliviousEngine
from repro.db.table import DBTable
from repro.engines import (
    Engine,
    TracedEngine,
    VectorEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.errors import InputError
from repro.vector.aggregate import vector_join_aggregate
from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join

from conftest import pairs_strategy

ALL_ENGINES = available_engines()


# -- registry ---------------------------------------------------------------


def test_both_builtin_engines_are_registered():
    assert "traced" in ALL_ENGINES and "vector" in ALL_ENGINES


def test_get_engine_resolves_names_and_instances():
    traced = get_engine("traced")
    assert isinstance(traced, TracedEngine)
    assert isinstance(get_engine("vector"), VectorEngine)
    assert get_engine(traced) is traced  # instances pass through


def test_unknown_engine_raises_with_available_names():
    with pytest.raises(InputError, match="traced"):
        get_engine("gpu")


def test_builtin_engines_satisfy_protocol():
    for name in ALL_ENGINES:
        assert isinstance(get_engine(name), Engine)


def test_custom_engine_registration_is_picked_up():
    class Wrapped(TracedEngine):
        name = "wrapped-traced"

    try:
        register_engine(Wrapped())
        assert get_engine("wrapped-traced").join([(1, 2)], [(1, 3)]).pairs == [(2, 3)]
        assert ObliviousEngine(engine="wrapped-traced").engine.name == "wrapped-traced"
    finally:
        from repro.engines.base import _REGISTRY

        _REGISTRY.pop("wrapped-traced", None)


# -- differential: join -----------------------------------------------------


@pytest.mark.parametrize("name", ALL_ENGINES)
@given(left=pairs_strategy(max_rows=14), right=pairs_strategy(max_rows=14))
@settings(max_examples=40, deadline=None)
def test_every_engine_join_matches_hash_join_oracle(name, left, right):
    result = get_engine(name).join(left, right)
    assert sorted(result.pairs) == join_multiset(left, right)
    assert result.m == len(result.pairs)
    assert (result.n1, result.n2) == (len(left), len(right))


@given(left=pairs_strategy(max_rows=14), right=pairs_strategy(max_rows=14))
@settings(max_examples=40, deadline=None)
def test_engines_join_bit_identically(left, right):
    results = [get_engine(name).join(left, right).pairs for name in ALL_ENGINES]
    for other in results[1:]:
        assert other == results[0]


# -- differential: multiway -------------------------------------------------


def _multiway_oracle(tables, keys):
    accumulated = [tuple(row) for row in tables[0]]
    for step, table in enumerate(tables[1:]):
        left_col, right_col = keys[step]
        accumulated = [
            a + tuple(b) for a in accumulated for b in table if a[left_col] == b[right_col]
        ]
    return sorted(accumulated)


def _random_chain(rng, width=3):
    """A random 3-table chain joined t0.c0=t1.c0, then acc.c2=t2.c0."""
    t1 = [(rng.randrange(4), rng.randrange(30)) for _ in range(rng.randrange(1, 7))]
    t2 = [(rng.randrange(4), rng.randrange(6)) for _ in range(rng.randrange(1, 7))]
    t3 = [(rng.randrange(6), rng.randrange(30)) for _ in range(rng.randrange(1, 7))]
    return [t1, t2, t3], [(0, 0), (3, 0)]


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_every_engine_multiway_matches_oracle(name):
    rng = random.Random(42)
    engine = get_engine(name)
    for _ in range(15):
        tables, keys = _random_chain(rng)
        result = engine.multiway_join(tables, keys)
        assert sorted(result.rows) == _multiway_oracle(tables, keys)
        assert len(result.intermediate_sizes) == len(keys)


def test_engines_multiway_bit_identically():
    rng = random.Random(7)
    for _ in range(15):
        tables, keys = _random_chain(rng)
        results = [get_engine(name).multiway_join(tables, keys) for name in ALL_ENGINES]
        for other in results[1:]:
            assert other.rows == results[0].rows
            assert other.intermediate_sizes == results[0].intermediate_sizes


def test_vector_multiway_validates_like_traced():
    for bad_call in (
        lambda f: f([[(1, 1)]], []),
        lambda f: f([[(1, 1)], [(1, 1)]], []),
        lambda f: f([[(1, 1)], [(1, 1)]], [(5, 0)]),
        lambda f: f([[("a", 1)], [("a", 1)]], [(0, 0)]),
    ):
        with pytest.raises(InputError) as traced_err:
            bad_call(oblivious_multiway_join)
        with pytest.raises(InputError) as vector_err:
            bad_call(vector_multiway_join)
        assert str(vector_err.value) == str(traced_err.value)


# -- differential: aggregation ----------------------------------------------


def _aggregate_oracle(left, right):
    agg = defaultdict(lambda: [0, 0, 0, 0])
    for j1, d1 in left:
        for j2, d2 in right:
            if j1 == j2:
                entry = agg[j1]
                entry[0] += 1
                entry[1] += d1
                entry[2] += d2
                entry[3] += d1 * d2
    return dict(agg)


@pytest.mark.parametrize("name", ALL_ENGINES)
@given(left=pairs_strategy(max_rows=12), right=pairs_strategy(max_rows=12))
@settings(max_examples=40, deadline=None)
def test_every_engine_aggregate_matches_materialised_join(name, left, right):
    groups = get_engine(name).aggregate(left, right)
    got = {
        g.j: [g.pair_count, g.join_sum_d1, g.join_sum_d2, g.join_sum_product]
        for g in groups
    }
    assert got == _aggregate_oracle(left, right)


@given(left=pairs_strategy(max_rows=12), right=pairs_strategy(max_rows=12))
@settings(max_examples=40, deadline=None)
def test_engines_aggregate_bit_identically(left, right):
    results = [get_engine(name).aggregate(left, right) for name in ALL_ENGINES]
    for other in results[1:]:
        assert other == results[0]


@given(table=pairs_strategy(max_rows=16))
@settings(max_examples=40, deadline=None)
def test_engines_group_by_bit_identically(table):
    results = [get_engine(name).group_by(table) for name in ALL_ENGINES]
    for other in results[1:]:
        assert other == results[0]


def test_engine_knob_on_core_functions_matches_traced():
    """The core functions are the traced engine; the vector engine's front
    door computes the same groups and rows."""
    vector = get_engine("vector")
    left = [(0, 1), (0, 2), (1, 3)]
    right = [(0, 4), (1, 5), (1, 6)]
    assert vector.aggregate(left, right) == oblivious_join_aggregate(left, right)
    assert vector.group_by(left) == oblivious_group_by(left)
    tables = [[(1, 8), (2, 9)], [(1, 10), (1, 11)]]
    assert vector.multiway_join(tables, [(0, 0)]).rows == \
        oblivious_multiway_join(tables, [(0, 0)]).rows


# -- db layer rides the selected engine -------------------------------------


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_db_query_layer_is_engine_agnostic(name):
    patients = DBTable.from_rows(
        ["pid:int", "name:str"], [(1, "ana"), (2, "bo"), (3, "cy")]
    )
    scripts = DBTable.from_rows(
        ["pid:int", "drug:str", "cost:int"],
        [(1, "aspirin", 5), (1, "statin", 30), (3, "insulin", 90)],
    )
    reference = ObliviousEngine()
    engine = ObliviousEngine(engine=name)
    for op in (
        lambda e: e.join(patients, scripts, on=("pid", "pid")).rows,
        lambda e: e.group_by(scripts, key="pid", value="cost").rows,
        lambda e: e.join_aggregate(
            patients, scripts, on=("pid", "pid"), values=("pid", "cost")
        ).rows,
        lambda e: e.multiway_join([patients, scripts], on=[("pid", "pid")]).rows,
    ):
        assert op(engine) == op(reference)


# -- obliviousness: the vector schedule depends only on public sizes --------


def _relabel(table, key_shift, data_seed):
    rng = random.Random(data_seed)
    return [(j + key_shift, rng.randrange(1 << 20)) for j, _ in table]


def test_vector_multiway_schedule_depends_only_on_public_sizes():
    # Two cascades over completely different keys and payloads, but with
    # identical table sizes and identical intermediate sizes (1x1 chains).
    def chain(key_shift, data_seed):
        rng = random.Random(data_seed)
        t1 = [(key_shift + k, rng.randrange(1 << 20)) for k in range(8)]
        t2 = [(key_shift + k, 100 + k) for k in range(8)]
        t3 = [(100 + k, rng.randrange(1 << 20)) for k in range(8)]
        return [t1, t2, t3], [(0, 0), (3, 0)]

    schedules = []
    for key_shift, data_seed in ((0, 1), (500, 2)):
        tables, keys = chain(key_shift, data_seed)
        stats = VectorMultiwayStats()
        result = vector_multiway_join(tables, keys, stats=stats)
        assert result.intermediate_sizes == [8, 8]
        schedules.append(stats.schedule)
    assert schedules[0] == schedules[1]


def test_vector_multiway_schedule_changes_with_sizes():
    def run(n):
        tables = [[(k, k) for k in range(n)], [(k, k) for k in range(n)]]
        stats = VectorMultiwayStats()
        vector_multiway_join(tables, [(0, 0)], stats=stats)
        return stats.schedule

    assert run(4) != run(8)  # the schedule is a function *of* the sizes


def test_vector_aggregate_schedule_depends_only_on_n():
    # Same n = 8, wildly different group structures and would-be join sizes
    # (m = 4 vs m = 16): the primitive schedule must not move.
    def run(left, right):
        stats = VectorAggregateStats()
        vector_join_aggregate(left, right, stats=stats)
        return stats.n, stats.schedule

    a = run([(0, 1), (0, 2), (1, 3), (2, 9)], [(0, 4), (0, 5), (1, 6), (3, 7)])
    b = run([(5, 1), (5, 2), (5, 3), (5, 4)], [(5, 5), (5, 6), (5, 7), (5, 8)])
    assert a == b


def test_vector_aggregate_refuses_overflow_prone_values():
    # The traced engine sums in Python ints; int64 would wrap.  The vector
    # engine must fail loudly rather than silently diverge.
    big = 2**62
    with pytest.raises(InputError, match="overflow-safe"):
        vector_join_aggregate([(0, big), (0, big)], [(0, 1)])
    # ... while the traced engine handles the same input exactly.
    groups = oblivious_join_aggregate([(0, big), (0, big)], [(0, 1)])
    assert groups[0].sum_d1 == 2 * big


def test_vector_aggregate_reveals_only_group_count():
    stats = VectorAggregateStats()
    vector_join_aggregate([(0, 1), (1, 2)], [(0, 3), (2, 4)], stats=stats)
    assert stats.n == 4
    assert stats.groups == 1  # only key 0 joins
    assert stats.total_comparisons > 0
