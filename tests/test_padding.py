"""The padding planner and the padded engines' public schedules.

Trace-level experiments for the traced engine live in
``test_join_trace_obliviousness.py``; cross-engine differential coverage in
``test_engine_properties.py``.  This file pins the rest of the contract:
the planner's bound arithmetic, the vector/sharded *schedule* byte-identity
(their adversary view), the db layer, and the ``security.py`` <->
``docs/leakage.md`` cross-link.
"""

import pathlib
from functools import partial

import pytest

from repro.core.padding import (
    ANCHOR_KEY,
    DUMMY_KEY_BASE,
    PADDING_MODES,
    cascade_bounds,
    check_padding,
    join_bound,
)
from repro.db.query import ObliviousEngine
from repro.db.table import DBTable
from repro.engines import get_engine
from repro.errors import BoundError, InputError
from repro.plan.executors import InlineExecutor
from repro.security import LEAKAGE_PROFILES, SERVICE_LEAKAGE, leakage_profile
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.shard.sort import sharded_sort
from repro.vector.join import vector_oblivious_join
from repro.vector.multiway import VectorMultiwayStats, vector_multiway_join

#: Equal input sizes, different key distributions -> different true sizes.
CASCADE_A = [[(0, 0), (1, 1)], [(0, 5), (1, 6)], [(5, 9), (6, 8)]]  # 2, 2
CASCADE_B = [[(0, 0), (0, 1)], [(0, 5), (0, 6)], [(9, 9), (9, 8)]]  # 4, 0
CASCADE_KEYS = [(0, 0), (3, 0)]


# -- planner -----------------------------------------------------------------


def test_check_padding_accepts_modes_and_none():
    assert check_padding(None) == "revealed"
    for mode in PADDING_MODES:
        assert check_padding(mode) == mode
    with pytest.raises(InputError, match="unknown padding mode"):
        check_padding("padded")


def test_join_bound_modes():
    assert join_bound(3, 4, "revealed") is None
    assert join_bound(3, 4, "worst_case") == 12
    assert join_bound(3, 4, "bounded", bound=7) == 7
    assert join_bound(3, 4, "bounded", bound=99) == 12  # clamped to worst case
    assert join_bound(3, 4, "bounded", bound=[7, 100]) == 7  # 1-step cascade
    with pytest.raises(InputError, match="needs an explicit bound"):
        join_bound(3, 4, "bounded")


def test_list_bounded_engine_runs_both_cascades_and_single_joins():
    """An engine configured with per-step caps must still run binary joins
    (a binary join is a one-step cascade: its first cap applies)."""
    engine = get_engine("vector", padding="bounded", bound=[4, 8])
    result = engine.join([(0, 0), (1, 1)], [(0, 5), (2, 6)])
    assert result.m == 4  # padded to min(bound[0], 2*2)
    cascade = engine.multiway_join(CASCADE_A, CASCADE_KEYS)
    assert cascade.bounds == (4, 8)


def test_cascade_bounds_worst_case_compounds():
    assert cascade_bounds([2, 3, 4], "worst_case") == (6, 24)
    assert cascade_bounds([0, 3, 4], "worst_case") == (0, 0)
    assert cascade_bounds([2, 3], "revealed") == ()


def test_cascade_bounds_bounded_clamps_and_chains():
    # Caps above the worst case clamp down; the clamped value feeds forward.
    assert cascade_bounds([2, 3, 4], "bounded", bound=5) == (5, 5)
    assert cascade_bounds([2, 3, 4], "bounded", bound=100) == (6, 24)
    assert cascade_bounds([2, 3, 4], "bounded", bound=[4, 10]) == (4, 10)
    with pytest.raises(InputError, match="needs 2 bounds"):
        cascade_bounds([2, 3, 4], "bounded", bound=[4])
    with pytest.raises(InputError, match="ints >= 0"):
        cascade_bounds([2, 3, 4], "bounded", bound=-1)


def test_reserved_key_space_is_rejected():
    ok = [(0, 0)]
    # Cascades reserve everything from DUMMY_KEY_BASE up (dummy re-keying).
    for bad_key in (DUMMY_KEY_BASE, ANCHOR_KEY):
        with pytest.raises(InputError, match="reserve"):
            get_engine("traced").multiway_join(
                [[(bad_key, 1)], ok], [(0, 0)], padding="worst_case"
            )
    # A single padded join only reserves the anchor key itself — incoming
    # cascade dummies legitimately carry DUMMY_KEY_BASE + i keys.
    with pytest.raises(InputError, match="reserve"):
        vector_oblivious_join([(ANCHOR_KEY, 1)], ok, target_m=1)
    with pytest.raises(InputError, match="reserve"):
        sharded_oblivious_join([(ANCHOR_KEY, 1)], ok, target_m=1)
    pairs, _ = vector_oblivious_join([(DUMMY_KEY_BASE, 1)], ok, target_m=1)
    assert pairs.tolist() == [[-1, -1]]  # matches nothing, pure padding


# -- vector and sharded schedules --------------------------------------------


def test_vector_padded_cascade_schedule_is_size_determined():
    schedules = []
    for tables in (CASCADE_A, CASCADE_B):
        stats = VectorMultiwayStats()
        vector_multiway_join(tables, CASCADE_KEYS, stats=stats, padding="worst_case")
        schedules.append((stats.schedule, tuple(stats.intermediate_sizes)))
    assert schedules[0] == schedules[1]
    # The padded step sizes the stats expose are the bounds, not the truth.
    assert schedules[0][1] == (4, 8)


def test_vector_revealed_cascade_schedule_differs():
    schedules = []
    for tables in (CASCADE_A, CASCADE_B):
        stats = VectorMultiwayStats()
        vector_multiway_join(tables, CASCADE_KEYS, stats=stats)
        schedules.append(stats.schedule)
    assert schedules[0] != schedules[1]


def test_sharded_padded_join_grid_and_schedule_are_size_determined():
    """The acceptance experiment for the sharded engine: full schedule,
    executed plan and emitted size identical across key distributions of
    equal sizes (the id predates the sort-sharded join: there is no task
    grid left to compare)."""
    views = []
    for left, right in (
        ([(0, i) for i in range(5)], [(0, i) for i in range(4)]),  # m = 20
        ([(i, i) for i in range(5)], [(9 + i, i) for i in range(4)]),  # m = 0
    ):
        stats = ShardedJoinStats()
        sharded_oblivious_join(left, right, shards=3, stats=stats, target_m=20)
        views.append((stats.schedule, stats.plan.serialize(), stats.m))
    assert views[0] == views[1]


def test_sharded_padded_cascade_schedule_is_size_determined():
    """The sharded cascade is the vector text over a sharded sort: its
    per-step schedule is fixed by the sizes and bounds alone."""
    sort = partial(sharded_sort, shards=2, executor=InlineExecutor())
    views = []
    for tables in (CASCADE_A, CASCADE_B):
        stats = VectorMultiwayStats()
        vector_multiway_join(
            tables, CASCADE_KEYS, stats=stats, padding="worst_case", sort=sort
        )
        views.append((stats.schedule, tuple(stats.intermediate_sizes)))
    assert views[0] == views[1]


def test_sharded_revealed_grid_differs_on_the_same_inputs():
    """Without padding the one revealed size, ``m``, shapes the schedule —
    and nothing finer does: the executed plans are still byte-identical
    (the id predates the sort-sharded join; the per-task size grid it used
    to compare is gone from the engine and from the leakage profile)."""
    views = []
    for left, right in (
        ([(0, i) for i in range(5)], [(0, i) for i in range(4)]),
        ([(i, i) for i in range(5)], [(9 + i, i) for i in range(4)]),
    ):
        stats = ShardedJoinStats()
        sharded_oblivious_join(left, right, shards=3, stats=stats)
        views.append((stats.schedule, stats.m, stats.plan.serialize()))
    assert views[0][0] != views[1][0]
    assert (views[0][1], views[1][1]) == (20, 0)
    assert views[0][2] == views[1][2]


def test_join_target_above_worst_case_clamps_identically_everywhere():
    """All engines clamp target_m to n1*n2 (no join can emit more), so one
    fixed public bound behaves the same regardless of backend."""
    left, right = [(0, 0), (1, 1)], [(0, 5), (2, 6)]
    results = [
        get_engine(name).join(left, right, target_m=100)
        for name in ("traced", "vector", "sharded")
    ]
    for result in results:
        assert result.m == 4  # clamped to 2 * 2
        assert result.pairs == results[0].pairs
    with pytest.raises(InputError, match="target_m"):
        get_engine("vector").join(left, right, target_m=-1)


def test_bounded_mode_aborts_loudly_on_overflow():
    big = [(0, i) for i in range(4)]
    with pytest.raises(BoundError):
        vector_multiway_join([big, big, big], CASCADE_KEYS, padding="bounded", bound=3)
    with pytest.raises(BoundError):
        get_engine("sharded").multiway_join(
            [big, big, big], CASCADE_KEYS, padding="bounded", bound=3
        )


# -- db layer ----------------------------------------------------------------


@pytest.mark.parametrize("engine", ["traced", "vector", "sharded"])
def test_db_padded_multiway_matches_plain_loop(engine):
    customers = DBTable.from_rows(["cid:int", "name:str"], [(7, "ana"), (9, "bo")])
    orders = DBTable.from_rows(
        ["oid:int", "cid:int", "total:int"],
        [(1, 7, 30), (2, 7, 31), (3, 9, 5)],
    )
    items = DBTable.from_rows(["oid:int", "sku:str"], [(1, "x"), (1, "y"), (3, "z")])
    plain = ObliviousEngine().multiway_join(
        [customers, orders, items], on=[("cid", "cid"), ("oid", "oid")]
    )
    padded = ObliviousEngine(engine=engine, padding="worst_case").multiway_join(
        [customers, orders, items], on=[("cid", "cid"), ("oid", "oid")]
    )
    assert padded.schema.names() == plain.schema.names()
    assert padded.rows == plain.rows


def test_db_padded_join_compacts_dummies():
    left = DBTable.from_rows(["k:int", "v:int"], [(0, 1), (1, 2)])
    right = DBTable.from_rows(["k:int", "w:int"], [(0, 3), (5, 4)])
    plain = ObliviousEngine().join(left, right, on=("k", "k"))
    padded = ObliviousEngine(engine="vector", padding="worst_case").join(
        left, right, on=("k", "k")
    )
    assert padded.rows == plain.rows


def test_db_padded_multiway_str_key_order_matches_plain_path():
    """Str keys first seen mid-cascade must not reorder the padded result:
    every mode pre-warms the dictionary encoder in base-table row order."""
    a = DBTable.from_rows(["ak:int", "p:int"], [(1, 0), (0, 1)])
    b = DBTable.from_rows(["bk:int", "x:str"], [(1, "zz"), (0, "aa")])
    c = DBTable.from_rows(["x2:str", "val:int"], [("aa", 10), ("zz", 20)])
    on = [("ak", "bk"), ("x", "x2")]
    plain = ObliviousEngine().multiway_join([a, b, c], on=on)
    padded = ObliviousEngine(engine="vector", padding="worst_case").multiway_join(
        [a, b, c], on=on
    )
    assert padded.rows == plain.rows


def test_padded_join_rejects_negative_payloads():
    """Dummies are tagged by -1 payloads, so real negatives would be
    silently compacted away — every engine must reject them up front."""
    left, right = [(0, -1)], [(0, 7)]
    for name in ("traced", "vector", "sharded"):
        with pytest.raises(InputError, match="non-negative payloads"):
            get_engine(name).join(left, right, target_m=2)
    # Unpadded joins keep accepting arbitrary payloads.
    assert get_engine("vector").join(left, right).pairs == [(-1, 7)]


def test_db_padded_multiway_with_str_keys_roundtrips_encoding():
    a = DBTable.from_rows(["k:str", "v:int"], [("x", 1), ("y", 2)])
    b = DBTable.from_rows(["k:str", "w:int"], [("x", 10), ("x", 11), ("z", 9)])
    c = DBTable.from_rows(["w:int", "u:str"], [(10, "p"), (11, "q")])
    plain = ObliviousEngine().multiway_join([a, b, c], on=[("k", "k"), ("w", "w")])
    padded = ObliviousEngine(engine="vector", padding="worst_case").multiway_join(
        [a, b, c], on=[("k", "k"), ("w", "w")]
    )
    assert padded.rows == plain.rows
    assert padded.schema.names() == plain.schema.names()


# -- leakage profiles <-> docs/leakage.md ------------------------------------


def test_leakage_profiles_cover_every_engine_and_mode():
    from repro.engines import available_engines

    for engine in available_engines():
        for mode in PADDING_MODES:
            profile = leakage_profile(engine, mode)
            assert "n1" in profile and "n2" in profile
            if mode == "revealed":
                assert "m" in profile
            else:
                assert "m" not in profile
            # The k x k per-task output sizes left the sharded profile with
            # the grid: the join reveals the single m, like every engine.
            assert "m_ij_grid" not in profile
    with pytest.raises(KeyError, match="no leakage profile"):
        leakage_profile("gpu")


def test_sharded_profiles_are_vectors_plus_the_block_layout():
    """Every sharded operator is the ``vector`` text over the sharded sort,
    so in every mode the sharded engine reveals exactly what ``vector``
    does plus the shard count, the partition plan and the store layout."""
    layout = {"k", "partition_plan", "block_rows", "block_ids"}
    for mode in PADDING_MODES:
        sharded, vector = LEAKAGE_PROFILES[("sharded", mode)], LEAKAGE_PROFILES[("vector", mode)]
        assert len(set(sharded)) == len(sharded)
        assert set(sharded) == set(vector) | layout
        assert not set(vector) & layout


def test_leakage_doc_mentions_every_profile_symbol():
    """docs/leakage.md is the prose twin of security.LEAKAGE_PROFILES."""
    doc = (
        pathlib.Path(__file__).resolve().parent.parent / "docs" / "leakage.md"
    ).read_text(encoding="utf-8")
    for (engine, mode), symbols in LEAKAGE_PROFILES.items():
        assert engine in doc and mode in doc
        for symbol in symbols:
            assert f"`{symbol}`" in doc, f"docs/leakage.md missing `{symbol}`"


def test_leakage_doc_covers_the_service_layer_symbols():
    """The "what repetition reveals" section is SERVICE_LEAKAGE's prose twin."""
    doc = (
        pathlib.Path(__file__).resolve().parent.parent / "docs" / "leakage.md"
    ).read_text(encoding="utf-8")
    assert "What repetition reveals" in doc
    for symbol in SERVICE_LEAKAGE:
        assert f"`{symbol}`" in doc, f"docs/leakage.md missing `{symbol}`"
