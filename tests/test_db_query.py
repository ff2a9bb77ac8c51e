"""The oblivious query engine: relational integration tests."""

import os

import pytest

from repro.db.query import ObliviousEngine
from repro.db.table import DBTable
from repro.engines import available_engines
from repro.errors import InputError, SchemaError
from repro.memory.tracer import HashSink, Tracer


@pytest.fixture
def engine():
    return ObliviousEngine()


@pytest.fixture
def patients():
    return DBTable.from_rows(
        ["pid:int", "name:str", "age:int"],
        [(1, "ana", 34), (2, "bo", 41), (3, "cy", 29)],
    )


@pytest.fixture
def prescriptions():
    return DBTable.from_rows(
        ["pid:int", "drug:str", "cost:int"],
        [(1, "aspirin", 5), (1, "statin", 30), (3, "insulin", 90), (9, "orphan", 1)],
    )


def test_join_produces_combined_rows(engine, patients, prescriptions):
    joined = engine.join(patients, prescriptions, on=("pid", "pid"))
    assert len(joined) == 3
    assert joined.schema.names() == [
        "l.pid", "name", "age", "r.pid", "drug", "cost",
    ]
    drugs = sorted(row[4] for row in joined.rows)
    assert drugs == ["aspirin", "insulin", "statin"]


def test_join_on_string_keys(engine):
    left = DBTable.from_rows(["city:str", "pop:int"], [("ams", 1), ("ber", 2)])
    right = DBTable.from_rows(["city:str", "code:int"], [("ber", 49), ("par", 33)])
    joined = engine.join(left, right, on=("city", "city"))
    assert len(joined) == 1
    assert joined.rows[0][0] == "ber"


def test_join_empty_result(engine, patients):
    other = DBTable.from_rows(["pid:int", "x:int"], [(99, 0)])
    assert len(engine.join(patients, other, on=("pid", "pid"))) == 0


def test_filter_reveals_only_count(engine, patients):
    filtered = engine.filter(patients, lambda row: row[2] >= 34)
    assert sorted(r[1] for r in filtered.rows) == ["ana", "bo"]
    assert filtered.schema == patients.schema


def test_filter_preserves_row_order(engine, patients):
    filtered = engine.filter(patients, lambda row: row[0] != 2)
    assert [r[0] for r in filtered.rows] == [1, 3]


def test_filter_empty_table(engine):
    empty = DBTable.from_rows(["x:int"], [])
    assert len(engine.filter(empty, lambda r: True)) == 0


def test_order_by_single_and_multi(engine, patients):
    by_age = engine.order_by(patients, [("age", True)])
    assert [r[2] for r in by_age.rows] == [29, 34, 41]
    by_age_desc = engine.order_by(patients, [("age", False)])
    assert [r[2] for r in by_age_desc.rows] == [41, 34, 29]


def test_order_by_string_column(engine, patients):
    by_name = engine.order_by(patients, [("name", True)])
    assert [r[1] for r in by_name.rows] == ["ana", "bo", "cy"]


def test_order_by_no_columns_is_identity(patients):
    for name in ("traced", "vector", "sharded"):
        unchanged = ObliviousEngine(engine=name).order_by(patients, [])
        assert unchanged.rows == patients.rows


def test_group_by_aggregates(engine, prescriptions):
    grouped = engine.group_by(prescriptions, key="pid", value="cost")
    by_key = {row[0]: row for row in grouped.rows}
    assert by_key[1] == (1, 2, 35, 5, 30)
    assert by_key[3] == (3, 1, 90, 90, 90)


def test_group_by_string_key(engine):
    table = DBTable.from_rows(
        ["dept:str", "salary:int"],
        [("eng", 100), ("eng", 120), ("hr", 90)],
    )
    grouped = engine.group_by(table, key="dept", value="salary")
    by_dept = {row[0]: row for row in grouped.rows}
    assert by_dept["eng"][1] == 2 and by_dept["eng"][2] == 220
    assert by_dept["hr"][4] == 90


def test_group_by_requires_int_value(engine, patients):
    with pytest.raises(SchemaError):
        engine.group_by(patients, key="pid", value="name")


def test_join_aggregate_without_materialisation(engine, patients, prescriptions):
    agg = engine.join_aggregate(
        patients, prescriptions, on=("pid", "pid"), values=("age", "cost")
    )
    by_key = {row[0]: row for row in agg.rows}
    # pid 1: two joined rows; sum(age) = 68; sum(cost) = 35.
    assert by_key[1][1] == 2 and by_key[1][2] == 68 and by_key[1][3] == 35
    assert 9 not in by_key  # orphan prescription has no patient


def test_multiway_join_chain(engine):
    customers = DBTable.from_rows(["cid:int", "cname:str"], [(1, "ana"), (2, "bo")])
    orders = DBTable.from_rows(["oid:int", "cid:int"], [(10, 1), (11, 1), (12, 2)])
    lines = DBTable.from_rows(["oid:int", "sku:str"], [(10, "a"), (12, "b"), (12, "c")])
    result = engine.multiway_join(
        [customers, orders, lines], on=[("cid", "cid"), ("oid", "oid")]
    )
    assert len(result) == 3
    names = sorted(row[1] for row in result.rows)
    assert names == ["ana", "bo", "bo"]


def test_multiway_validation(engine, patients):
    with pytest.raises(SchemaError):
        engine.multiway_join([patients], on=[])


def test_engine_operations_share_one_tracer():
    sink = HashSink()
    engine = ObliviousEngine(tracer=Tracer(sink))
    left = DBTable.from_rows(["k:int", "v:int"], [(1, 1)])
    right = DBTable.from_rows(["k:int", "w:int"], [(1, 2)])
    engine.join(left, right, on=("k", "k"))
    assert sink.count > 0


def test_a_filter_join_group_by_chain_agrees_on_every_engine():
    """A query chain is the db operators called one at a time, each on the
    table the one before returned; every engine answers it alike."""
    source = DBTable.from_rows(
        ["k:int", "v:int"], [(1, 10), (2, 20), (1, 30), (3, 40), (2, 50)]
    )
    right = DBTable.from_rows(["k:int", "w:int"], [(1, 5), (2, 6), (1, 7)])
    for name in ("traced", "vector", "sharded"):
        engine = ObliviousEngine(engine=name)
        survivors = engine.filter(source, lambda row: row[1] >= 20)
        joined = engine.join(survivors, right, on=("k", "k"))
        result = engine.group_by(joined, "v", "w")
        # Survivors (2,20), (1,30), (3,40), (2,50) join 1 + 2 + 0 + 1 ways.
        assert [len(survivors), len(joined), len(result)] == [4, 4, 3], name
        assert result.schema.names() == ["v", "count", "sum_w", "min_w", "max_w"]
        assert result.rows == [(20, 1, 6, 6, 6), (30, 2, 12, 5, 7), (50, 1, 6, 6, 6)]


def test_query_trace_independent_of_data():
    """End-to-end §6.1 experiment at the SQL layer."""

    def run(rows_left, rows_right):
        sink = HashSink()
        engine = ObliviousEngine(tracer=Tracer(sink))
        left = DBTable.from_rows(["k:int", "v:int"], rows_left)
        right = DBTable.from_rows(["k:int", "w:int"], rows_right)
        engine.join(left, right, on=("k", "k"))
        return sink.hexdigest

    a = run([(1, 10), (2, 20)], [(1, 5), (3, 6)])
    b = run([(8, 99), (9, 11)], [(9, 1), (4, 2)])
    assert a == b  # same (n1, n2, m) class


KEY_ENGINES = [
    name
    for name in available_engines()
    if name in os.environ.get("REPRO_ENGINES", ",".join(available_engines())).split(",")
]


@pytest.mark.parametrize("engine_name", KEY_ENGINES)
def test_key_columns_of_different_types_are_refused_before_encoding(engine_name):
    # An int key would reach the engine raw and a str key as dictionary
    # codes, so int 1 would meet the code of "y".
    ints = DBTable.from_rows(["k:int", "v:int"], [(1, 5), (2, 6)])
    strs = DBTable.from_rows(["k:str", "w:int"], [("x", 10), ("y", 20)])
    engine = ObliviousEngine(engine=engine_name)
    for left, right, message in (
        (ints, strs, r"'k' \(int\) and 'k' \(str\)"),
        (strs, ints, r"'k' \(str\) and 'k' \(int\)"),
    ):
        calls = {
            "join": lambda: engine.join(left, right, ("k", "k")),
            "join_aggregate": lambda: engine.join_aggregate(
                left, right, ("k", "k"), (left.schema.names()[1], right.schema.names()[1])
            ),
            "multiway_join": lambda: engine.multiway_join([left, right], [("k", "k")]),
            "join_tree": lambda: engine.join_tree([left, right], [(0, 1, "k", "k")]),
        }
        for name, call in calls.items():
            with pytest.raises(SchemaError, match=message):
                call()
            assert len(engine.encoder) == 0, name


def test_a_join_tree_key_column_out_of_range_stays_an_input_error():
    table = DBTable.from_rows(["k:int", "v:int"], [(1, 5), (2, 6)])
    engine = ObliviousEngine(engine="vector")
    for edge in ((0, 1, 5, 0), (0, 1, 0, 7)):
        with pytest.raises(InputError, match="out of range"):
            engine.join_tree([table, table], [edge])


@pytest.mark.parametrize("engine_name", KEY_ENGINES)
def test_a_refused_join_tree_encodes_nothing(engine_name):
    """The tree is checked against the tables' widths before any str
    column is dictionary-encoded."""
    table = DBTable.from_rows(["k:int", "name:str"], [(1, "a"), (2, "b")])
    engine = ObliviousEngine(engine=engine_name)
    with pytest.raises(InputError, match="out of range"):
        engine.join_tree([table, table], [(0, 1, 5, 0)])
    assert len(engine.encoder) == 0
