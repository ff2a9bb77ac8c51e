"""The executor layer: registry, shared-memory transport, and the contract
that substrates cannot change a single output bit."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.engines import get_engine
from repro.errors import InputError
from repro.plan import (
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
    available_executors,
    completion_stream,
    get_executor,
    resolve_executor,
    submit_task,
)
from repro.plan.executors import (
    _decode,
    _pack,
    adopt_segments,
    materialize_columns,
    publish_columns,
    release_segments,
)

#: One executor of each substrate; pool at 2 workers to force the real
#: dispatch path (persistent pools are shared across the suite).
EXECUTOR_PARAMS = [
    pytest.param(InlineExecutor(), id="inline"),
    pytest.param(PoolExecutor(workers=2), id="pool"),
    pytest.param(ShuffleExecutor(seed=3), id="shuffle"),
]


def _sum_task(payload):
    """Module-level (picklable) task: fold a nested payload to one int."""
    block, real, extra = payload
    return int(block["j"][:real].sum() + block["d"][:real].sum()) + sum(extra)


def _shape_task(payload):
    """Report the dtypes/shapes/writability a worker actually received."""
    array = payload["array"]
    return (str(array.dtype), array.shape, bool(array.flags.writeable), array.tolist())


# -- registry ----------------------------------------------------------------


def test_registry_contract(tmp_path, capsys):
    """Three executors, every seam on each, and the deleted forks stay gone."""
    assert available_executors() == ["inline", "pool", "shuffle"]
    for name in available_executors():
        executor = get_executor(name, workers=2)
        assert executor.name == name
        for seam in ("map", "imap", "submit"):
            assert callable(getattr(executor, seam)), (name, seam)
        assert isinstance(executor.remote_submit, bool), name

    valid = "inline, pool, shuffle"
    with pytest.raises(InputError, match=valid):
        get_engine("sharded", executor="async")
    from repro.cli import main

    table = tmp_path / "t.csv"
    table.write_text("k,v\n1,10\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["join", str(table), str(table), "--left-on", "k", "--right-on", "k",
              "--engine", "sharded", "--executor", "async"])
    usage = capsys.readouterr().err
    assert all(name in usage for name in available_executors()), usage
    for module in ("repro.shard.executor", "repro.shard.pipeline"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


def test_get_executor_resolves_names_and_rejects_unknown():
    assert get_executor("inline").name == "inline"
    assert get_executor("pool", workers=3).workers == 3
    instance = ShuffleExecutor()
    assert get_executor(instance) is instance
    with pytest.raises(InputError, match="unknown executor"):
        get_executor("gpu")


def test_resolve_executor_default_rule():
    assert resolve_executor(None, workers=1).name == "inline"
    assert resolve_executor(None, workers=2).name == "pool"
    assert resolve_executor("shuffle", workers=2).name == "shuffle"
    with pytest.raises(InputError, match="worker count"):
        resolve_executor(None, workers=0)


# -- transport ---------------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTOR_PARAMS)
def test_every_executor_maps_in_payload_order(executor):
    payloads = [
        (
            {
                "j": np.arange(10, dtype=np.int64) * (index + 1),
                "d": np.full(10, index, dtype=np.int64),
            },
            7,
            [index, index],
        )
        for index in range(6)
    ]
    expected = [_sum_task(payload) for payload in payloads]
    assert executor.map(_sum_task, payloads) == expected


def test_pool_ships_bool_and_int_columns_faithfully():
    executor = PoolExecutor(workers=2)
    payloads = [
        {"array": np.array([True, False, True])},
        {"array": np.arange(6, dtype=np.int64).reshape(2, 3)},
        {"array": np.zeros(0, dtype=np.int64)},  # zero-size ships inline
    ]
    results = executor.map(_shape_task, payloads)
    assert results[0] == ("bool", (3,), False, [True, False, True])
    assert results[1] == ("int64", (2, 3), False, [[0, 1, 2], [3, 4, 5]])
    # Zero-size arrays bypass shared memory, so they stay writable.
    assert results[2][:2] == ("int64", (0,))


def test_pack_writes_each_distinct_array_once():
    shared = np.arange(100, dtype=np.int64)
    other = np.ones(3, dtype=np.int64)
    segment, encoded = _pack([(shared, other), (shared, 1), (shared,)])
    try:
        assert segment is not None
        refs = {ref.offset for payload in encoded for ref in payload if hasattr(ref, "offset")}
        assert len(refs) == 2  # shared written once, other once
        decoded = [_decode(payload) for payload in encoded]
        assert np.array_equal(decoded[0][0], shared)
        assert np.array_equal(decoded[0][1], other)
        assert decoded[1][1] == 1
        assert not decoded[2][0].flags.writeable
    finally:
        segment.close()
        segment.unlink()


def test_pack_without_arrays_creates_no_segment():
    segment, encoded = _pack([(1, 2), (3, 4)])
    assert segment is None
    assert encoded == [(1, 2), (3, 4)]


# -- transport reporting (the path actually taken) ----------------------------


def _payloads(count, rows=8):
    return [
        (
            {
                "j": np.arange(rows, dtype=np.int64) * (index + 1),
                "d": np.full(rows, index, dtype=np.int64),
            },
            rows - 1,
            [index],
        )
        for index in range(count)
    ]


def test_pool_transport_reflects_the_path_taken():
    # workers=1 never crosses a process boundary, whatever the batch size.
    assert PoolExecutor(workers=1).transport == "none"
    executor = PoolExecutor(workers=2)
    assert executor.transport == "shared_memory"  # configured default
    executor.map(_sum_task, _payloads(1))  # single payload -> inline shortcut
    assert executor.transport == "none"
    executor.map(_sum_task, _payloads(4))
    assert executor.transport == "shared_memory"


# -- the ordered-completion seam ----------------------------------------------


@pytest.mark.parametrize("executor", EXECUTOR_PARAMS)
def test_imap_yields_every_result_with_its_index(executor):
    payloads = _payloads(6)
    expected = {index: _sum_task(payload) for index, payload in enumerate(payloads)}
    got = dict(completion_stream(executor, _sum_task, payloads))
    assert got == expected


@pytest.mark.parametrize("executor", EXECUTOR_PARAMS)
def test_submit_returns_a_blocking_completion(executor):
    payloads = _payloads(3)
    completions = [submit_task(executor, _sum_task, p) for p in payloads]
    assert [c.result() for c in completions] == [_sum_task(p) for p in payloads]


def test_shuffle_executor_completes_in_adversarial_order():
    executor = ShuffleExecutor(seed=1)
    payloads = _payloads(8)
    order = [index for index, _ in completion_stream(executor, _sum_task, payloads)]
    assert sorted(order) == list(range(8))
    assert order != list(range(8))  # seed 1 scrambles 8 tasks
    # ... while map still returns payload order (the executor contract).
    assert executor.map(_sum_task, payloads) == [_sum_task(p) for p in payloads]


def test_completion_stream_falls_back_to_map_only_executors():
    class MapOnly:
        name = "maponly"
        transport = "none"

        def map(self, task, payloads):
            return [task(p) for p in payloads]

    payloads = _payloads(4)
    got = list(completion_stream(MapOnly(), _sum_task, payloads))
    assert got == [(i, _sum_task(p)) for i, p in enumerate(payloads)]
    assert submit_task(MapOnly(), _sum_task, payloads[0]).result() == _sum_task(
        payloads[0]
    )


# -- the cross-dispatch column cache ------------------------------------------


def _publish_task(payload):
    """Worker task: double a column and park the result in shared memory."""
    columns = {"x": payload["x"] * 2}
    return publish_columns(columns)


def _consume_refs_task(payload):
    """Worker task reading a *published* run from an earlier dispatch."""
    return int(payload["run"]["x"].sum())


def test_published_runs_cross_dispatches_without_a_parent_round_trip():
    executor = PoolExecutor(workers=2)
    array = np.arange(10, dtype=np.int64)
    encoded, segment = submit_task(
        executor, _publish_task, {"x": array}
    ).result()
    assert segment is not None
    adopt_segments([segment])  # crash-safe tracker booking on receipt
    try:
        # The parent holds refs, not bytes; a later dispatch consumes them.
        total = submit_task(
            executor, _consume_refs_task, {"run": encoded}
        ).result()
        assert total == int((array * 2).sum())
        materialized = materialize_columns(encoded)
        assert materialized["x"].tolist() == (array * 2).tolist()
    finally:
        release_segments([segment])
    release_segments([segment])  # double release is tolerated


def _attached_runs_task(_payload):
    """Worker task: how many published segments this worker has attached."""
    import os

    from repro.plan import executors

    return os.getpid(), len(executors._ATTACHED_RUNS)


def test_pooled_worker_holds_at_most_two_published_segments():
    """A merge task reads two published runs and none twice; every further
    slot would only pin a dead, already-unlinked run per worker.  A pooled
    join at k = 8 publishes four to seven runs per sort, five sorts."""
    from repro.plan import executors
    from repro.shard.join import sharded_oblivious_join

    assert executors._RUN_LIMIT == 2
    executor = PoolExecutor(workers=2)
    rows = [(k % 9, k) for k in range(64)]
    sharded_oblivious_join(rows, rows, shards=8, executor=executor)
    held = dict(executor.map(_attached_runs_task, list(range(16))))
    assert held and 1 <= max(held.values()) <= 2


def test_publish_without_arrays_creates_no_segment():
    encoded, segment = publish_columns({"empty": np.zeros(0, dtype=np.int64)})
    assert segment is None
    assert materialize_columns(encoded)["empty"].size == 0


# -- engine integration ------------------------------------------------------

LEFT = [(k % 5, k) for k in range(40)]
RIGHT = [(k % 7, 2 * k) for k in range(40)]
TABLES = [LEFT[:12], RIGHT[:12], [(d, j) for j, d in RIGHT[:6]]]
KEYS = [(0, 0), (3, 0)]
MASK = [k % 3 != 0 for k in range(40)]
COLUMNS = [([j for j, _ in LEFT], False)]


@pytest.mark.parametrize("executor", ["inline", "pool", "shuffle"])
def test_every_workload_is_bit_identical_across_executors(executor):
    """The acceptance contract: executors change wall-clock, not outputs."""
    reference = get_engine("vector")
    engine = get_engine("sharded", shards=3, workers=2, executor=executor)
    assert engine.join(LEFT, RIGHT).pairs == reference.join(LEFT, RIGHT).pairs
    assert (
        engine.multiway_join(TABLES, KEYS).rows
        == reference.multiway_join(TABLES, KEYS).rows
    )
    assert engine.aggregate(LEFT, RIGHT) == reference.aggregate(LEFT, RIGHT)
    assert engine.group_by(LEFT) == reference.group_by(LEFT)
    assert engine.filter_indices(MASK) == reference.filter_indices(MASK)
    assert engine.order_permutation(COLUMNS) == reference.order_permutation(COLUMNS)


@pytest.mark.parametrize("executor", ["inline", "pool", "shuffle"])
def test_padded_workloads_match_across_executors(executor):
    reference = get_engine("traced", padding="worst_case")
    engine = get_engine(
        "sharded", shards=2, workers=2, executor=executor, padding="worst_case"
    )
    left, right = LEFT[:10], RIGHT[:10]
    assert engine.join(left, right).pairs == reference.join(left, right).pairs
    tables = [left[:6], right[:6], [(1, 2), (2, 3)]]
    assert (
        engine.multiway_join(tables, KEYS).rows
        == reference.multiway_join(tables, KEYS).rows
    )
    assert engine.filter_indices(MASK[:10]) == reference.filter_indices(MASK[:10])


def test_engine_executor_option_roundtrip():
    engine = get_engine("sharded", executor="shuffle", workers=2, shards=3)
    assert engine.executor.name == "shuffle"
    copy = engine.with_options(workers=4)
    assert copy.executor.name == "shuffle" and copy.workers == 4
    repadded = engine.with_options(executor="pool")
    assert repadded.executor.name == "pool"
    assert "executor" in type(engine).OPTIONS


def test_engine_rejects_unknown_executor():
    with pytest.raises(InputError, match="unknown executor"):
        get_engine("sharded", executor="gpu")
    with pytest.raises(InputError, match="engine options"):
        get_engine("vector", executor="pool")


def test_db_layer_threads_executor_through():
    from repro.db.query import ObliviousEngine
    from repro.db.schema import Schema
    from repro.db.table import DBTable

    schema = Schema.of("k:int", "v:int")
    left = DBTable(schema, [(k % 3, k) for k in range(9)])
    right = DBTable(Schema.of("k:int", "w:int"), [(k % 3, 10 * k) for k in range(9)])
    sharded = ObliviousEngine(engine="sharded", executor="shuffle", shards=2)
    plain = ObliviousEngine(engine="traced")
    assert (
        sharded.join(left, right, on=("k", "k")).rows
        == plain.join(left, right, on=("k", "k")).rows
    )


def test_cli_join_accepts_executor_flag(tmp_path, capsys):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text("k,v\n1,10\n2,20\n", encoding="utf-8")
    right.write_text("k,w\n1,5\n1,6\n", encoding="utf-8")
    from repro.cli import main

    assert (
        main(
            ["join", str(left), str(right), "--left-on", "k", "--right-on", "k",
             "--engine", "sharded", "--executor", "shuffle"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "l.k,v,r.k,w"
    assert len(out.splitlines()) == 3
