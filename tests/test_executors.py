"""The executor layer: registry, the thread pool and its worker limit, and
the contract that substrates cannot change a single output bit."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engines import get_engine
from repro.errors import InputError
from repro.plan import (
    InlineExecutor,
    PoolExecutor,
    ShuffleExecutor,
    available_executors,
    get_executor,
    partition,
    resolve_executor,
)
from repro.plan.executors import MAX_POOL_WORKERS, executor_stats, warm_pool
from repro.shard import sort as sort_module
from repro.shard.sort import sharded_sort

#: The shipped block threshold, bound at import: the pool matrix's autouse
#: fixture (conftest.py) moves the live one to 0 before each test.
SHIPPED_MIN_BLOCK_ROWS = partition.MIN_BLOCK_ROWS

#: One executor of each substrate; pool at 2 workers (persistent pools are
#: shared across the suite).
EXECUTOR_PARAMS = [
    pytest.param(InlineExecutor(), id="inline"),
    pytest.param(PoolExecutor(workers=2), id="pool"),
    pytest.param(ShuffleExecutor(seed=3), id="shuffle"),
]


def _sum_task(payload):
    """Fold a nested payload to one int."""
    block, real, extra = payload
    return int(block["j"][:real].sum() + block["d"][:real].sum()) + sum(extra)


def _shape_task(payload):
    """Report the dtype, shape and values a worker actually received."""
    array = payload["array"]
    return (str(array.dtype), array.shape, array.tolist())


# -- registry ----------------------------------------------------------------


def test_registry_contract(tmp_path, capsys):
    """Three executors, ``map`` on each, and the deleted forks stay gone."""
    assert available_executors() == ["inline", "pool", "shuffle"]
    for name in available_executors():
        executor = get_executor(name, workers=2)
        assert executor.name == name
        assert callable(executor.map), name

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
        {"array": np.zeros(0, dtype=np.int64)},
    ]
    assert executor.map(_shape_task, payloads) == [
        ("bool", (3,), [True, False, True]),
        ("int64", (2, 3), [[0, 1, 2], [3, 4, 5]]),
        ("int64", (0,), []),
    ]


# -- the block rule -----------------------------------------------------------


#: The sharded sort's block task, before any test patches it.
_SORT_TASK = sort_module._sort_task


@pytest.mark.parametrize("block", [2**16 - 1, 2**16])
def test_a_pooled_sharded_sort_straddling_the_threshold_equals_inline(
    monkeypatch, block
):
    """Two blocks' worth of rows one under and at the threshold: one block
    sorted in the caller, then two on the threads, and the sort is inline's
    bit for bit."""
    monkeypatch.setattr(partition, "MIN_BLOCK_ROWS", SHIPPED_MIN_BLOCK_ROWS)
    idents = []

    def recording_sort_task(payload):
        idents.append(threading.get_ident())
        return _SORT_TASK(payload)

    rng = np.random.default_rng(block)
    n = 2 * block
    columns = {"k": rng.integers(0, 2**40, n), "v": np.arange(n, dtype=np.int64)}
    keys = [("k", True, 40)]
    counters = [0], [0]
    expected = sharded_sort(columns, keys, counters[0], shards=2, executor=InlineExecutor())
    monkeypatch.setattr(sort_module, "_sort_task", recording_sort_task)
    pooled = sharded_sort(columns, keys, counters[1], shards=2, executor=PoolExecutor(workers=2))
    for name in columns:
        np.testing.assert_array_equal(pooled[name], expected[name])
    assert counters[0] == counters[1]
    caller = threading.get_ident()
    if block < SHIPPED_MIN_BLOCK_ROWS:
        assert idents == [caller]
    else:
        assert len(idents) == 2 and caller not in idents


# -- the shuffled execution order --------------------------------------------


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


def test_shuffle_executor_completes_in_adversarial_order():
    """(The id predates the barrier.)  ``shuffle`` *executes* the tasks in a
    seeded scrambled order and still returns payload order."""
    executor = ShuffleExecutor(seed=1)
    payloads = _payloads(8)
    ran = []

    def task(payload):
        ran.append(payload[2][0])
        return _sum_task(payload)

    assert executor.map(task, payloads) == [_sum_task(p) for p in payloads]
    assert sorted(ran) == list(range(8))
    assert ran != list(range(8))  # seed 1 scrambles 8 tasks
    # The same seed replays the same order; the next dispatch draws another.
    replay, again = [], []
    ShuffleExecutor(seed=1).map(lambda p: replay.append(p[2][0]), payloads)
    executor.map(lambda p: again.append(p[2][0]), payloads)
    assert replay == ran and again != ran


# -- the worker limit, one process and the deleted transport ------------------


def test_a_pool_refuses_more_workers_than_its_limit():
    """A hostile worker count fails at construction, before any thread starts;
    the substrates that start nothing take any count."""
    threads = threading.active_count()
    limit = f"at most {MAX_POOL_WORKERS} workers"
    for build in (
        lambda: get_engine("sharded", workers=MAX_POOL_WORKERS + 1),
        lambda: get_engine("sharded", workers=MAX_POOL_WORKERS + 1, executor="pool"),
        lambda: PoolExecutor(workers=MAX_POOL_WORKERS + 1),
        lambda: warm_pool(MAX_POOL_WORKERS + 1),
    ):
        with pytest.raises(InputError, match=limit):
            build()
    assert MAX_POOL_WORKERS + 1 not in executor_stats()["pools"]
    assert PoolExecutor(workers=MAX_POOL_WORKERS).workers == MAX_POOL_WORKERS
    for name in ("inline", "shuffle"):
        engine = get_engine("sharded", workers=MAX_POOL_WORKERS + 1, executor=name)
        assert engine.executor.workers == MAX_POOL_WORKERS + 1
    assert threading.active_count() == threads


#: Two threads, 15 pooled sharded joins each, racing the first dispatch: one
#: thread pool serves both, every row equals ``vector``'s, no child process is
#: started, and the resource tracker has nothing to say.
THREADED_JOINS = """
import multiprocessing, sys, threading
from repro.engines import get_engine
from repro.plan import partition

sys.setswitchinterval(1e-6)  # switch threads often: race the first dispatch
partition.MIN_BLOCK_ROWS = 0  # four blocks per sort, however small

rows = [(k % 1000, k) for k in range(2000)]
expected = get_engine("vector").join(rows, rows).pairs
engine = get_engine("sharded", shards=4, workers=2, executor="pool")
wrong = []

def dispatch():
    for _ in range(15):
        if engine.join(rows, rows).pairs != expected:
            wrong.append(threading.get_ident())

threads = [threading.Thread(target=dispatch) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=240)
    assert not thread.is_alive(), "a dispatching thread hung"
assert not wrong, wrong
assert len(multiprocessing.active_children()) == 0, multiprocessing.active_children()
"""


def test_two_threads_dispatch_on_one_pool_with_no_tracker_warning():
    src = str(Path(importlib.import_module("repro").__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", THREADED_JOINS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "resource_tracker" not in result.stderr, result.stderr


def test_more_pool_threads_than_cores_join_like_vector(blocks_at_any_size):
    """Four worker threads on a short switch interval sort eight blocks per
    pass: a block written by the wrong thread would change a row."""
    rows = [(k % 97, k) for k in range(3000)]
    expected = get_engine("vector").join(rows, rows).pairs
    engine = get_engine("sharded", shards=8, workers=4, executor="pool")
    joined = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: joined.extend(engine.join(rows, rows).pairs for _ in range(4))
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "a pooled join hung"
    assert joined == [expected] * 4


#: One thread registers 3 000 warm executors while another reads the stats:
#: the read must never see the registry change size mid-iteration.
STATS_RACE = """
import sys, threading
from repro.plan.executors import executor_stats, warm_executor

sys.setswitchinterval(1e-6)  # switch threads often: race the registry
done = threading.Event()
errors = []

def register():
    try:
        for workers in range(1, 3001):
            warm_executor("inline", workers=workers)
    finally:
        done.set()

def read():
    while not done.is_set():
        try:
            executor_stats()
        except RuntimeError as error:
            errors.append(repr(error))
            return

threads = [threading.Thread(target=register), threading.Thread(target=read)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
    assert not thread.is_alive(), "a racing thread hung"
assert not errors, errors
assert len(executor_stats()["warm_executors"]) == 3000
"""


def test_executor_stats_reads_the_warm_registry_under_its_lock():
    src = str(Path(importlib.import_module("repro").__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", STATS_RACE],
        capture_output=True, text=True, env=env, timeout=180,
    )
    assert result.returncode == 0, result.stderr


def test_the_shared_memory_transport_is_gone():
    """Payloads and results travel pickled: no arena, no published runs, no
    resource-tracker patch, and no executor reports a transport."""
    from repro.plan import executors
    from repro.shard import merge

    for name in (
        "_ArrayRef", "_borrowed_segment_ownership", "_map_tree", "_encode",
        "_pack", "_rename", "_attach", "_decode", "_run_encoded",
        "_ATTACHED_ARENAS", "_ARENA_LIMIT", "_ATTACHED_RUNS", "_RUN_LIMIT",
        "_RUN_BYTES_LIMIT", "publish_columns", "adopt_segments",
        "materialize_columns", "release_segments", "_PoolCompletion",
        "_published_result_segments", "_pool_imap", "_pool_submit",
    ):
        assert not hasattr(executors, name), name
        assert not hasattr(merge, name), name
    for name in available_executors():
        executor = get_executor(name, workers=2)
        assert not hasattr(executor, "transport"), name
        assert not hasattr(executor, "remote_submit"), name
    assert "transport" not in executors.Executor.__annotations__
    run, comparators = merge.merge_pair_task(
        ({"x": np.array([1, 3])}, {"x": np.array([2])}, [("x", True)])
    )
    assert run["x"].tolist() == [1, 2, 3] and comparators > 0
    root = Path(executors.__file__).parents[1]
    for package in ("plan", "shard"):
        for path in (root / package).glob("*.py"):
            text = path.read_text(encoding="utf-8")
            for module in ("shared_memory", "resource_tracker"):
                assert module not in text, (path.name, module)


# -- engine integration ------------------------------------------------------

LEFT = [(k % 5, k) for k in range(40)]
RIGHT = [(k % 7, 2 * k) for k in range(40)]
TABLES = [LEFT[:12], RIGHT[:12], [(d, j) for j, d in RIGHT[:6]]]
KEYS = [(0, 0), (3, 0)]
MASK = [k % 3 != 0 for k in range(40)]
COLUMNS = [([j for j, _ in LEFT], False)]


@pytest.mark.parametrize("executor", ["inline", "pool", "shuffle"])
def test_every_workload_is_bit_identical_across_executors(executor, blocks_at_any_size):
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
def test_padded_workloads_match_across_executors(executor, blocks_at_any_size):
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
