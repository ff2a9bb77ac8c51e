"""Service-layer tests: the encoding cache, warm pools, the serve protocol.

The load-bearing property is that caching is *invisible* in every output:
an encoding-cache hit changes no result row, and a warm engine answers
exactly what a cold one would — across engines, executors, and concurrent
admission.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
import threading

import pytest
from conftest import shm_segments

from repro.db.encoding_cache import EncodingCache
from repro.db.query import ObliviousEngine
from repro.db.table import DBTable
from repro.errors import BoundError, InputError
from repro.service import QueryServer, ServiceClient, ServiceEngine, ServiceError
from repro.service.server import MAX_REQUEST_BYTES
from repro.shard import sort as sort_module


def _tables():
    left = DBTable.from_rows(
        ["k:str", "v:int"],
        [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5), ("d", 6)],
    )
    right = DBTable.from_rows(
        ["k:str", "w:int"],
        [("a", 10), ("c", 20), ("a", 30), ("e", 40)],
    )
    return left, right


# -- encoding cache ----------------------------------------------------------


def test_multiway_prewarm_pass_runs_once_across_calls():
    """Satellite fix: the encoder pre-warm pass used to re-scan every base
    table on every multiway call; now it runs once per table version."""
    tables = [
        DBTable.from_rows(["k:str", "a:int"], [("x", 1), ("y", 2), ("z", 3)]),
        DBTable.from_rows(["k:str", "b:int"], [("x", 4), ("y", 5)]),
        DBTable.from_rows(["k:str", "c:int"], [("y", 6), ("w", 7)]),
    ]
    on = [("k", "k"), ("t0.k", "k")]
    engine = ObliviousEngine()
    first = engine.multiway_join(tables, on)
    cold_passes = engine.encoding.stats["encode_passes"]
    second = engine.multiway_join(tables, on)
    warm_passes = engine.encoding.stats["encode_passes"] - cold_passes
    assert first.rows == second.rows
    # The three base-table pre-warm scans are cached, and the cascade
    # encodes no intermediate table.
    assert warm_passes < cold_passes


def test_join_tree_adds_zero_encode_passes_when_warm():
    tables = [
        DBTable.from_rows(["k:str", "a:int"], [("x", 1), ("y", 2)]),
        DBTable.from_rows(["k:str", "b:int"], [("x", 3), ("y", 4), ("x", 5)]),
    ]
    tree = [(0, 1, "k", "k")]
    engine = ObliviousEngine(engine="vector")
    first = engine.join_tree(tables, tree)
    cold_passes = engine.encoding.stats["encode_passes"]
    assert cold_passes > 0
    second = engine.join_tree(tables, tree)
    assert engine.encoding.stats["encode_passes"] == cold_passes
    assert first.rows == second.rows


@pytest.mark.parametrize("padding", ["revealed", "worst_case"])
def test_padded_multiway_adds_zero_encode_passes_when_warm(padding):
    """Two steps, so a cascade that encoded its intermediate table would
    pay a pass on every call."""
    tables = [
        DBTable.from_rows(["k:str", "a:int"], [("x", 1), ("y", 2)]),
        DBTable.from_rows(["k:str", "b:int"], [("x", 3), ("y", 4)]),
        DBTable.from_rows(["k:str", "c:int"], [("y", 5), ("x", 6)]),
    ]
    on = [("k", "k"), ("t1.k", "k")]
    engine = ObliviousEngine(engine="vector", padding=padding)
    first = engine.multiway_join(tables, on)
    cold_passes = engine.encoding.stats["encode_passes"]
    second = engine.multiway_join(tables, on)
    assert engine.encoding.stats["encode_passes"] == cold_passes
    assert first.rows == second.rows


def test_table_mutation_invalidates_cached_encodings():
    cache = EncodingCache()
    engine = ObliviousEngine(encoding_cache=cache)
    table = DBTable.from_rows(["k:str", "v:int"], [("a", 1), ("b", 2)])
    assert engine._encode_key(table, "k") == engine._encode_key(table, "k")
    passes = cache.stats["encode_passes"]
    table.append_row(("c", 3))
    keys = engine._encode_key(table, "k")
    assert len(keys) == 3
    assert cache.stats["encode_passes"] == passes + 1  # re-scanned once


def test_encoding_cache_keys_by_table_version_not_contents():
    cache = EncodingCache()
    encoder = ObliviousEngine().encoder
    table = DBTable.from_rows(["k:str"], [("a",), ("b",)])
    first = cache.key_handle_pairs(table, "k", encoder)
    again = cache.key_handle_pairs(table, "k", encoder)
    assert first is again  # identity: a hit rebuilds nothing
    table.touch()
    assert cache.key_handle_pairs(table, "k", encoder) is not first


# -- the service engine ------------------------------------------------------


SERVICE_CONFIGS = [
    ("traced", {}),
    ("vector", {}),
    ("sharded", {"shards": 3}),
    ("sharded", {"shards": 2, "workers": 2, "executor": "pool"}),
]


@pytest.mark.parametrize("engine,options", SERVICE_CONFIGS)
def test_service_warm_results_bit_identical_to_cold(engine, options, blocks_at_any_size):
    left, right = _tables()
    reference = ObliviousEngine(engine=engine, **options).join(
        left, right, ("k", "k")
    )
    spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
    with ServiceEngine(engine=engine, **options) as service:
        service.register_table("l", left)
        service.register_table("r", right)
        cold = service.query(spec)
        warm = service.query(spec)
    assert cold.table.schema == reference.schema
    assert cold.table.rows == reference.rows  # exact order: bit-identical
    assert warm.table.rows == reference.rows
    assert warm.stats.warm
    assert warm.stats.encoding_cache["encode_passes"] == 0


def test_service_ops_match_direct_engine_calls():
    left, right = _tables()
    direct = ObliviousEngine(engine="vector")
    with ServiceEngine(engine="vector") as service:
        service.register_table("l", left)
        service.register_table("r", right)
        cases = [
            (
                {"op": "group_by", "table": "l", "key": "k", "value": "v"},
                direct.group_by(left, "k", "v"),
            ),
            (
                {
                    "op": "join_aggregate",
                    "left": "l",
                    "right": "r",
                    "on": ["k", "k"],
                    "values": ["v", "w"],
                },
                direct.join_aggregate(left, right, ("k", "k"), ("v", "w")),
            ),
            (
                {
                    "op": "order_by",
                    "table": "l",
                    "columns": [["v", False]],
                },
                direct.order_by(left, [("v", False)]),
            ),
            (
                {
                    "op": "filter",
                    "table": "l",
                    "column": "v",
                    "cmp": "gt",
                    "value": 2,
                },
                direct.filter(left, lambda row: row[1] > 2),
            ),
            (
                {
                    "op": "multiway_join",
                    "tables": ["l", "r"],
                    "on": [["k", "k"]],
                },
                direct.multiway_join([left, right], [("k", "k")]),
            ),
            (
                {
                    "op": "join_tree",
                    "tables": ["l", "r"],
                    "tree": [[0, 1, "k", "k"]],
                },
                direct.join_tree([left, right], [(0, 1, "k", "k")]),
            ),
        ]
        for spec, expected in cases:
            result = service.query(spec)
            assert result.table.rows == expected.rows, spec["op"]


def test_service_rejects_unknown_ops_and_tables():
    with ServiceEngine() as service:
        with pytest.raises(InputError, match="unknown query op"):
            service.query({"op": "drop_table"})
        with pytest.raises(InputError, match="unknown table"):
            service.query(
                {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
            )


def test_concurrent_submissions_bit_identical_to_serial():
    left, right = _tables()
    specs = [
        {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]},
        {"op": "group_by", "table": "l", "key": "k", "value": "v"},
        {"op": "order_by", "table": "r", "columns": [["w", True]]},
        {"op": "filter", "table": "l", "column": "v", "cmp": "le", "value": 3},
    ] * 3
    with ServiceEngine(engine="vector") as service:
        service.register_table("l", left)
        service.register_table("r", right)
        serial = [service.query(spec).table.rows for spec in specs]

    with ServiceEngine(engine="vector") as service:
        service.register_table("l", left)
        service.register_table("r", right)

        async def fan_out():
            return await asyncio.gather(
                *(service.submit(spec) for spec in specs)
            )

        concurrent = asyncio.run(fan_out())
        assert service.queries == len(specs)
    assert [result.table.rows for result in concurrent] == serial


def test_warm_pool_survives_bound_abort_without_leaking(shm_leak_guard, blocks_at_any_size):
    """Satellite fix: a BoundError between publish and tournament adoption
    must return the warm pool to a clean, reusable state — no residual
    /dev/shm segments, and the very next query on the same pool succeeds."""
    overlap = [("a", value) for value in range(8)]
    left = DBTable.from_rows(["k:str", "v:int"], overlap)
    right = DBTable.from_rows(["k:str", "w:int"], overlap)
    spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
    with ServiceEngine(
        engine="sharded",
        shards=2,
        workers=2,
        executor="pool",
        padding="bounded",
        bound=4,
    ) as service:
        service.register_table("l", left)
        service.register_table("r", right)
        with pytest.raises(BoundError):
            service.query(spec)  # 64 matches >> bound of 4
        small = DBTable.from_rows(["k:str", "v:int"], [("a", 1), ("b", 2)])
        service.register_table("l", small)
        service.register_table("r", small)
        result = service.query(spec)
        assert sorted(result.table.rows) == [
            ("a", 1, "a", 1),
            ("b", 2, "b", 2),
        ]
    # neither the aborted query nor the one after it left a segment
    assert not (shm_segments() - shm_leak_guard)


_SORT_TASK = sort_module._sort_task


def test_sharded_pool_service_holds_no_segment_between_queries(
    monkeypatch, shm_leak_guard, blocks_at_any_size
):
    idents = set()

    def recording_sort_task(payload):
        """The sharded sort's block task, noting the thread it ran on."""
        idents.add(threading.get_ident())
        return _SORT_TASK(payload)

    monkeypatch.setattr(sort_module, "_sort_task", recording_sort_task)
    left, right = _tables()
    spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
    with ServiceEngine(
        engine="sharded", shards=2, workers=2, executor="pool"
    ) as service:
        service.register_table("l", left)
        service.register_table("r", right)
        for _ in range(3):
            service.query(spec)
            assert not (shm_segments() - shm_leak_guard)
    assert idents and threading.get_ident() not in idents  # every block sorted on a worker


def _module_state() -> dict:
    """Every module-level binding of the layers a query runs through, and a
    copy of each registry bound there."""
    state = {}
    for name in (
        "repro.plan.compile",
        "repro.plan.ir",
        "repro.plan.partition",
        "repro.plan.executors",
        "repro.shard.partition",
        "repro.db.encoding_cache",
        "repro.store.runtime",
    ):
        for attr, value in vars(importlib.import_module(name)).items():
            if attr.startswith("__"):
                continue
            contents = dict(value) if isinstance(value, dict) else None
            state[name, attr] = (id(value), contents)
    return state


def test_two_services_share_a_process():
    left, right = _tables()
    specs = [
        {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]},
        {"op": "group_by", "table": "l", "key": "k", "value": "v"},
        {"op": "multiway_join", "tables": ["l", "r"], "on": [["k", "k"]]},
    ]
    cold = ObliviousEngine(engine="vector")
    expected = [
        cold.join(left, right, ("k", "k")).rows,
        cold.group_by(left, "k", "v").rows,
        cold.multiway_join([left, right], [("k", "k")]).rows,
    ]
    vector = ServiceEngine(engine="vector")
    sharded = ServiceEngine(engine="sharded", shards=2)
    before = _module_state()
    with sharded:
        with vector:
            for service in (vector, sharded):
                service.register_table("l", left)
                service.register_table("r", right)
            for _ in range(2):
                for spec, rows in zip(specs, expected):
                    assert vector.query(spec).table.rows == rows
                    assert sharded.query(spec).table.rows == rows
            assert _module_state() == before
        # `vector` is closed; the survivor is intact and still warm.
        hits = sharded.encoding.snapshot()["hits"]
        for spec, rows in zip(specs, expected):
            result = sharded.query(spec)
            assert result.table.rows == rows
            assert result.stats.warm
        assert sharded.encoding.snapshot()["hits"] > hits
        # A closed service lost its cached encodings, nothing else.
        assert not vector.query(specs[0]).stats.warm
        assert vector.query(specs[0]).table.rows == expected[0]
    assert _module_state() == before


def test_the_cross_query_cache_surface_is_gone():
    """Names in two halves, so that a grep for them over src/tests/docs
    stays empty."""
    for module, name in (
        ("repro.plan", "set_plan" "_memo"),
        ("repro.plan", "host_" "publish_arrays"),
        ("repro.shard.partition", "set_partition" "_cache"),
        ("repro.service", "Plan" "Cache"),
    ):
        assert not hasattr(importlib.import_module(module), name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.plan." "memo")
    assert "plan_cache" not in inspect.signature(ServiceEngine).parameters
    with pytest.raises(InputError, match="options are padding, bound"):
        ServiceEngine(plan_cache=None)  # just an unknown engine option now
    with pytest.raises(TypeError):
        EncodingCache(publish=True)
    assert not hasattr(ServiceEngine, "start")


# -- the server/client protocol ----------------------------------------------


class _ServerThread:
    """Run a QueryServer on a private event loop in a daemon thread."""

    def __init__(self, service: ServiceEngine) -> None:
        self.service = service
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main():
            server = await QueryServer(self.service, port=0).start()
            self.port = server.port
            self._ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=30), "server never came up"
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join(timeout=30)


def test_server_roundtrip_with_warm_hit_on_second_query():
    left, right = _tables()
    spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
    reference = ObliviousEngine(engine="vector").join(left, right, ("k", "k"))
    with _ServerThread(ServiceEngine(engine="vector")) as server:
        with ServiceClient(port=server.port) as client:
            assert client.ping()
            client.register_table("l", left)
            client.register_table("r", right)
            assert client.tables() == ["l", "r"]
            cold_table, cold_stats = client.query(spec)
            warm_table, warm_stats = client.query(spec)
            assert cold_table.rows == reference.rows
            assert warm_table.rows == reference.rows
            assert not cold_stats["warm"]
            assert warm_stats["warm"]
            assert warm_stats["encoding_cache"]["hits"] > 0
            assert warm_stats["encoding_cache"]["misses"] == 0
            stats = client.stats()
            assert stats["queries"] == 2
            assert stats["encoding_cache"]["hits"] > 0
            with pytest.raises(ServiceError, match="unknown table"):
                client.query({"op": "join", "left": "nope", "right": "r",
                              "on": ["k", "k"]})
            client.shutdown()


def test_server_registration_replaces_and_invalidates():
    left, right = _tables()
    spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
    with _ServerThread(ServiceEngine(engine="vector")) as server:
        with ServiceClient(port=server.port) as client:
            client.register_table("l", left)
            client.register_table("r", right)
            first, _ = client.query(spec)
            assert len(first) > 0
            empty = DBTable.from_rows(["k:str", "v:int"], [])
            client.register_table("l", empty)
            second, _ = client.query(spec)
            assert len(second) == 0
            client.shutdown()


def test_server_answers_every_bad_request_and_keeps_the_connection(
    monkeypatch, caplog
):
    """A non-object line, an out-of-int64 cell, a ``true`` in an int column
    and an unexpected exception each get exactly one ``ok: false`` line; the
    connection then still answers a ping (a second, stale line would
    surface there)."""
    service = ServiceEngine(engine="vector")
    with _ServerThread(service) as server:
        with ServiceClient(port=server.port) as client:
            for payload in ([1], "ping"):
                with pytest.raises(ServiceError, match="JSON object") as failure:
                    client.request(payload)
                assert failure.value.kind == "InputError"
                assert client.ping()

            huge = {"op": "register", "name": "t", "specs": ["k:int", "v:int"],
                    "rows": [[1, 2], [2**70, 3]]}
            with pytest.raises(ServiceError, match="'k'.*int64") as failure:
                client.request(huge)
            assert failure.value.kind == "SchemaError"
            assert client.ping()
            # JSON `true` is not an int cell (it would merge into key 1).
            flag = dict(huge, rows=[[1, 2], [True, 3]])
            with pytest.raises(ServiceError, match="'k' expects int, got bool") as failure:
                client.request(flag)
            assert failure.value.kind == "SchemaError"
            assert client.ping()
            assert client.tables() == []

            def overflow(spec):
                raise OverflowError("Python int too large to convert to C long")

            monkeypatch.setattr(service, "query", overflow)
            with pytest.raises(ServiceError, match="OverflowError") as failure:
                client.query({"op": "join"})
            assert failure.value.kind == "InternalError"
            assert "internal error" in caplog.text  # traceback was logged
            assert client.ping()
            client.shutdown()


def test_server_registers_a_table_past_the_old_64_kib_line_limit():
    """A 9 000-row ``register`` is a ~107 KB line — over asyncio's default
    reader limit, which used to kill the connection with no response."""
    rows = [(key, 10 * key) for key in range(9000)]
    table = DBTable.from_rows(["k:int", "v:int"], rows)
    spec = {"op": "filter", "table": "t", "column": "k", "cmp": "ge", "value": 8998}
    with _ServerThread(ServiceEngine(engine="vector")) as server:
        with ServiceClient(port=server.port) as client:
            assert client.register_table("t", table) == len(rows)
            kept, _ = client.query(spec)
            assert kept.rows == rows[8998:]
            client.shutdown()


def test_server_answers_an_over_limit_line_once_and_keeps_serving():
    """A line over MAX_REQUEST_BYTES gets exactly one ``ok: false`` line
    naming the limit; that connection is closed, the server is not."""
    with _ServerThread(ServiceEngine(engine="vector")) as server:
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError, match=str(MAX_REQUEST_BYTES)) as failure:
                client.request({"op": "ping", "pad": "x" * MAX_REQUEST_BYTES})
            assert failure.value.kind == "InputError"
            # No second line follows: the next read is the server's EOF.
            assert client._reader.readline() == b""
        with ServiceClient(port=server.port) as client:
            assert client.ping()
            client.shutdown()


def test_service_reports_store_io_for_stored_tables(tmp_path):
    from repro.store.runtime import detach_all

    detach_all()
    try:
        left, right = _tables()
        stored = left.to_store(str(tmp_path / "db"), "l", key=b"k" * 16)
        right.to_store(stored, "r")
        sleft = DBTable.open(stored, "l", cache_bytes=2048)
        sright = DBTable.open(stored, "r", cache_bytes=2048)
        spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
        with ServiceEngine(engine="sharded", shards=2) as resident_service:
            resident_service.register_table("l", left)
            resident_service.register_table("r", right)
            expected = resident_service.query(spec).table
        with ServiceEngine(engine="sharded", shards=2) as service:
            service.register_table("l", sleft)
            service.register_table("r", sright)
            result = service.query(spec)
            # Bit-identical to the resident service, with store IO on the
            # query's stats delta and residency in the service stats.
            assert result.table.rows == expected.rows
            assert result.stats.store["reads"] > 0
            assert result.stats.store["decryptions"] > 0
            assert result.stats.to_dict()["store"]["reads"] > 0
            stats = service.service_stats()
            assert stats["store"]["reads"] >= result.stats.store["reads"]
            residency = stats["store_residency"]
            assert len(residency) == 1
            assert residency[0]["kind"] == "file"
            assert residency[0]["budget_bytes"] == 2048
        with ServiceEngine(engine="vector") as vector_service:
            # Non-sharded engines take the resident fall-back and still
            # produce the same table.
            vector_service.register_table("l", sleft)
            vector_service.register_table("r", sright)
            assert vector_service.query(spec).table.rows == expected.rows
    finally:
        detach_all()


def test_server_refuses_a_join_on_key_columns_of_different_types():
    service = ServiceEngine(engine="vector")
    with _ServerThread(service) as server:
        with ServiceClient(port=server.port) as client:
            client.register_table("l", DBTable.from_rows(["k:int", "v:int"], [(1, 5), (2, 6)]))
            client.register_table("r", DBTable.from_rows(["k:str", "w:int"], [("x", 10), ("y", 20)]))
            with pytest.raises(ServiceError, match=r"'k' \(int\) and 'k' \(str\)") as failure:
                client.query({"op": "join", "left": "l", "right": "r", "on": ["k", "k"]})
            assert failure.value.kind == "SchemaError"
            assert client.ping()
            client.shutdown()
