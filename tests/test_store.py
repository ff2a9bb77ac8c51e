"""The paged block store: substrate, runtime, tables, and the e2e path.

Covers the out-of-core storage layer bottom-up:

* block store units (round-trip, padding, errors, FileStore persistence);
* encryption integration — fresh nonce at rest, unlinkable rewrites,
  the live ``ProbabilisticEncryptor`` wiring (not a mock);
* the trusted-memory ``BlockCache`` and the ``EPCModel`` slowdown curve
  as the store runtime actually drives it;
* ``StorePairs.scan``: every block once, in order, nothing kept;
* ``StoredTable`` / ``DBTable.open`` round-trips;
* the acceptance end-to-end: a sharded join over an encrypted FileStore
  with a trusted-memory budget smaller than the table runs bit-identical
  to the resident path, with evictions, while the query faults in only
  its plan-named blocks — and the plan bytes stay pure functions of the
  public shapes.
"""

import struct
import sys
import threading

import numpy as np
import pytest

from repro.db.table import DBTable
from repro.enclave.epc import EPCModel
from repro.errors import CapacityError, InputError, SchemaError
from repro.memory.encryption import ProbabilisticEncryptor
from repro.plan.partition import block_count
from repro.security import LEAKAGE_PROFILES, STORE_LEAKAGE
from repro.shard.join import sharded_oblivious_join
from repro.store import (
    BlockCache,
    FileStore,
    InMemoryStore,
    StorePairs,
    adopt,
    attach,
    detach_all,
    stats_snapshot,
    trace_faults,
)
from repro.store.blockstore import NONCE_BYTES, TAG_BYTES
from repro.store.columns import (
    column_key,
    read_str_block,
    write_int_column,
    write_str_column,
)
from repro.store.runtime import residency_snapshot
from repro.vector.join import vector_oblivious_join


@pytest.fixture(autouse=True)
def fresh_handles():
    detach_all()
    yield
    trace_faults(False)
    detach_all()


# -- block store units --------------------------------------------------------


@pytest.mark.parametrize("key", [None, b"0123456789abcdef"])
def test_block_round_trip_and_padding(key):
    store = InMemoryStore(block_bytes=32, key=key)
    store.write_block("c", 0, b"hello")
    assert store.read_block("c", 0) == b"hello".ljust(32, b"\x00")


def test_block_store_rejects_bad_sizes():
    with pytest.raises(InputError):
        InMemoryStore(block_bytes=4)
    store = InMemoryStore(block_bytes=16)
    with pytest.raises(InputError):
        store.write_block("c", 0, b"x" * 17)
    with pytest.raises(InputError):
        store.write_block("c", -1, b"x")
    with pytest.raises(InputError):
        store.read_block("missing", 0)


def test_generation_bumps_on_write_and_meta():
    store = InMemoryStore(block_bytes=16)
    g0 = store.generation
    store.write_block("c", 0, b"a")
    assert store.generation > g0
    g1 = store.generation
    store.put_meta("t", {"n": 1})
    assert store.generation > g1
    assert store.get_meta("t")["n"] == 1


def test_file_store_persists_and_reopens(tmp_path):
    path = str(tmp_path / "db")
    store = FileStore(path, block_bytes=64)
    write_int_column(store, "t/x", list(range(20)))
    store.put_meta("t", {"n": 20})
    reopened = FileStore(path)
    assert reopened.block_bytes == 64
    assert reopened.keys() == ["t/x"]
    assert reopened.get_meta("t")["n"] == 20
    got = np.frombuffer(reopened.read_block("t/x", 1), dtype=np.int64)
    assert list(got) == list(range(8, 16))


def test_file_store_config_mismatches_fail_loudly(tmp_path):
    path = str(tmp_path / "db")
    FileStore(path, block_bytes=64, key=b"k" * 16)
    with pytest.raises(InputError):
        FileStore(path, block_bytes=128, key=b"k" * 16)
    with pytest.raises(InputError):
        FileStore(path)  # encrypted store opened without a key


def test_str_column_round_trip_and_capacity():
    store = InMemoryStore(block_bytes=64)
    values = ["a", "bee", "", "längère"]
    write_str_column(store, "t/s", values)
    assert read_str_block(store.read_block, "t/s", 0, len(values)) == values
    with pytest.raises(CapacityError):
        write_str_column(InMemoryStore(block_bytes=8), "t/s", ["x" * 100])


# -- encryption integration (live ProbabilisticEncryptor wiring) --------------


def test_encrypted_slots_hold_ciphertext_with_fresh_nonces(tmp_path):
    store = FileStore(str(tmp_path / "db"), block_bytes=32, key=b"k" * 16)
    store.write_block("c", 0, b"secret")
    first = store.raw_slot("c", 0)
    # The slot layout: nonce || tag || ciphertext.
    assert len(first) == store.slot_bytes == NONCE_BYTES + TAG_BYTES + 32
    assert b"secret" not in first
    # Rewriting the identical plaintext draws a fresh nonce: the at-rest
    # bytes are unlinkable, but the plaintext still round-trips.
    store.write_block("c", 0, b"secret")
    second = store.raw_slot("c", 0)
    assert second != first
    assert second[:NONCE_BYTES] != first[:NONCE_BYTES]
    body = NONCE_BYTES + TAG_BYTES
    assert second[NONCE_BYTES:body] != first[NONCE_BYTES:body]
    assert second[body:] != first[body:]
    assert store.read_block("c", 0) == b"secret".ljust(32, b"\x00")
    assert store.stats["encryptions"] == 2
    assert store.stats["decryptions"] >= 1


def test_store_decrypts_with_the_same_scheme_as_the_encryptor():
    # The store's at-rest format is nonce || tag || ciphertext from the
    # shared ProbabilisticEncryptor — decryptable by an independent
    # instance holding the same key and the slot's public coordinates
    # (the worker-as-enclave contract).
    key = b"s" * 32
    store = InMemoryStore(block_bytes=16, key=key)
    store.write_block("c", 0, b"payload!")
    slot = store.raw_slot("c", 0)
    from repro.memory.encryption import Ciphertext

    outside = ProbabilisticEncryptor(key)
    body = NONCE_BYTES + TAG_BYTES
    plain = outside.decrypt(
        Ciphertext(
            nonce=slot[:NONCE_BYTES], tag=slot[NONCE_BYTES:body], payload=slot[body:]
        ),
        aad=struct.pack("<QQ", 0, 16) + b"c",
    )
    assert plain == b"payload!".ljust(16, b"\x00")


# -- trusted-memory cache and the EPC slowdown curve --------------------------


def test_block_cache_lru_budget_and_counters():
    cache = BlockCache(budget_bytes=64)
    cache.put(("c", 0), b"x" * 32)
    cache.put(("c", 1), b"x" * 32)
    assert cache.get(("c", 0)) is not None  # refresh 0 -> 1 is LRU
    cache.put(("c", 2), b"x" * 32)  # over budget: evicts 1
    assert cache.get(("c", 1)) is None
    assert cache.get(("c", 0)) is not None
    assert cache.stats["evictions"] == 1
    assert cache.cached_bytes == 64
    # A single oversized entry is kept (the cache never wedges empty).
    cache.clear()
    cache.put(("c", 9), b"y" * 100)
    assert len(cache) == 1


def test_block_cache_keeps_its_byte_count_under_racing_threads():
    """Two threads missing, filling and evicting one small cache on a short
    switch interval: a lost update would leave ``cached_bytes`` off the
    bytes actually held."""
    cache = BlockCache(budget_bytes=64 * 8)

    def hammer(seed):
        for step in range(20_000):
            key = ("c", (7 * step + seed) % 16)
            if cache.get(key) is None:
                cache.put(key, b"x" * 64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in (0, 1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a racing thread hung"
    held = sum(len(payload) for payload in cache._entries.values())
    assert cache.cached_bytes == held <= cache.budget_bytes


def test_handle_miss_rate_drives_the_epc_model(tmp_path):
    store = FileStore(str(tmp_path / "db"), block_bytes=64)
    write_int_column(store, "t/x", list(range(64)))  # 8 blocks
    store.flush()
    spec = adopt(store, cache_bytes=128)  # trusted memory: 2 blocks
    handle = attach(spec)
    assert handle.modeled_slowdown() == 1.0  # no traffic yet
    for index in range(8):
        handle.read_int_block("t/x", index)
    assert handle.cache.stats["misses"] == 8
    assert handle.cache.stats["evictions"] > 0
    # All-miss traffic prices at the EPC model's full penalty...
    assert handle.modeled_slowdown() == pytest.approx(1.0 + handle.epc.penalty)
    # ...and re-reading resident blocks pulls the modeled slowdown down,
    # the same monotone shape as EPCModel.slowdown over footprints.
    for _ in range(40):
        handle.read_int_block("t/x", 7)
    assert 1.0 < handle.modeled_slowdown() < 1.0 + handle.epc.penalty
    curve = [handle.epc_slowdown(f) for f in (64, 128, 256, 512)]
    assert curve[0] == curve[1] == 1.0  # inside the budget: flat
    assert curve[1] < curve[2] < curve[3]  # beyond it: growing penalty
    model = EPCModel(capacity_bytes=128)
    assert curve[3] == model.slowdown(512)


def test_residency_snapshot_reports_attached_stores(tmp_path):
    store = FileStore(str(tmp_path / "db"), block_bytes=64)
    write_int_column(store, "t/x", list(range(16)))
    store.flush()
    spec = adopt(store, cache_bytes=1024)
    attach(spec).read_int_block("t/x", 0)
    report = residency_snapshot()
    assert len(report) == 1
    entry = report[0]
    assert entry["kind"] == "file"
    assert entry["cached_blocks"] == 1
    assert entry["cached_bytes"] == 64
    assert entry["modeled_slowdown"] > 1.0  # one miss, zero hits


# -- StorePairs: the engine-facing view ---------------------------------------


def test_store_pairs_scan_reads_each_block_once_and_keeps_nothing(tmp_path):
    store = FileStore(str(tmp_path / "db"), block_bytes=64)
    write_int_column(store, "t/j", list(range(50)))
    write_int_column(store, "t/d", list(range(100, 150)))
    store.flush()
    # Trusted memory of two blocks: the scan cannot be served from cache.
    spec = adopt(store, cache_bytes=128)
    handles = StorePairs(spec, 50, "t/j")
    stored = StorePairs(spec, 50, "t/j", "t/d")
    blocks = block_count(50, 8)
    for pairs, columns in ((handles, 1), (stored, 2)):
        expected = np.asarray(pairs).copy()
        for _ in range(2):  # every scan pays its own reads: nothing is kept
            before = stats_snapshot()["reads"]
            faults = trace_faults(True)
            assert np.array_equal(pairs.scan(), expected)
            trace_faults(False)
            assert stats_snapshot()["reads"] - before == columns * blocks
            assert {index for _, index in faults} == set(range(blocks))
    assert handles.scan()[:, 1].tolist() == list(range(50))  # virtual handles
    empty = StorePairs(spec, 0, "t/j")
    assert empty.scan().shape == (0, 2)


def test_store_pairs_materialises_and_reduces(tmp_path):
    store = FileStore(str(tmp_path / "db"), block_bytes=64)
    values = [5, 1, 9, 4, 9, 0, 3]
    write_int_column(store, "t/j", values)
    store.flush()
    spec = adopt(store, cache_bytes=4096)
    pairs = StorePairs(spec, len(values), "t/j")
    assert len(pairs) == 7
    assert list(pairs) == [(v, i) for i, v in enumerate(values)]
    assert pairs[2] == (9, 2)
    assert np.asarray(pairs).shape == (7, 2)
    # materialize() is the kept copy; scan() a fresh one with the same rows.
    assert pairs.materialize() is pairs.materialize()
    assert pairs.scan() is not pairs.materialize()
    assert np.array_equal(pairs.scan(), pairs.materialize())


# -- stored tables ------------------------------------------------------------


def table_fixture():
    return DBTable.from_rows(
        ["id:int", "name:str", "age:int"],
        [(i, f"p{i}", 20 + i % 7) for i in range(30)],
    )


def test_stored_table_round_trip(tmp_path):
    table = table_fixture()
    table.to_store(str(tmp_path / "db"), "people")
    opened = DBTable.open(str(tmp_path / "db"), "people")
    assert opened.schema == table.schema
    assert len(opened) == len(table)
    assert opened.column("name") == table.column("name")
    assert opened == table  # rows fall back bit-identically
    assert opened.rows == table.rows


def test_stored_table_encrypted_round_trip(tmp_path):
    table = table_fixture()
    table.to_store(str(tmp_path / "db"), "people", key=b"k" * 16)
    opened = DBTable.open(str(tmp_path / "db"), "people", key=b"k" * 16)
    assert opened == table


def test_stored_table_is_read_only(tmp_path):
    table = table_fixture()
    table.to_store(str(tmp_path / "db"), "people")
    opened = DBTable.open(str(tmp_path / "db"), "people")
    for mutate in (
        lambda: opened.append_row((99, "x", 1)),
        lambda: opened.extend_rows([(99, "x", 1)]),
        opened.touch,
    ):
        with pytest.raises(InputError):
            mutate()


def test_stored_table_schema_assertion_and_missing_table(tmp_path):
    table = table_fixture()
    store = table.to_store(str(tmp_path / "db"), "people")
    with pytest.raises(SchemaError):
        DBTable.open(store, "people", specs=["id:int"])
    with pytest.raises(InputError):
        DBTable.open(store, "nobody")


def test_stored_table_store_pairs_rejects_str_columns(tmp_path):
    table = table_fixture()
    table.to_store(str(tmp_path / "db"), "people")
    opened = DBTable.open(str(tmp_path / "db"), "people")
    pairs = opened.store_pairs("id")
    assert isinstance(pairs, StorePairs)
    with pytest.raises(SchemaError):
        opened.store_pairs("name")


def test_store_generation_invalidates_encoding_cache(tmp_path):
    from repro.db.encoding_cache import EncodingCache
    from repro.db.encoding import DictionaryEncoder

    table = table_fixture()
    store = table.to_store(str(tmp_path / "db"), "people")
    opened = DBTable.open(store, "people")
    cache = EncodingCache()
    encoder = DictionaryEncoder()
    cache.encoded_keys(opened, "id", encoder)
    cache.encoded_keys(opened, "id", encoder)
    assert cache.stats["hits"] == 1
    # Rewrite the store: the generation bump must invalidate the entry.
    write_int_column(store, column_key("people", "id"), list(range(100, 130)))
    store.put_meta("people", store.get_meta("people"))
    opened._columns.clear()
    keys = cache.encoded_keys(opened, "id", encoder)
    assert cache.stats["hits"] == 1  # miss, not a stale hit
    assert keys == list(range(100, 130))


# -- the acceptance end-to-end ------------------------------------------------


def _store_inputs(tmp_path, lj, rj, key=None, cache_bytes=256):
    store = FileStore(str(tmp_path / "db"), block_bytes=64, key=key)
    write_int_column(store, "L/j", list(lj))
    write_int_column(store, "R/j", list(rj))
    store.flush()
    spec = adopt(store, cache_bytes=cache_bytes)
    return (
        StorePairs(spec, len(lj), "L/j"),
        StorePairs(spec, len(rj), "R/j"),
    )


@pytest.mark.parametrize("target_m", [None, 4000])
def test_sharded_join_over_encrypted_file_store_is_bit_identical(
    tmp_path, target_m
):
    rng = np.random.default_rng(13)
    n1, n2 = 130, 170
    lj = rng.integers(0, 18, n1)
    rj = rng.integers(0, 18, n2)
    left = np.stack([lj, np.arange(n1)], axis=1).astype(np.int64)
    right = np.stack([rj, np.arange(n2)], axis=1).astype(np.int64)
    expected, _ = vector_oblivious_join(left, right, target_m=target_m)
    # Trusted memory (256 B = 4 blocks) far below the table footprint.
    sleft, sright = _store_inputs(tmp_path, lj, rj, key=b"e" * 16)
    faults = trace_faults(True)
    got, stats = sharded_oblivious_join(
        sleft, sright, shards=3, executor="inline", target_m=target_m
    )
    trace_faults(False)
    assert np.array_equal(expected, got)
    snapshot = stats_snapshot()
    assert snapshot["evictions"] > 0
    # One read and one decryption per block of the two stored key columns
    # (the handles are virtual): each block is scanned exactly once.
    scanned = block_count(n1, 8) + block_count(n2, 8)
    assert snapshot["reads"] == snapshot["decryptions"] == scanned
    # Every fault names a (column, block id) the plan's input nodes
    # declared: the query touches plan-named blocks and nothing else.
    named = {
        (side, index)
        for node in stats.plan.nodes_by_op("input")
        for side in [{"left": "L/j", "right": "R/j"}[node.attr("side")]]
        for index in node.attr("blocks")
    }
    assert faults == named
    # And the plan records the store layout as public shape state.
    assert stats.plan.shape("block_rows") == (8, 8)


def test_store_backed_plan_bytes_are_pure_functions_of_shapes(tmp_path):
    rng = np.random.default_rng(3)
    n1, n2 = 61, 83
    _, stats_a = sharded_oblivious_join(
        *_store_inputs(
            tmp_path / "a", rng.integers(0, 9, n1), rng.integers(0, 9, n2)
        ),
        shards=2,
        executor="inline",
    )
    _, stats_b = sharded_oblivious_join(
        *_store_inputs(
            tmp_path / "b",
            rng.integers(100, 900, n1),
            rng.integers(100, 900, n2),
        ),
        shards=2,
        executor="inline",
    )
    assert stats_a.plan.serialize() == stats_b.plan.serialize()
    # Resident inputs at the same sizes compile *without* block shapes —
    # the historical plan bytes are untouched by the store layer.
    resident_left = np.stack(
        [rng.integers(0, 9, n1), np.arange(n1)], axis=1
    ).astype(np.int64)
    resident_right = np.stack(
        [rng.integers(0, 9, n2), np.arange(n2)], axis=1
    ).astype(np.int64)
    _, stats_r = sharded_oblivious_join(
        resident_left, resident_right, shards=2, executor="inline"
    )
    assert stats_r.plan.shape("block_rows") is None
    assert "block_rows" not in dict(stats_r.plan.shapes)


def test_mixed_resident_and_store_inputs_join_identically(tmp_path):
    rng = np.random.default_rng(5)
    n1, n2 = 40, 55
    lj = rng.integers(0, 8, n1)
    rj = rng.integers(0, 8, n2)
    left = np.stack([lj, np.arange(n1)], axis=1).astype(np.int64)
    right = np.stack([rj, np.arange(n2)], axis=1).astype(np.int64)
    expected, _ = sharded_oblivious_join(left, right, shards=2, executor="inline")
    sleft, sright = _store_inputs(tmp_path, lj, rj)
    got, stats = sharded_oblivious_join(
        sleft, right, shards=2, executor="inline"
    )
    assert np.array_equal(expected, got)
    assert stats.plan.shape("block_rows") == (8, None)


def test_sharded_join_over_store_on_process_pool(tmp_path, blocks_at_any_size):
    rng = np.random.default_rng(23)
    n1, n2 = 70, 90
    lj = rng.integers(0, 12, n1)
    rj = rng.integers(0, 12, n2)
    left = np.stack([lj, np.arange(n1)], axis=1).astype(np.int64)
    right = np.stack([rj, np.arange(n2)], axis=1).astype(np.int64)
    expected, _ = sharded_oblivious_join(
        left, right, shards=2, executor="inline", target_m=3000
    )
    sleft, sright = _store_inputs(tmp_path, lj, rj, key=b"p" * 16)
    got, _ = sharded_oblivious_join(
        sleft, sright, shards=2, workers=2, executor="pool", target_m=3000
    )
    assert np.array_equal(expected, got)


# -- leakage bookkeeping ------------------------------------------------------


def test_sharded_profiles_declare_block_symbols():
    for padding in ("revealed", "bounded", "worst_case"):
        profile = LEAKAGE_PROFILES[("sharded", padding)]
        assert "block_rows" in profile and "block_ids" in profile
    for engine in ("traced", "vector"):
        for padding in ("revealed", "bounded", "worst_case"):
            assert "block_rows" not in LEAKAGE_PROFILES[(engine, padding)]


def test_store_leakage_documented():
    with open("docs/leakage.md", encoding="utf-8") as handle:
        text = handle.read()
    for symbol in STORE_LEAKAGE:
        assert f"`{symbol}`" in text, (
            f"STORE_LEAKAGE symbol {symbol!r} missing from docs/leakage.md"
        )
    assert "Block-access patterns" in text
