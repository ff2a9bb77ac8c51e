"""A hostile store: every tampered, moved, truncated or wrong-key block is a
typed :class:`~repro.errors.StoreIntegrityError`, never garbage rows.

Store cases first; the last sections are hostile *values*: through the
sharded engine's packed sort, join-tree bands at the int64 limits on
every engine, cells that are not int64 ints, refused by the array
engines, rows that are not ``(j, d)`` pairs and malformed multiway and
ORDER BY keys, refused by every engine.  The very last is a block task
that raises mid-query on every substrate: a typed error within a bound,
and the next query answered.
Each tamper case is driven through ``store.read_block``, through
``StorePairs.scan()`` and through ``sharded_oblivious_join`` on every
executor substrate; afterwards no plaintext of the bad block sits in the
trusted-memory cache, no ``/dev/shm`` segment is left, and the same
executor answers a clean query.

``REPRO_EXECUTORS`` (comma-separated names) restricts the executor list the
way it does for ``tests/test_engine_properties.py`` — the CI matrix runs
this file once per substrate.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from test_service import _ServerThread

from repro.core import multiway as multiway_module
from repro.core.padding import ANCHOR_KEY
from repro.db.table import DBTable
from repro.engines import get_engine
from repro.engines import traced as traced_engine_module
from repro.engines import vector as vector_engine_module
from repro.errors import BoundError, InputError, StoreIntegrityError
from repro.plan import available_executors
from repro.plan.executors import get_executor
from repro.service import ServiceClient, ServiceEngine, ServiceError
from repro.shard import sort as sort_module
from repro.shard.join import ShardedJoinStats, sharded_oblivious_join
from repro.store import FileStore, InMemoryStore, StorePairs, adopt, attach, detach_all
from repro.store.blockstore import NONCE_BYTES, TAG_BYTES
from repro.store.columns import write_int_column
from repro.store.runtime import StoreSpec
from repro.vector import multiway as vector_multiway_module
from repro.vector.join import vector_oblivious_join

EXECUTORS = [
    name
    for name in available_executors()
    if name
    in os.environ.get("REPRO_EXECUTORS", ",".join(available_executors())).split(",")
]

KEY = b"hostile-test-key"
WRONG_KEY = b"another-test-key"
BLOCK_BYTES = 64
N = 40  # five 8-row blocks per column
CACHE_BYTES = 1 << 16  # holds every block: absence is never an eviction


def _tables() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    left = np.stack([rng.integers(0, 12, N), np.arange(N)], axis=1)
    right = np.stack([rng.integers(0, 12, N), 100 + np.arange(N)], axis=1)
    return left, right


def _build(kind: str, path) -> FileStore | InMemoryStore:
    if kind == "file":
        store = FileStore(str(path), BLOCK_BYTES, KEY)
    else:
        store = InMemoryStore(BLOCK_BYTES, KEY)
    left, right = _tables()
    for name, column in (
        ("L/j", left[:, 0]), ("L/d", left[:, 1]),
        ("R/j", right[:, 0]), ("R/d", right[:, 1]),
    ):
        write_int_column(store, name, column)
    store.flush()
    return store


def _pairs(store) -> tuple[StorePairs, StorePairs]:
    spec = adopt(store, cache_bytes=CACHE_BYTES)
    return StorePairs(spec, N, "L/j", "L/d"), StorePairs(spec, N, "R/j", "R/d")


# -- the adversary's moves: each returns (store to read, the bad blocks) -------


def _flip(offset: int):
    def tamper(store):
        slot = bytearray(store.raw_slot("L/j", 2))
        slot[offset] ^= 0x01
        store._save("L/j", 2, bytes(slot))
        return store, [("L/j", 2)]

    return tamper


def _swap(first: tuple[str, int], second: tuple[str, int]):
    def tamper(store):
        a, b = store.raw_slot(*first), store.raw_slot(*second)
        store._save(*first, b)
        store._save(*second, a)
        return store, [first, second]

    return tamper


def _truncate(extra_bytes: int):
    def tamper(store):
        os.truncate(store._file("R/d"), 4 * store.slot_bytes + extra_bytes)
        return store, [("R/d", 4)]

    return tamper


def _wrong_key(store):
    if isinstance(store, FileStore):
        reopened = FileStore(store.path, key=WRONG_KEY)
    else:
        reopened = InMemoryStore(BLOCK_BYTES, WRONG_KEY)
        reopened._blocks = store._blocks
    return reopened, [("L/j", 0), ("R/d", 4)]


TAMPERS = {
    "flip-nonce": _flip(3),
    "flip-tag": _flip(NONCE_BYTES + 3),
    "flip-ciphertext": _flip(NONCE_BYTES + TAG_BYTES + 3),
    "swap-slots-in-one-column": _swap(("L/j", 1), ("L/j", 3)),
    "swap-same-index-across-columns": _swap(("L/j", 2), ("L/d", 2)),
    "wrong-key": _wrong_key,
    "truncate-mid-slot": _truncate(10),
    "truncate-at-slot-boundary": _truncate(0),
}

CASES = [
    pytest.param((kind, name), id=f"{kind}-{name}")
    for kind in ("file", "memory")
    for name in TAMPERS
    if kind == "file" or not name.startswith("truncate")
]


@pytest.fixture(autouse=True)
def fresh_handles():
    """No store handle (or its cache) crosses from one test to the next."""
    detach_all()
    yield
    detach_all()


@pytest.fixture
def hostile(request, tmp_path):
    """``(tampered store, bad blocks)`` for the parametrised case."""
    kind, name = request.param
    return TAMPERS[name](_build(kind, tmp_path / "db"))


def _assert_no_plaintext_cached(store, bad) -> None:
    cache = attach(adopt(store, cache_bytes=CACHE_BYTES)).cache
    for block in bad:
        assert cache.get(block) is None


@pytest.mark.parametrize("hostile", CASES, indirect=True)
def test_read_block_raises_on_every_bad_block(hostile):
    store, bad = hostile
    for key, index in bad:
        with pytest.raises(StoreIntegrityError, match=f"block {index} under '{key}'"):
            store.read_block(key, index)
    if store._encryptor.key == KEY:  # untouched neighbours still read
        assert store.read_block("R/j", 0) == _tables()[1][:8, 0].tobytes()


@pytest.mark.parametrize("hostile", CASES, indirect=True)
def test_scan_raises_and_caches_no_plaintext_of_the_bad_block(hostile):
    store, bad = hostile
    with pytest.raises(StoreIntegrityError):
        for pairs in _pairs(store):
            pairs.scan()
    _assert_no_plaintext_cached(store, bad)


@pytest.mark.parametrize("name", EXECUTORS)
@pytest.mark.parametrize("hostile", CASES, indirect=True)
def test_join_raises_and_the_same_executor_answers_a_clean_query(
    hostile, name, tmp_path, shm_leak_guard
):
    store, bad = hostile
    executor = get_executor(name, workers=2)
    with pytest.raises(StoreIntegrityError):
        sharded_oblivious_join(*_pairs(store), shards=4, executor=executor)
    _assert_no_plaintext_cached(store, bad)
    clean = _build("file", tmp_path / "clean")
    got, _ = sharded_oblivious_join(*_pairs(clean), shards=4, executor=executor)
    assert np.array_equal(got, vector_oblivious_join(*_tables())[0])


# -- a worker attaching by spec, the db layer, the service ---------------------


def _first_block(spec: StoreSpec) -> tuple[int, bytes]:
    """What a pool worker does with a spec: attach by path, read a block."""
    return threading.get_ident(), attach(spec).read_block("L/j", 0)


@pytest.mark.skipif("pool" not in EXECUTORS, reason="pool substrate not selected")
def test_wrong_key_fails_in_a_pool_worker_attaching_by_spec(
    tmp_path, shm_leak_guard, blocks_at_any_size
):
    store = _build("file", tmp_path / "db")
    good = StoreSpec("file", store.path, BLOCK_BYTES, KEY)
    bad = StoreSpec("file", store.path, BLOCK_BYTES, WRONG_KEY)
    pool = get_executor("pool", workers=2)
    # The typed error comes back from the worker thread.
    with pytest.raises(StoreIntegrityError, match="block 0 under 'L/j'"):
        pool.map(_first_block, [good, bad])
    (ident, block), (other, again) = pool.map(_first_block, [good, good])
    assert threading.get_ident() not in (ident, other)  # both reads ran in a worker
    assert block == again == store.read_block("L/j", 0)


def _stored_tables(path, key):
    left = DBTable.from_rows(["k:int", "v:int"], [(i % 5, i) for i in range(20)])
    right = DBTable.from_rows(["k:int", "w:int"], [(i % 7, 10 * i) for i in range(20)])
    store = left.to_store(str(path), "l", key=key)
    right.to_store(store, "r")
    return left, right


def test_stored_table_opened_with_the_wrong_key_fails_on_first_read(tmp_path):
    _stored_tables(tmp_path / "db", KEY)
    table = DBTable.open(str(tmp_path / "db"), "l", key=WRONG_KEY)
    with pytest.raises(StoreIntegrityError):
        table.column("k")
    with pytest.raises(StoreIntegrityError):
        table.rows
    with pytest.raises(StoreIntegrityError):
        table.store_pairs("k").scan()


@pytest.mark.parametrize(
    "options",
    [{"engine": "vector"}]
    + [
        {"engine": "sharded", "shards": 2, "workers": 2, "executor": name}
        for name in EXECUTORS
    ],
    ids=lambda options: options.get("executor", options["engine"]),
)
def test_service_answers_a_tampered_store_in_band_and_keeps_serving(
    options, tmp_path, caplog, shm_leak_guard
):
    left, right = _stored_tables(tmp_path / "db", KEY)
    wrong = [DBTable.open(str(tmp_path / "db"), n, key=WRONG_KEY) for n in "lr"]
    spec = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}
    with ServiceEngine(**options) as service:
        service.register_table("l", wrong[0])
        service.register_table("r", wrong[1])
        with _ServerThread(service) as server, ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError, match="failed authentication") as failure:
                client.query(spec)
            assert failure.value.kind == "StoreIntegrityError"
            assert "internal error" not in caplog.text  # no traceback logged
            # The engine lock is free and the warm pool usable: the next
            # query, on clean tables, is answered by the same service.
            client.register_table("l", left)
            client.register_table("r", right)
            table, _ = client.query(spec)
            assert sorted(table.rows) == sorted(
                l + r for l in left.rows for r in right.rows if l[0] == r[0]
            )
            client.shutdown()


# -- what is *not* detected, pinned ---------------------------------------------


@pytest.mark.parametrize("kind", ["file", "memory"])
def test_replaying_an_older_slot_at_its_own_index_still_decrypts(kind, tmp_path):
    """The documented residual (``docs/leakage.md``, "What the tag does not
    cover"): a slot's tag binds ``(key name, index, block_bytes)``, not
    *when* it was written, so an older slot put back at its own index
    verifies and decrypts to the older plaintext.  Detecting that takes a
    trusted per-block counter, which this store does not keep."""
    store = _build(kind, tmp_path / "db")
    old_slot, old_plain = store.raw_slot("L/d", 1), store.read_block("L/d", 1)
    store.write_block("L/d", 1, b"newer contents")
    assert store.read_block("L/d", 1) != old_plain
    store._save("L/d", 1, old_slot)
    assert store.read_block("L/d", 1) == old_plain


def test_a_store_written_with_the_parent_layout_is_refused(tmp_path):
    """``nonce || ciphertext`` slots (no tag) under the same ``store.json``
    keys: every read fails authentication or comes back short."""
    store = FileStore(str(tmp_path / "db"), BLOCK_BYTES, KEY)
    old_slot_bytes = NONCE_BYTES + BLOCK_BYTES
    with open(store._file("c"), "wb") as handle:
        handle.write(os.urandom(3 * old_slot_bytes))
    reopened = FileStore(str(tmp_path / "db"), key=KEY)
    for index in range(3):
        with pytest.raises(StoreIntegrityError):
            reopened.read_block("c", index)


# -- hostile values: the packed sort under every padding mode -----------------

I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _value_cases(padded: bool) -> dict[str, tuple[list, list]]:
    """``(left, right)`` inputs whose ``j`` / ``d`` sit at the int64 extremes
    the headroom checks allow: any int64 when sizes are revealed; under
    padding ``j < ANCHOR_KEY`` (reserved) and ``d >= 0`` (dummies are -1)."""
    j_max = ANCHOR_KEY - 1 if padded else I64_MAX
    d_min = 0 if padded else I64_MIN
    extremes = [(j, d) for j in (I64_MIN, -1, 0, j_max) for d in (d_min, 1, I64_MAX)]
    return {
        "extremes": (extremes, extremes[::-1] + extremes[:5]),
        "all-equal-rows": ([(j_max, I64_MAX)] * 6, [(j_max, d_min)] * 5),
        "one-giant-group": (
            [(3, v % 4) for v in range(12)] + [(I64_MIN, 1)],
            [(9, 0), (j_max, 2)] + [(3, 7 - v % 3) for v in range(9)],
        ),
        "empty-left": ([], extremes),
        "empty-right": (extremes, []),
        "one-row-sides": ([(j_max, I64_MAX)], [(j_max, d_min)]),
        "one-row-sides-no-match": ([(I64_MIN, 5)], [(j_max, 5)]),
    }


def _padding_options(padding: str, left, right) -> dict:
    if padding != "bounded":
        return {"padding": padding}
    true_m = len(vector_oblivious_join(left, right)[0])
    return {"padding": padding, "bound": min(true_m + 2, len(left) * len(right))}


@pytest.mark.parametrize("name", EXECUTORS)
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
@pytest.mark.parametrize("padding", ["revealed", "bounded", "worst_case"])
def test_hostile_values_join_to_the_vector_engines_rows(
    padding, shards, name, shm_leak_guard
):
    for case, (left, right) in _value_cases(padding != "revealed").items():
        options = _padding_options(padding, left, right)
        expected = get_engine("vector", **options).join(left, right)
        engine = get_engine("sharded", shards=shards, workers=2, executor=name, **options)
        got = engine.join(left, right)
        assert np.array_equal(
            np.asarray(got.pairs, dtype=np.int64).reshape(-1, 2),
            np.asarray(expected.pairs, dtype=np.int64).reshape(-1, 2),
        ), case
        assert got.m == expected.m


@pytest.mark.parametrize("name", EXECUTORS)
@pytest.mark.parametrize("padding", ["bounded", "worst_case"])
def test_negative_payloads_are_refused_under_padding_like_vector(padding, name):
    left, right = [(1, -5), (2, 3)], [(1, 4), (2, I64_MIN)]
    options = _padding_options(padding, left, right)
    with pytest.raises(InputError) as vector_refusal:
        get_engine("vector", **options).join(left, right)
    with pytest.raises(InputError) as refusal:
        get_engine("sharded", shards=2, workers=2, executor=name, **options).join(
            left, right
        )
    assert str(refusal.value) == str(vector_refusal.value)


#: Keys at and above the join's reserved ANCHOR_KEY, around it, and below.
RESERVED_KEYS = [(I64_MAX, 1), (ANCHOR_KEY, 2), (0, 4), (ANCHOR_KEY + 1, 3), (I64_MAX, 6)]


@pytest.mark.parametrize(
    "engine,executor",
    [("traced", None), ("vector", None)] + [("sharded", name) for name in EXECUTORS],
)
@pytest.mark.parametrize("padding", ["bounded", "worst_case"])
def test_padded_aggregation_keeps_the_keys_a_padded_join_reserves(
    padding, engine, executor, shm_leak_guard
):
    """Padded aggregation's dummies are neutral partials, not reserved keys:
    every engine answers a key at ``2^62`` or int64 max like ``vector``."""
    options = {"padding": padding, "bound": 64} if padding == "bounded" else {"padding": padding}
    if executor is not None:
        options.update(shards=2, workers=2, executor=executor)
    padded = get_engine(engine, **options)
    plain = get_engine("vector")
    right = [(ANCHOR_KEY, 7), (I64_MAX, 8), (5, 9)]
    assert padded.group_by(RESERVED_KEYS) == plain.group_by(RESERVED_KEYS)
    assert padded.aggregate(RESERVED_KEYS, right) == plain.aggregate(RESERVED_KEYS, right)
    assert [group.j for group in plain.group_by(RESERVED_KEYS)][-1] == I64_MAX


class _InFlightProbe:
    """Wraps an executor substrate; counts tasks handed out and not yet
    collected, so a raise can be checked to happen with none in flight."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.in_flight = self.dispatched = 0

    def map(self, task, payloads):
        payloads = list(payloads)
        self.in_flight += len(payloads)
        self.dispatched += len(payloads)
        results = self.inner.map(task, payloads)
        self.in_flight -= len(payloads)
        return results

    def __getattr__(self, attribute):
        return getattr(self.inner, attribute)


@pytest.mark.parametrize("name", EXECUTORS)
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_an_exceeded_bound_raises_in_the_parent_with_no_task_in_flight(
    shards, name, shm_leak_guard, blocks_at_any_size
):
    left, right = _value_cases(padded=True)["one-giant-group"]
    true_m = len(vector_oblivious_join(left, right)[0])
    with pytest.raises(BoundError) as vector_abort:
        vector_oblivious_join(left, right, target_m=true_m - 1)
    probe = _InFlightProbe(get_executor(name, workers=2))
    stats = ShardedJoinStats()
    with pytest.raises(BoundError) as abort:
        sharded_oblivious_join(
            left, right, shards=shards, stats=stats, target_m=true_m - 1, executor=probe
        )
    assert str(abort.value) == str(vector_abort.value)
    # Two sorts ran, their compiled passes each k local sorts and k - 1
    # merges — (P1 + 1)(2k - 1) tasks, sort 2 packing — all collected.
    passes = {
        node.attr("stage"): node.attr("passes") for node in stats.plan.nodes_by_op("partition")
    }
    assert (passes["augment_sort1"], passes["augment_sort2"]) == (3, 1)
    assert probe.dispatched == (passes["augment_sort1"] + 1) * (2 * shards - 1)
    assert probe.in_flight == 0
    # The same substrate then answers the query at a bound that fits.
    got, _ = sharded_oblivious_join(
        left, right, shards=shards, target_m=true_m, executor=probe
    )
    assert np.array_equal(got, vector_oblivious_join(left, right, target_m=true_m)[0])
    assert probe.in_flight == 0


#: One engine of each kind; the sharded one on every listed substrate.
TREE_ENGINES = [
    pytest.param({"name": "traced"}, id="traced"),
    pytest.param({"name": "vector"}, id="vector"),
] + [
    pytest.param(
        {"name": "sharded", "shards": 2, "workers": 2, "executor": name},
        id=f"sharded-{name}",
    )
    for name in EXECUTORS
]


@pytest.mark.parametrize("config", TREE_ENGINES)
def test_join_tree_bands_saturate_at_the_int64_limits(config, shm_leak_guard):
    """A band reaching past either int64 limit keeps its match on every
    engine and padding mode (the array engines used to wrap ``key ± band``
    around and return nothing); a band above ``2**63 - 1`` is refused, and
    so is a value outside int64, naming its table, by the array engines."""
    options = dict(config)
    name = options.pop("name")
    # (key, band, padding modes): padded keys stay below 2**61 (reserved).
    for key, band, modes in (
        (I64_MAX, 1, ("revealed",)),
        (I64_MIN, 1, ("revealed", "worst_case")),
        (2**61 - 1, I64_MAX, ("revealed", "worst_case")),
    ):
        tables = [[(key, 1)], [(key, 2), (0, 3)]]
        expected = [(key, 1) + row for row in sorted(tables[1]) if abs(key - row[0]) <= band]
        for padding in modes:
            engine = get_engine(name, padding=padding, **options)
            assert engine.join_tree(tables, [(0, 1, 0, 0, band)]).rows == expected
    engine = get_engine(name, **options)
    with pytest.raises(InputError, match="band"):
        engine.join_tree([[(0, 1)], [(0, 2)]], [(0, 1, 0, 0, 2**63)])
    if name != "traced":  # Python ints: the traced engine has no int64 limit
        with pytest.raises(InputError, match="table 1"):
            engine.join_tree([[(0, 1)], [(0, 2**63)]], [(0, 1, 0, 0)])


#: Cells the array engines used to cast silently (``1.5`` onto key ``1``) or
#: fail on with a raw numpy exception; every one is an ``InputError``.
BAD_CELLS = {
    "float-key": [(1.5, 1), (1, 2)],
    "float-payload": [(1, 2.5)],
    "above-int64": [(1, 2**63)],
    "far-above-int64": [(1, 2**70)],
    "string-key": [("a", 1)],
    "ragged-row": [(1, 2), (3,)],
}

#: The engines with an int64 array path: every tree engine but ``traced``.
ARRAY_ENGINES = TREE_ENGINES[1:]


@pytest.mark.parametrize("operator", ["join", "aggregate", "group_by"])
@pytest.mark.parametrize("config", ARRAY_ENGINES)
def test_non_int64_cells_are_refused_naming_the_side(config, operator, shm_leak_guard):
    options = dict(config)
    engine = get_engine(options.pop("name"), **options)
    good = [(1, 7), (2, 8)]
    if operator == "group_by":
        sides = {"group-by": engine.group_by}
    else:
        run = getattr(engine, operator)
        sides = {
            "left": lambda table: run(table, good),
            "right": lambda table: run(good, table),
        }
    for side, call in sides.items():
        for case, bad in BAD_CELLS.items():
            with pytest.raises(InputError, match=f"^{side} input"):
                call(bad)
        # Empty inputs stay accepted, whatever dtype numpy infers for them.
        result = call([])
        assert not (result.pairs if operator == "join" else result), side


@pytest.mark.parametrize("config", ARRAY_ENGINES)
def test_float_cells_never_truncate_in_order_by_or_join_trees(config, shm_leak_guard):
    """The same refusal guards ORDER BY, whose array engines then fall back
    to the traced network (float keys order as floats, not as their
    truncations), and join trees, which name the table (their keys were
    checked already; a payload cell used to truncate)."""
    options = dict(config)
    engine = get_engine(options.pop("name"), **options)
    columns = [([1.5, 1.2, 1.0, -0.5], True)]
    assert engine.order_permutation(columns) == [3, 2, 1, 0]
    assert engine.order_permutation(columns) == get_engine("traced").order_permutation(columns)
    with pytest.raises(InputError, match="table 1"):
        engine.join_tree([[(1, 1)], [(1, 2.5)]], [(0, 1, 0, 0)])


#: Rows that are not ``(j, d)`` pairs: the traced engine used to fail
#: unpacking them with a ``ValueError``.
NON_PAIR_TABLES = {
    "three-columns": [(1, 2, 3), (4, 5, 6)],
    "one-column": [(1,), (2,)],
    "bare-cells": [1, 2],
}


@pytest.mark.parametrize("operator", ["join", "aggregate", "group_by"])
@pytest.mark.parametrize("config", TREE_ENGINES)
def test_non_pair_rows_are_refused_alike_on_every_engine(config, operator, shm_leak_guard):
    options = dict(config)
    engine = get_engine(options.pop("name"), **options)
    good = [(1, 7), (2, 8)]
    if operator == "group_by":
        calls = [engine.group_by]
    else:
        run = getattr(engine, operator)
        calls = [lambda table: run(table, good), lambda table: run(good, table)]
    for call in calls:
        for case, bad in NON_PAIR_TABLES.items():
            with pytest.raises(InputError, match=r"^input tables must be sequences of \(j, d\) pairs$"):
                call(bad)


@pytest.mark.parametrize("config", TREE_ENGINES)
def test_order_by_key_columns_of_unequal_length_are_refused_alike(config, shm_leak_guard):
    """Unequal ORDER BY key columns used to escape as ``IndexError`` on
    ``traced`` and ``vector`` and as ``ValueError`` on ``sharded``."""
    options = dict(config)
    engine = get_engine(options.pop("name"), **options)
    with pytest.raises(
        InputError,
        match=r"^ORDER BY key columns must have equal lengths, got lengths \[2, 3\]$",
    ):
        engine.order_permutation([([3, 1, 2], True), ([1, 2], True)])


#: Keys an operator chain could hand the multiway join and ORDER BY; they
#: used to escape as ``TypeError`` / ``ValueError``, or (a ``bool`` column)
#: to run as column 1.
BAD_MULTIWAY_KEYS = {
    "string-column": ("a", 0),
    "float-column": (1.0, 0),
    "bool-column": (True, 0),
    "one-item-key": (0,),
    "bare-key": 0,
}
BAD_ORDER_KEYS = {
    "one-item-key": ([2, 1],),
    "three-item-key": ([2, 1], True, 0),
    "bare-values": [2, 1],
    "bare-column": 0,
}


@pytest.mark.parametrize("config", TREE_ENGINES)
def test_malformed_operator_keys_are_refused_before_any_operator_runs(config, monkeypatch):
    options = dict(config)
    engine = get_engine(options.pop("name"), **options)

    def ran(*args, **kwargs):
        raise AssertionError("a join step or sort ran before the keys were checked")

    for module, name in (
        (multiway_module, "cascade"),
        (vector_multiway_module, "cascade"),
        (traced_engine_module, "bitonic_sort"),
        (vector_engine_module, "vector_order_permutation"),
    ):
        monkeypatch.setattr(module, name, ran)
    for case, key in BAD_MULTIWAY_KEYS.items():
        with pytest.raises(InputError, match="index pairs"):
            engine.multiway_join([[(0, 1), (1, 2)], [(0, 3)]], [key])
    for case, key in BAD_ORDER_KEYS.items():
        with pytest.raises(InputError, match=r"\(values, ascending\) pairs"):
            engine.order_permutation([([1, 2], True), key])


# -- a block task that fails mid-query ------------------------------------------

#: How long a query may take to fail once its block task raises, and to
#: answer the next one.  The bound is also a hard timeout: a dispatch that
#: never returns fails the test instead of hanging.
TASK_FAILURE_BOUND_S = 10.0

FAIL_LEFT = [(k % 5, k) for k in range(40)]
FAIL_RIGHT = [(k % 7, 2 * k) for k in range(40)]
FAIL_TREE = [FAIL_LEFT[:12], FAIL_RIGHT[:12], FAIL_LEFT[20:30]]
FAIL_EDGES = [(0, 1, 0, 0), (0, 2, 0, 0)]
FAIL_SPEC = {"op": "join", "left": "l", "right": "r", "on": ["k", "k"]}


def _failing_sort_task(payload):
    """The sharded sort's block task, failing wherever it runs."""
    raise InputError("a block sort failed mid-query")


@contextmanager
def _hard_timeout(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s: the query hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def _entry_point(entry: str, options: dict):
    """Yield one engine's query for ``entry``, repeatable on that engine."""
    if entry == "service":
        columns = [["k:int", "v:int"], ["k:int", "w:int"]]
        with ServiceEngine(**options) as service:
            for name, schema, rows in zip("lr", columns, (FAIL_LEFT, FAIL_RIGHT)):
                service.register_table(name, DBTable.from_rows(schema, rows))
            yield lambda: service.query(FAIL_SPEC).table.rows
        return
    options = dict(options)
    engine = get_engine(options.pop("engine"), **options)
    yield {
        "sharded_join": lambda: engine.join(FAIL_LEFT, FAIL_RIGHT).pairs,
        "join_tree": lambda: engine.join_tree(FAIL_TREE, FAIL_EDGES).rows,
        "aggregate": lambda: engine.aggregate(FAIL_LEFT, FAIL_RIGHT),
    }[entry]


@pytest.mark.parametrize("name", EXECUTORS)
@pytest.mark.parametrize("entry", ["sharded_join", "join_tree", "aggregate", "service"])
def test_a_failing_block_task_fails_its_query_and_the_next_one_is_answered(
    entry, name, monkeypatch, shm_leak_guard
):
    with _entry_point(entry, {"engine": "vector"}) as query:
        expected = query()
    options = {"engine": "sharded", "shards": 2, "workers": 2, "executor": name}
    monkeypatch.setattr(sort_module, "_sort_task", _failing_sort_task)
    with _entry_point(entry, options) as query:
        with _hard_timeout(TASK_FAILURE_BOUND_S):
            with pytest.raises(InputError, match="a block sort failed mid-query"):
                query()
        assert not multiprocessing.active_children()
        monkeypatch.undo()
        with _hard_timeout(TASK_FAILURE_BOUND_S):
            assert query() == expected
        assert not multiprocessing.active_children()
