"""The seven workloads: seeded generators, the non-oblivious floor (which is
also the oracle), the measured call and its `vector` yardstick.

The program under test only ever receives generated inputs; the seed stays
here.  Every measured result is verified: row-multiset equality against the
floor, and exact row order against the `vector` engine for the sharded,
store and service paths.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.db.table import DBTable
from repro.engines import get_engine
from repro.plan.executors import shutdown_pools, shutdown_warm_executors
from repro.service import ServiceClient, ServiceEngine
from repro.shard.join import sharded_oblivious_join
from repro.store import FileStore, StorePairs, adopt, detach_all, stats_snapshot
from repro.store.columns import write_int_column

from harness import HERE, WORK_DIR, Round, Workload

_INT = np.int64

#: Payload values stay non-negative so padded dummies (-1) compact exactly.
_PAYLOAD_MAX = 1 << 30


# -- the floor: non-oblivious answers with numpy sorts --------------------------


def match_indices(left_keys: np.ndarray, right_keys: np.ndarray):
    """Row index pairs ``(li, ri)`` of every key match (sort + binary search)."""
    order = np.argsort(right_keys, kind="stable")
    ordered = right_keys[order]
    start = np.searchsorted(ordered, left_keys, "left")
    count = np.searchsorted(ordered, left_keys, "right") - start
    li = np.repeat(np.arange(len(left_keys)), count)
    within = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
    return li, order[np.repeat(start, count) + within]


def floor_join(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(d1, d2)`` rows of the equi-join of two ``(j, d)`` tables."""
    li, ri = match_indices(left[:, 0], right[:, 0])
    return np.stack([left[li, 1], right[ri, 1]], axis=1)


def floor_chain(tables: list[np.ndarray], keys) -> np.ndarray:
    """Left-deep cascade over int tables; rows fold every table's columns."""
    rows = tables[0]
    for table, (left_col, right_col) in zip(tables[1:], keys):
        li, ri = match_indices(rows[:, left_col], table[:, right_col])
        rows = np.hstack([rows[li], table[ri]])
    return rows


def sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Canonical multiset form: rows in lexicographic order."""
    if len(rows) == 0:
        return rows
    return rows[np.lexsort(rows.T[::-1])]


def as_rows(pairs, width: int = 2) -> np.ndarray:
    """An engine result as an int array with the padded dummy tail removed."""
    rows = np.asarray(pairs, dtype=_INT).reshape(-1, width)
    return rows[rows[:, 0] >= 0]


# -- binary joins: five of the seven workloads ----------------------------------


class BinaryJoin(Workload):
    """A two-table equi-join on ``(n, 2)`` int64 arrays.

    Subclasses pick the input shape and the measured call; the yardstick is
    always ``get_engine("vector", <same padding>).join`` on the same arrays.
    """

    n = 16384
    tiny_n = 256
    padding: dict = {}
    exact_order = False  # sharded/store paths must match vector row for row

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.n = self.tiny_n
        self.rows_per_query = 2 * self.n

    # inputs --------------------------------------------------------------

    def keys(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """1x1 groups: both sides carry each key exactly once (m = n)."""
        return rng.permutation(self.n), rng.permutation(self.n)

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        left_keys, right_keys = self.keys(rng)
        self.left = np.stack(
            [left_keys, rng.integers(0, _PAYLOAD_MAX, len(left_keys))], axis=1
        ).astype(_INT)
        self.right = np.stack(
            [right_keys, rng.integers(0, _PAYLOAD_MAX, len(right_keys))], axis=1
        ).astype(_INT)

    # calls ----------------------------------------------------------------

    def build(self) -> None:
        """Acquire whatever the measured call needs (pools, stores)."""
        self.engine = get_engine("vector", **self.padding)

    def call(self):
        return self.engine.join(self.left, self.right).pairs

    def setup(self) -> None:
        self.vector = get_engine("vector", **self.padding)
        self.build()
        self.call()
        self.vector.join(self.left, self.right)

    def oracle(self) -> None:
        self.floor_sorted = sorted_rows(floor_join(self.left, self.right))
        self.vector_rows = as_rows(self.vector.join(self.left, self.right).pairs)

    def verify(self, pairs, exact: bool) -> int:
        rows = as_rows(pairs)
        ok = np.array_equal(sorted_rows(rows), self.floor_sorted)
        if ok and exact:
            ok = np.array_equal(rows, self.vector_rows)
        return 0 if ok else 1

    def measured(self, tracer) -> Round:
        with tracer.span(self.span_name, rows=self.rows_per_query) as span:
            pairs = self.call()
        return Round(
            [span.seconds], self.verify(pairs, self.exact_order),
            rows=self.rows_per_query,
        )

    def yardstick(self, tracer) -> Round:
        with tracer.span("yardstick:engines.vector.join") as span:
            pairs = self.vector.join(self.left, self.right).pairs
        return Round([span.seconds], self.verify(pairs, exact=True))

    def floor(self):
        return floor_join(self.left, self.right)


class JoinBalanced(BinaryJoin):
    name = "join_balanced"
    span_name = "engines.vector.join"
    yard_every = 2


class JoinExpand(BinaryJoin):
    """Many-to-many over n/8 key values with an exact output size.

    Group shapes (4x16, 16x4, 8x8) all multiply to 64, so m = 8n for every
    seed: the bitonic network pads to a power of two, and an m that strays
    across one would double the sort sizes between seeds.
    """

    name = "join_expand"
    span_name = "engines.vector.join"
    n = 4096
    tiny_n = 128
    yard_every = 2

    def keys(self, rng):
        groups = self.n // 8
        shapes = np.array([(4, 16)] * (groups // 4) + [(16, 4)] * (groups // 4)
                          + [(8, 8)] * (groups - 2 * (groups // 4)))
        shapes = shapes[rng.permutation(groups)]
        ids = np.arange(groups)
        return (
            rng.permutation(np.repeat(ids, shapes[:, 0])),
            rng.permutation(np.repeat(ids, shapes[:, 1])),
        )


class JoinShardedPool(BinaryJoin):
    name = "join_sharded_pool"
    span_name = "engines.sharded.join"
    exact_order = True
    yard_every = 2
    sharded = {"shards": 2, "workers": 2, "executor": "pool"}

    def build(self) -> None:
        self.engine = get_engine("sharded", **self.sharded, **self.padding)

    def teardown(self) -> None:
        shutdown_warm_executors()
        shutdown_pools()


class JoinShardedBounded(JoinShardedPool):
    """Padded sharded execution; a quarter of the keys repeat (m = 1.5 n)."""

    name = "join_sharded_bounded"
    n = 512
    tiny_n = 64
    yard_every = 1

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.padding = {"padding": "bounded", "bound": 2 * self.n}

    def keys(self, rng):
        repeated = self.n // 4
        base = np.concatenate([np.arange(self.n - repeated), np.arange(repeated)])
        return rng.permutation(base), rng.permutation(base)


class StorePagedJoin(BinaryJoin):
    """The join over an encrypted FileStore with a cache 1/8 of the data."""

    name = "store_paged_join"
    span_name = "shard.join[store]"
    exact_order = True
    yard_every = 1
    block_bytes = 4096
    shards = 4
    key = b"bench-key-16byte"

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        # Four int64 columns of n rows; the trusted cache holds an eighth.
        self.user_bytes = 4 * self.n * 8
        self.cache_bytes = max(self.block_bytes, self.user_bytes // 8)
        self.root = None

    def ingest(self, tag: str, key: bytes | None):
        """Write both tables block-wise, flush, and adopt the store."""
        store = FileStore(os.path.join(self.root, tag), self.block_bytes, key)
        for name, column in (
            ("L/j", self.left[:, 0]), ("L/d", self.left[:, 1]),
            ("R/j", self.right[:, 0]), ("R/d", self.right[:, 1]),
        ):
            write_int_column(store, name, column)
        store.flush()
        spec = adopt(store, cache_bytes=self.cache_bytes)
        return store, (
            StorePairs(spec, self.n, "L/j", "L/d"),
            StorePairs(spec, self.n, "R/j", "R/d"),
        )

    def build(self) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
        start = time.perf_counter()
        self.store, self.stored = self.ingest("encrypted", self.key)
        self.ingest_seconds = time.perf_counter() - start

    def call(self):
        pairs, _stats = sharded_oblivious_join(
            *self.stored, shards=self.shards, executor="inline"
        )
        return pairs

    def measured(self, tracer) -> Round:
        before = stats_snapshot()
        round_ = super().measured(tracer)
        after = stats_snapshot()
        round_.details = [{name: after[name] - before[name] for name in after}]
        return round_

    def teardown(self) -> None:
        detach_all()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


# -- the multiway chain -----------------------------------------------------------


class MultiwayChain(Workload):
    """t0(a, p) - t1(a, b) - t2(b, p): a 3-table chain under bounded padding."""

    name = "multiway_chain"
    yard_every = 2
    keys = [(0, 0), (3, 0)]
    tree = [(0, 1, 0, 0), (1, 2, 1, 0)]

    def __init__(self, tiny: bool = False) -> None:
        self.n = 128 if tiny else 8192
        self.rows_per_query = 3 * self.n
        self.padding = {"padding": "bounded", "bound": 2 * self.n}

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = self.n
        self.arrays = [
            np.stack([rng.permutation(n), rng.integers(0, _PAYLOAD_MAX, n)], axis=1),
            np.stack([rng.permutation(n), rng.permutation(n)], axis=1),
            np.stack([rng.permutation(n), rng.integers(0, _PAYLOAD_MAX, n)], axis=1),
        ]
        # The engine's multiway entry points take lists of row tuples.
        self.tables = [[tuple(row) for row in a.tolist()] for a in self.arrays]

    def call(self):
        return self.engine.multiway_join(self.tables, self.keys).rows

    def setup(self) -> None:
        self.engine = get_engine("vector", **self.padding)
        self.call()

    def oracle(self) -> None:
        self.floor_sorted = sorted_rows(floor_chain(self.arrays, self.keys))

    def verify(self, rows) -> int:
        rows = np.asarray(rows, dtype=_INT).reshape(-1, 6)
        return 0 if np.array_equal(sorted_rows(rows), self.floor_sorted) else 1

    def measured(self, tracer) -> Round:
        with tracer.span("engines.vector.multiway_join", rows=self.rows_per_query) as span:
            rows = self.call()
        return Round([span.seconds], self.verify(rows), rows=self.rows_per_query)

    def yardstick(self, tracer) -> Round:
        with tracer.span("yardstick:engines.vector.multiway_join") as span:
            rows = self.call()
        return Round([span.seconds], self.verify(rows))

    def floor(self):
        return floor_chain(self.arrays, self.keys)


# -- the service mix --------------------------------------------------------------

#: Queries per op in every round of 20 (30/20/20/10/10/5/5 percent).  Each
#: round holds the whole mix, so any run of whole rounds has the same
#: composition whatever the seed; only the order inside a round is shuffled.
SERVICE_MIX = {
    "join": 6, "group_by": 4, "filter": 4, "order_by": 2,
    "join_aggregate": 2, "multiway_join": 1, "join_tree": 1,
}

#: Rounds in the full sequence (8 x 20 = 160 queries).
SERVICE_ROUNDS = 8

#: Input tables each op reads, for `rows_per_s`.
_TABLES_READ = {
    "join": 2, "group_by": 1, "filter": 1, "order_by": 1,
    "join_aggregate": 2, "multiway_join": 3, "join_tree": 3,
}


def _ck(code: int) -> str:
    return f"c{code:05d}"


def service_tables(rng, n: int) -> dict[str, np.ndarray]:
    """customers(ck, region, score) <- orders(ck, oid, amount) <- items(oid, qty, price)
    as int arrays; `ck` travels as a string on the wire (see `db_tables`)."""
    return {
        "customers": np.stack(
            [rng.permutation(n), rng.integers(0, 16, n), rng.integers(0, 1000, n)], axis=1
        ),
        "orders": np.stack(
            [rng.integers(0, n, n), rng.permutation(n), rng.integers(0, 1000, n)], axis=1
        ),
        "items": np.stack(
            [rng.integers(0, n, n), rng.integers(1, 10, n), rng.integers(0, 1000, n)], axis=1
        ),
    }


def db_tables(arrays: dict[str, np.ndarray]) -> dict[str, DBTable]:
    def with_str_key(rows):
        return [(_ck(row[0]),) + tuple(row[1:]) for row in rows]

    return {
        "customers": DBTable.from_rows(
            ["ck:str", "region:int", "score:int"],
            with_str_key(arrays["customers"].tolist()),
        ),
        "orders": DBTable.from_rows(
            ["ck:str", "oid:int", "amount:int"],
            with_str_key(arrays["orders"].tolist()),
        ),
        "items": DBTable.from_rows(
            ["oid:int", "qty:int", "price:int"],
            [tuple(row) for row in arrays["items"].tolist()],
        ),
    }


#: The first query after boot.  It also fixes the dictionary encoder's code
#: assignment (customers.ck first), which the canonical output order of every
#: later str-keyed query depends on.
COLD_SPEC = {"op": "join", "left": "customers", "right": "orders", "on": ["ck", "ck"]}


def service_specs() -> list[dict]:
    """The fixed sequence of 160 query specs: eight shuffled rounds of 20.

    The order comes from a constant seed, not from `--seed`: which queries
    collide on the server's lock is part of the workload, and letting it
    vary between runs moved the median latency by 12 %.  `--seed` still
    drives the table contents.
    """
    rng = np.random.default_rng(160)
    variants = {
        "join": [
            COLD_SPEC,
            {"op": "join", "left": "orders", "right": "items", "on": ["oid", "oid"]},
        ],
        "group_by": [
            {"op": "group_by", "table": "orders", "key": "ck", "value": "amount"},
            {"op": "group_by", "table": "items", "key": "oid", "value": "price"},
        ],
        "filter": [
            {"op": "filter", "table": "items", "column": "price", "cmp": "lt",
             "value": value}
            for value in (250, 750)  # prices are uniform on [0, 1000)
        ],
        "order_by": [
            {"op": "order_by", "table": "items",
             "columns": [["price", True], ["qty", False]]},
            {"op": "order_by", "table": "orders", "columns": [["amount", False]]},
        ],
        "join_aggregate": [
            {"op": "join_aggregate", "left": "customers", "right": "orders",
             "on": ["ck", "ck"], "values": ["score", "amount"]},
            {"op": "join_aggregate", "left": "orders", "right": "items",
             "on": ["oid", "oid"], "values": ["amount", "price"]},
        ],
        "multiway_join": [
            {"op": "multiway_join", "tables": ["customers", "orders", "items"],
             "on": [["ck", "ck"], ["oid", "oid"]]},
        ],
        "join_tree": [
            {"op": "join_tree", "tables": ["orders", "customers", "items"],
             "tree": [[0, 1, "ck", "ck"], [0, 2, "oid", "oid"]]},
        ],
    }
    one_round = [
        variants[op][index % len(variants[op])]
        for op, count in SERVICE_MIX.items()
        for index in range(count)
    ]
    return [
        one_round[i]
        for _ in range(SERVICE_ROUNDS)
        for i in rng.permutation(len(one_round))
    ]


def spec_key(spec: dict) -> str:
    return repr(sorted(spec.items()))


def _join_rows(left: DBTable, right: DBTable, on) -> list[tuple]:
    li = left.schema.index(on[0])
    ri = right.schema.index(on[1])
    index: dict = {}
    for row in right.rows:
        index.setdefault(row[ri], []).append(row)
    return [l + r for l in left.rows for r in index.get(l[li], ())]


def _grouped(table: DBTable, key: str, value: str) -> dict:
    k, v = table.schema.index(key), table.schema.index(value)
    groups: dict = {}
    for row in table.rows:
        groups.setdefault(row[k], []).append(row[v])
    return groups


def plain_answer(t: dict[str, DBTable], spec: dict) -> list[tuple]:
    """The floor of `service_mix`: one query answered with dicts and loops."""
    op = spec["op"]
    if op == "join":
        return _join_rows(t[spec["left"]], t[spec["right"]], spec["on"])
    if op == "filter":
        table = t[spec["table"]]
        col = table.schema.index(spec["column"])
        return [row for row in table.rows if row[col] < spec["value"]]
    if op == "order_by":
        table = t[spec["table"]]
        cols = [(table.schema.index(n), 1 if asc else -1) for n, asc in spec["columns"]]
        return sorted(table.rows, key=lambda row: [s * row[c] for c, s in cols])
    if op == "group_by":
        groups = _grouped(t[spec["table"]], spec["key"], spec["value"])
        return [(key, len(g), sum(g), min(g), max(g)) for key, g in groups.items()]
    if op == "join_aggregate":
        a, b = (
            _grouped(t[spec[side]], key, value)
            for side, key, value in zip(("left", "right"), spec["on"], spec["values"])
        )
        return [
            (key, len(a[key]) * len(b[key]), sum(a[key]) * len(b[key]),
             sum(b[key]) * len(a[key]), sum(a[key]) * sum(b[key]))
            for key in a if key in b
        ]
    if op == "multiway_join":
        first, second, third = (t[name] for name in spec["tables"])
        (on1, on2) = spec["on"]
    else:  # join_tree: both edges hang off table 0; rows fold in table order
        first, second, third = (t[name] for name in spec["tables"])
        (_, _, p1, c1), (_, _, p2, c2) = spec["tree"]
        on1, on2 = (p1, c1), (p2, c2)
    half = DBTable(
        first.schema.concat(second.schema, ("t0", "t1")), _join_rows(first, second, on1)
    )
    return _join_rows(half, third, on2)


class ServiceMix(Workload):
    """Two closed-loop clients replaying a seeded query mix against a
    `QueryServer` subprocess holding three generated tables."""

    name = "service_mix"
    # A 10 s run replays 100 to 140 queries of the 160-query sequence; p90
    # is then the highest percentile with at least ten samples beyond it.
    tail_pct = 90.0
    yard_every = 2
    queries_per_round = 20
    clients = 2

    def __init__(self, tiny: bool = False) -> None:
        self.n = 128 if tiny else 4096
        self.proc = None
        self.conns: list[ServiceClient] = []

    def generate(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.arrays = service_tables(rng, self.n)
        self.tables = db_tables(self.arrays)
        self.specs = service_specs()

    # server lifecycle -------------------------------------------------------

    def setup(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"),
             "--seed", str(self.seed), "--rows", str(self.n)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        banner = self.proc.stdout.readline().strip()
        if not banner.startswith("listening on "):
            raise RuntimeError(f"service launcher said {banner!r}")
        host, _, port = banner.removeprefix("listening on ").rpartition(":")
        self.conns = [ServiceClient(host, int(port)) for _ in range(self.clients)]
        start = time.perf_counter()
        self.conns[0].query(COLD_SPEC)
        self.cold_query_seconds = time.perf_counter() - start
        self._build_yardsticks()
        for spec in self.distinct.values():
            self.conns[0].query(spec)
            self.yards[spec_key(spec)]()
        self.stats_at_start = self.conns[0].stats()  # cache counters, timed phase

    def teardown(self) -> None:
        try:
            for conn in self.conns[1:]:
                conn.close()
            if self.conns and self.proc is not None and self.proc.poll() is None:
                self.conns[0].shutdown()
        except OSError:
            pass
        finally:
            if self.conns:
                self.conns[0].close()
            self.conns = []
            if self.proc is not None:
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                self.proc.stdout.close()
                self.proc = None

    # yardsticks: the same logical query straight on the vector engine -------

    def _build_yardsticks(self) -> None:
        vec = get_engine("vector")
        arrays = self.arrays
        handles = np.arange(self.n, dtype=_INT)
        tuples = {name: [tuple(r) for r in a.tolist()] for name, a in arrays.items()}
        col_of = {
            "customers": {"ck": 0, "region": 1, "score": 2},
            "orders": {"ck": 0, "oid": 1, "amount": 2},
            "items": {"oid": 0, "qty": 1, "price": 2},
        }

        def pairs(table, key, value=None):
            second = handles if value is None else arrays[table][:, col_of[table][value]]
            return np.stack([arrays[table][:, col_of[table][key]], second], axis=1).astype(_INT)

        self.distinct = {spec_key(spec): spec for spec in self.specs}
        self.yards = {}
        for key, spec in self.distinct.items():
            op = spec["op"]
            if op == "join":
                l, r = pairs(spec["left"], spec["on"][0]), pairs(spec["right"], spec["on"][1])
                self.yards[key] = lambda l=l, r=r: vec.join(l, r).pairs
            elif op == "group_by":
                p = pairs(spec["table"], spec["key"], spec["value"])
                self.yards[key] = lambda p=p: vec.group_by(p)
            elif op == "filter":
                mask = arrays[spec["table"]][:, col_of[spec["table"]][spec["column"]]] < spec["value"]
                self.yards[key] = lambda mask=mask: vec.filter_indices(mask)
            elif op == "order_by":
                cols = [
                    (arrays[spec["table"]][:, col_of[spec["table"]][name]], bool(asc))
                    for name, asc in spec["columns"]
                ]
                self.yards[key] = lambda cols=cols: vec.order_permutation(cols)
            elif op == "join_aggregate":
                l = pairs(spec["left"], spec["on"][0], spec["values"][0])
                r = pairs(spec["right"], spec["on"][1], spec["values"][1])
                self.yards[key] = lambda l=l, r=r: vec.aggregate(l, r)
            elif op == "multiway_join":
                tabs = [tuples[name] for name in spec["tables"]]
                # customers(3 cols) + orders: orders.oid is folded column 4.
                self.yards[key] = lambda tabs=tabs: vec.multiway_join(tabs, [(0, 0), (4, 0)]).rows
            else:
                tabs = [tuples[name] for name in spec["tables"]]
                self.yards[key] = lambda tabs=tabs: vec.join_tree(
                    tabs, [(0, 1, 0, 0), (0, 2, 1, 0)]
                ).rows

    def _logical_rows(self, spec: dict, result) -> list[tuple]:
        """A yardstick's engine-level result as the rows the query means."""
        op = spec["op"]
        t = self.tables
        # Group keys come back as the benchmark's int codes; `ck` is a str.
        decode = _ck if "ck" in (spec.get("key"), spec.get("on", [None])[0]) else int
        if op == "join":
            left, right = t[spec["left"]].rows, t[spec["right"]].rows
            return [left[li] + right[ri] for li, ri in result]
        if op in ("filter", "order_by"):
            rows = t[spec["table"]].rows
            return [rows[i] for i in result]
        if op == "group_by":
            return [(decode(g.j), g.count1, g.sum_d1, g.min_d1, g.max_d1) for g in result]
        if op == "join_aggregate":
            return [
                (decode(g.j), g.pair_count, g.join_sum_d1, g.join_sum_d2,
                 g.join_sum_product)
                for g in result
            ]
        # multiway / join_tree: int rows of three 3-column tables; put the
        # str keys (column 0 of customers and orders) back.
        str_cols = [
            3 * position
            for position, name in enumerate(spec["tables"])
            if name != "items"
        ]
        return [
            tuple(_ck(v) if i in str_cols else v for i, v in enumerate(row))
            for row in result
        ]

    def oracle(self) -> None:
        """Expected answers per distinct spec: the floor multiset, the exact
        rows of an in-process vector ServiceEngine, and the yardstick's own
        reference result — each checked against the floor once."""
        self.expected: dict[str, list[tuple]] = {}
        self.yard_ref: dict = {}
        self.oracle_failures = 0
        reference = ServiceEngine(engine="vector")
        for name, table in self.tables.items():
            reference.register_table(name, table)
        reference.query(COLD_SPEC)
        for key, spec in self.distinct.items():
            want = sorted(plain_answer(self.tables, spec))
            exact = list(reference.query(spec).table.rows)
            self.expected[key] = exact
            self.yard_ref[key] = self.yards[key]()
            if sorted(exact) != want or sorted(
                self._logical_rows(spec, self.yard_ref[key])
            ) != want:
                self.oracle_failures += 1
                self.expected[key] = None  # every query of this spec now fails
        reference.encoding.close()

    # rounds -----------------------------------------------------------------

    def measured(self, tracer) -> Round:
        # Round r replays slice r of the sequence, so a traced and an
        # untraced pass of the same round answer the same queries.
        first = (tracer.query or 0) * self.queries_per_round
        specs = [
            self.specs[(first + i) % len(self.specs)]
            for i in range(self.queries_per_round)
        ]
        self.last_round = specs
        results: list = [None] * len(specs)

        def client(index: int) -> None:
            conn = self.conns[index]
            for slot in range(index, len(specs), self.clients):
                spec = specs[slot]
                with tracer.span("service.query", query=first + slot, op=spec["op"]) as span:
                    table, stats = conn.query(spec)
                results[slot] = (span.seconds, table.rows, stats)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        failed = 0
        rows = 0
        times = []
        details = []
        for spec, result in zip(specs, results):
            if result is None:  # the client thread raised
                failed += 1
                continue
            seconds, got, stats = result
            times.append(seconds)
            rows += _TABLES_READ[spec["op"]] * self.n
            if got != self.expected[spec_key(spec)]:
                failed += 1
            details.append({
                "op": spec["op"], "client_s": seconds, "server_s": stats["seconds"],
                "queue_depth": stats["queue_depth"],
            })
        return Round(times, failed, wall=wall, rows=rows, attempted=len(specs),
                     details=details)

    def yardstick(self, tracer) -> Round:
        """The round just measured, answered by direct vector engine calls
        on pre-encoded arrays."""
        times = []
        failed = 0
        for spec in self.last_round:
            key = spec_key(spec)
            with tracer.span("yardstick:engines.vector." + spec["op"]) as span:
                result = self.yards[key]()
            times.append(span.seconds)
            if self.expected[key] is None or result != self.yard_ref[key]:
                failed += 1
        return Round(times, failed)

    def floor(self):
        return [plain_answer(self.tables, spec) for spec in self.last_round]


WORKLOADS = {
    cls.name: cls
    for cls in (
        JoinBalanced, JoinExpand, MultiwayChain, JoinShardedPool,
        JoinShardedBounded, ServiceMix, StorePagedJoin,
    )
}
