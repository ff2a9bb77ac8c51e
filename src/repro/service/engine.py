"""The query service engine: one warm engine serving a series of queries.

:class:`ServiceEngine` is the in-process core behind ``python -m repro
serve``: it owns one configured :class:`~repro.db.query.ObliviousEngine`
and the two things a series of queries can share —

* an :class:`~repro.db.encoding_cache.EncodingCache` (the relational
  engine's own), so repeated tables skip the dictionary-encoding scans and
  the pairs materialization;
* the warm executor registry (:func:`repro.plan.executors.warm_executor`),
  so the sharded engine's thread pool is created once, not per query.

Plans are recompiled and shard parts re-cut and re-shipped by every query:
caching them measured level against the query they serve (the sizing is in
``docs/architecture.md``, "Query service").

Queries arrive as JSON-able *specs* over named registered tables (the wire
format ``repro serve`` speaks; see :data:`QUERY_OPS`) and run strictly one
at a time under a lock — obliviousness is per-schedule, and interleaving
two schedules on one tracer/engine would corrupt both.  Concurrency is
therefore admission concurrency: :meth:`submit` is safe to call from many
asyncio tasks, requests queue on the lock, and each result reports the
queue depth it saw plus its cache hit/miss deltas.

A service installs nothing process-wide, so any number of them can live in
one process and closing one leaves the others intact.  What they do share
is stateless between queries: the persistent pools and the warm-executor
registry of :mod:`repro.plan.executors`, and the per-process store handles
of :mod:`repro.store.runtime`; any number of threads may dispatch on them.
Results are bit-identical to a cold engine — pinned by the
serial-vs-concurrent and cold-vs-warm tests in ``tests/test_service.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from ..db.encoding_cache import EncodingCache
from ..db.query import ObliviousEngine
from ..db.table import DBTable
from ..errors import InputError, SchemaError
from ..plan.executors import executor_stats, warm_executor
from ..store.runtime import residency_snapshot, stats_snapshot

#: Spec ops the service understands (the ``repro serve`` wire surface).
QUERY_OPS = (
    "join",
    "multiway_join",
    "join_tree",
    "group_by",
    "join_aggregate",
    "order_by",
    "filter",
)

#: Comparison predicates a filter spec may name (predicates travel as data
#: on the wire, never as code).
FILTER_CMPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


@dataclass
class QueryStats:
    """What one query cost and what the encoding cache did for it."""

    op: str
    seconds: float
    queue_depth: int
    #: The query hit the encoding cache: it reused an earlier query's
    #: table-level work.
    warm: bool
    encoding_cache: dict = field(default_factory=dict)
    #: Block-store IO this query drove *in this process* (reads, cache
    #: hits/misses/evictions, decryptions — deltas of the attached
    #: handles' counters).  All zeros when no store-backed table was
    #: touched.  Local-only diagnostics: never part of any plan or
    #: wire-visible schedule.
    store: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "seconds": self.seconds,
            "queue_depth": self.queue_depth,
            "warm": self.warm,
            "encoding_cache": dict(self.encoding_cache),
            "store": dict(self.store),
        }


@dataclass
class QueryResult:
    """A query's table plus its service-layer stats."""

    table: DBTable
    stats: QueryStats


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class ServiceEngine:
    """A warm, cache-backed engine serving a series of queries."""

    def __init__(
        self,
        engine: str = "vector",
        encoding_cache: EncodingCache | None = None,
        **engine_options,
    ) -> None:
        if engine == "sharded":
            # Resolve through the warm registry so the pool survives
            # across queries.
            engine_options["executor"] = warm_executor(
                engine_options.get("executor"),
                workers=engine_options.get("workers", 1),
            )
        self.oblivious = ObliviousEngine(
            engine=engine, encoding_cache=encoding_cache, **engine_options
        )
        self.encoding = self.oblivious.encoding
        self.engine_name = self.oblivious.engine.name
        self.tables: dict[str, DBTable] = {}
        self._lock = threading.Lock()
        self._waiting = 0
        self._admitted = threading.Lock()  # guards the _waiting counter
        self.queries = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop every cached encoding."""
        self.encoding.close()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tables --------------------------------------------------------------

    def register_table(self, name: str, table: DBTable) -> None:
        """Register (or replace) a named table queries can reference."""
        previous = self.tables.get(name)
        if previous is not None and previous is not table:
            self.encoding.invalidate(previous)
        self.tables[name] = table

    def _table(self, name) -> DBTable:
        try:
            return self.tables[name]
        except KeyError:
            raise InputError(
                f"unknown table {name!r}; registered: {sorted(self.tables)}"
            ) from None

    # -- queries -------------------------------------------------------------

    def query(self, spec: dict) -> QueryResult:
        """Run one query spec; returns the table plus per-query stats."""
        op = spec.get("op")
        if op not in QUERY_OPS:
            raise InputError(
                f"unknown query op {op!r}; supported: {', '.join(QUERY_OPS)}"
            )
        with self._admitted:
            depth = self._waiting
            self._waiting += 1
        try:
            with self._lock:
                encoding_before = self.encoding.snapshot()
                store_before = stats_snapshot()
                started = time.perf_counter()
                table = getattr(self, f"_run_{op}")(spec)
                seconds = time.perf_counter() - started
                encoding_delta = _delta(
                    encoding_before, self.encoding.snapshot()
                )
                store_delta = _delta(store_before, stats_snapshot())
                self.queries += 1
        finally:
            with self._admitted:
                self._waiting -= 1
        return QueryResult(
            table=table,
            stats=QueryStats(
                op=op,
                seconds=seconds,
                queue_depth=depth,
                warm=encoding_delta["hits"] > 0,
                encoding_cache=encoding_delta,
                store=store_delta,
            ),
        )

    async def submit(self, spec: dict) -> QueryResult:
        """Asyncio admission: run :meth:`query` off the event loop."""
        return await asyncio.to_thread(self.query, spec)

    def service_stats(self) -> dict:
        """Service-level counters for the ``stats`` wire request."""
        return {
            "engine": self.engine_name,
            "queries": self.queries,
            "tables": sorted(self.tables),
            "waiting": self._waiting,
            # No plan cache exists; the frozen benchmark's
            # benchmarks/e2e/layers.py::service_and_db indexes this field
            # (it always read 0 there).  The `benchmark` PR that retires
            # `service.plan_cache_hit_frac` removes it.
            "plan_cache": {"hits": 0, "misses": 0},
            "encoding_cache": self.encoding.snapshot(),
            "executors": executor_stats(),
            "store": stats_snapshot(),
            # Per-store trusted-memory residency plus the EPC-modeled
            # paging slowdown; local operator diagnostics only.
            "store_residency": residency_snapshot(),
        }

    # -- per-op runners ------------------------------------------------------

    def _run_join(self, spec: dict) -> DBTable:
        left = self._table(spec["left"])
        right = self._table(spec["right"])
        on = tuple(spec["on"])
        if len(on) != 2:
            raise SchemaError("join 'on' must name (left_col, right_col)")
        return self.oblivious.join(left, right, on)

    def _run_multiway_join(self, spec: dict) -> DBTable:
        tables = [self._table(name) for name in spec["tables"]]
        on = [tuple(pair) for pair in spec["on"]]
        return self.oblivious.multiway_join(tables, on)

    def _run_join_tree(self, spec: dict) -> DBTable:
        tables = [self._table(name) for name in spec["tables"]]
        tree = [tuple(edge) for edge in spec["tree"]]
        return self.oblivious.join_tree(tables, tree)

    def _run_group_by(self, spec: dict) -> DBTable:
        return self.oblivious.group_by(
            self._table(spec["table"]), spec["key"], spec["value"]
        )

    def _run_join_aggregate(self, spec: dict) -> DBTable:
        return self.oblivious.join_aggregate(
            self._table(spec["left"]),
            self._table(spec["right"]),
            tuple(spec["on"]),
            tuple(spec["values"]),
        )

    def _run_order_by(self, spec: dict) -> DBTable:
        columns = [(name, bool(asc)) for name, asc in spec["columns"]]
        return self.oblivious.order_by(self._table(spec["table"]), columns)

    def _run_filter(self, spec: dict) -> DBTable:
        table = self._table(spec["table"])
        try:
            compare = FILTER_CMPS[spec.get("cmp", "eq")]
        except KeyError:
            raise InputError(
                f"unknown filter cmp {spec.get('cmp')!r}; "
                f"supported: {', '.join(sorted(FILTER_CMPS))}"
            ) from None
        index = table.schema.index(spec["column"])
        value = spec["value"]
        return self.oblivious.filter(
            table, lambda row: compare(row[index], value)
        )
