"""Per-layer probes of the traced run.

Each probe times calls into one layer's public functions from here, under a
span, on the workload the layer belongs to: `service.`/`db.` on
`service_mix`, `store.`/`memory.` on `store_paged_join`, `plan.`/`shard.`
on the two sharded workloads, `vector.`/`engines.` on the join workloads.

The builder contract wants every per-layer metric from every traced run, so
each run visits every layer.  The traced workload stands in for its own
class: its layer's numbers come from the rounds it has just run, on the
server, pool or store it still holds, and nothing of its is set up twice.
The other layers get a fresh instance for a round or two.

Values are medians of a few repetitions (one for calls over 0.4 s); they
carry no regression bound.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from repro.db.encoding import DictionaryEncoder
from repro.db.encoding_cache import EncodingCache
from repro.db.query import ObliviousEngine
from repro.engines import get_engine
from repro.memory.encryption import ProbabilisticEncryptor
from repro.plan.compile import compile_workload
from repro.plan.executors import (
    PoolExecutor, shutdown_pools, shutdown_warm_executors, warm_pool,
)
from repro.shard.join import MERGE_KEYS, sharded_oblivious_join
from repro.shard.merge import merge_comparator_count, oblivious_merge_runs
from repro.shard.partition import partition_pairs
from repro.vector.aggregate import vector_group_by
from repro.vector.join import vector_oblivious_join
from repro.vector.relational import vector_filter_indices, vector_order_permutation
from repro.vector.sort import vector_bitonic_sort

import workloads
from harness import HERE, median

_INT = np.int64
MIB = float(1 << 20)


class _Probe:
    """Collects `name -> (value, unit)` and times calls under spans."""

    def __init__(self, workload, samples, calib, tracer, seed, tiny) -> None:
        self.workload = workload
        self.samples = samples
        self.calib = calib
        self.tracer = tracer
        self.seed = seed
        self.tiny = tiny
        self.reps = 1 if tiny else 3
        self.metrics: dict[str, tuple[float, str]] = {}

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def time(self, span_name: str, call, reps: int | None = None, **counts):
        """Median calibrated seconds of `call()` over `reps` spans, and its
        last result.  One calibration window brackets all the repetitions."""
        seconds = []
        result = None
        with self.calib.window() as window:
            for _ in range(reps or self.reps):
                with self.tracer.span(span_name, **counts) as span:
                    result = call()
                seconds.append(span.seconds)
        return median(seconds) * window.scale, result

    def generated(self, cls):
        """The inputs of workload `cls`: the traced workload's own, when it
        is one."""
        if type(self.workload) is cls:
            return self.workload
        fresh = cls(self.tiny)
        fresh.generate(self.seed)
        return fresh

    @contextmanager
    def running(self, cls, rounds: int):
        """A set-up workload `cls` and `[(Round, scale)]` it has measured:
        the traced workload with every round it ran, when it is one;
        otherwise a fresh instance, run for `rounds` and torn down on exit."""
        if type(self.workload) is cls:
            yield self.workload, [(r, scale) for r, scale, _ in self.samples.measured]
            return
        fresh = cls(self.tiny)
        fresh.generate(self.seed)
        try:
            fresh.setup()
            fresh.oracle()
            measured = []
            for index in range(rounds):
                self.tracer.query = index
                with self.calib.window() as window:
                    round_ = fresh.measured(self.tracer)
                self.samples.count(round_)
                measured.append((round_, window.scale))
            self.tracer.query = None
            self.samples.failed += getattr(fresh, "oracle_failures", 0)
            yield fresh, measured
        finally:
            fresh.teardown()


def _identity(payload):
    return payload


def _seconds(measured) -> list[float]:
    return [t * scale for round_, scale in measured for t in round_.times]


def _sort_replay(probe, rng, span_name, rows, columns, keys):
    """One bitonic sort of `rows` x `columns` random int64, `keys` key columns."""
    table = {f"c{i}": rng.integers(0, 1 << 40, rows) for i in range(columns)}
    counter = [0]
    seconds, _ = probe.time(
        span_name,
        lambda: vector_bitonic_sort(
            table, [(f"c{i}", True) for i in range(keys)], counter=counter
        ),
        reps=1, rows=rows, columns=columns, keys=keys,
    )
    return seconds, counter[0]


def join_sort_shapes(n1: int, n2: int, m: int):
    """(rows, columns, key columns) of the five sorts of one vector join."""
    return [
        (n1 + n2, 3, 2),  # augment_sort1: (j, tid) over j, d, tid
        (n1 + n2, 5, 3),  # augment_sort2: (tid, j, d) plus a1, a2
        (max(n1, m), 6, 2),  # expand1_sort: (_null, f) over six columns
        (max(n2, m), 6, 2),  # expand2_sort
        (m, 5, 2),  # align_sort: (j, ii)
    ]


def dominant_sort_shape(workload):
    """The sort shape that costs a workload the most (see README)."""
    n = workload.n
    return {
        "join_balanced": (2 * n, 5, 3),
        "join_expand": (8 * n, 6, 2),
        "multiway_chain": (2 * n + 1, 6, 2),
        "join_sharded_pool": (n, 5, 3),
        "join_sharded_bounded": (n + 2, 5, 3),
        "service_mix": (2 * n, 5, 3),
        "store_paged_join": (n // 2, 5, 3),
    }[workload.name]


# -- the probes ---------------------------------------------------------------------


def vector_and_engines(probe, rng) -> float:
    """`vector.` and `engines.` on the join workloads' inputs; returns
    `vector.join_s`."""
    balanced = probe.generated(workloads.JoinBalanced)
    left, right, n = balanced.left, balanced.right, balanced.n
    engine = get_engine("vector")
    direct, wrapped = [], []
    for _ in range(probe.reps):  # interleaved: drift hits both alike
        seconds, _ = probe.time(
            "vector.join", lambda: vector_oblivious_join(left, right), reps=1, n1=n, n2=n
        )
        direct.append(seconds)
        seconds, _ = probe.time(
            "engines.vector.join", lambda: engine.join(left, right), reps=1, n1=n, n2=n
        )
        wrapped.append(seconds)
    join_s = median(direct)
    probe.put("vector.join_s", join_s, "s")
    probe.put("engines.wrap_s", median(np.subtract(wrapped, direct)), "s")

    replay = sum(
        _sort_replay(probe, rng, "vector.sort[join shape]", *shape)[0]
        for shape in join_sort_shapes(n, n, n)
    )
    probe.put("vector.sort_share", replay / join_s, "frac")

    seconds, comparators = _sort_replay(
        probe, rng, "vector.sort[dominant]", *dominant_sort_shape(probe.workload)
    )
    probe.put("vector.sort_s", seconds, "s")
    probe.put("vector.sort_comparators", comparators, "count")
    probe.put("vector.sort_ns_per_cmp", 1e9 * seconds / comparators, "ns")

    chain = probe.generated(workloads.MultiwayChain)
    padded = get_engine("vector", **chain.padding)
    seconds, _ = probe.time(
        "vector.multiway", lambda: padded.multiway_join(chain.tables, chain.keys), reps=1
    )
    probe.put("vector.multiway_s", seconds, "s")
    seconds, _ = probe.time(
        "vector.join_tree", lambda: padded.join_tree(chain.tables, chain.tree), reps=1
    )
    probe.put("vector.join_tree_s", seconds, "s")
    return join_s


def service_and_db(probe) -> None:
    """`service.` from a `service_mix` session, `db.` and the relational
    `vector.` calls on its tables."""
    with probe.running(workloads.ServiceMix, rounds=1) as (mix, measured):
        seconds, _ = probe.time("service.ping", mix.conns[0].ping, reps=10)
        probe.put("service.ping_s_p50", seconds, "s")
        now = mix.conns[0].stats()
    queries = [(q, scale) for round_, scale in measured for q in round_.details]
    probe.put(
        "service.wire_overhead_s_p50",
        median([(q["client_s"] - q["server_s"]) * scale for q, scale in queries]), "s",
    )
    probe.put("service.queue_depth_mean",
              sum(q["queue_depth"] for q, _ in queries) / len(queries), "count")
    for cache in ("plan_cache", "encoding_cache"):
        # A vector engine compiles no plans, so its plan cache sees no
        # lookups and reads 0; the metric is here for a sharded service.
        hits = now[cache]["hits"] - mix.stats_at_start[cache]["hits"]
        misses = now[cache]["misses"] - mix.stats_at_start[cache]["misses"]
        probe.put(f"service.{cache}_hit_frac", hits / max(1, hits + misses), "frac")
    # Timed once, inside set-up; scaled by the run's median reading.
    run_scale = probe.calib.REF_S / median(probe.calib.samples)
    probe.put("service.cold_query_s", mix.cold_query_seconds * run_scale, "s")
    for op in workloads.SERVICE_MIX:  # every round holds every op
        seconds = [q["server_s"] * scale for q, scale in queries if q["op"] == op]
        probe.put(f"service.{op}_s_p50", median(seconds), "s")

    orders, items = mix.arrays["orders"], mix.arrays["items"]
    pairs = np.ascontiguousarray(orders[:, [0, 2]])
    seconds, _ = probe.time("vector.group_by", lambda: vector_group_by(pairs))
    probe.put("vector.group_by_s", seconds, "s")
    columns = [(items[:, 2], True), (items[:, 1], False)]
    seconds, _ = probe.time(
        "vector.order", lambda: vector_order_permutation(columns, len(items))
    )
    probe.put("vector.order_s", seconds, "s")
    mask = items[:, 2] < 500
    seconds, _ = probe.time("vector.filter", lambda: vector_filter_indices(mask))
    probe.put("vector.filter_s", seconds, "s")

    customers, orders_table = mix.tables["customers"], mix.tables["orders"]
    db = ObliviousEngine(engine="vector")
    db.join(customers, orders_table, ("ck", "ck"))  # warm its private cache
    join_s, _ = probe.time(
        "db.join", lambda: db.join(customers, orders_table, ("ck", "ck"))
    )
    probe.put("db.join_s", join_s, "s")

    def cold_encode():
        cache, encoder = EncodingCache(), DictionaryEncoder()
        cache.key_handle_pairs(customers, "ck", encoder)
        cache.key_handle_pairs(orders_table, "ck", encoder)

    seconds, _ = probe.time("db.encode", cold_encode)
    probe.put("db.encode_s", seconds, "s")
    handles = np.arange(mix.n, dtype=_INT)
    left = np.stack([mix.arrays["customers"][:, 0], handles], axis=1).astype(_INT)
    right = np.stack([orders[:, 0], handles], axis=1).astype(_INT)
    engine = get_engine("vector")
    engine_s, _ = probe.time("engines.vector.join[db shape]", lambda: engine.join(left, right))
    probe.put("db.overhead_x", join_s / engine_s, "x")


def plan_and_shard(probe, rng, vector_join_s) -> None:
    """`plan.` and `shard.` at the two sharded workloads' shapes."""
    bounded = workloads.JoinShardedBounded(probe.tiny)
    with probe.running(workloads.JoinShardedPool, rounds=2) as (pool, measured):
        left, right, n = pool.left, pool.right, pool.n
        for prefix, shape in (
            ("plan.", dict(n1=bounded.n, n2=bounded.n, shards=2, **bounded.padding)),
            ("plan.pool_", dict(n1=n, n2=n, shards=2)),
        ):
            seconds, plan = probe.time(
                "plan.compile", lambda: compile_workload("join", engine="sharded", **shape)
            )
            probe.put(prefix + "compile_s", seconds, "s")
            probe.put(prefix + "bytes", len(plan.serialize()), "B")
            probe.put(prefix + "nodes", len(plan.nodes), "count")
            if prefix == "plan.":
                probe.put("shard.grid_tasks", len(plan.nodes_by_op("grid_join")), "count")
                probe.put(
                    "shard.expand_segments", len(plan.nodes_by_op("expand_segment")), "count"
                )
        seconds, parts = probe.time("plan.partition", lambda: partition_pairs(left, 2))
        probe.put("plan.partition_s", seconds, "s")

        pool_s = median(_seconds(measured))
        executor = PoolExecutor(2)
        payloads = [{"j": part.j, "d": part.d} for part in parts]
        executor.map(_identity, payloads)
        seconds, _ = probe.time(
            "plan.transport", lambda: executor.map(_identity, payloads)
        )
        probe.put("plan.transport_s", seconds, "s")
        # Last, because a cold fork needs the warm pool gone.
        shutdown_warm_executors()
        shutdown_pools()
        try:
            seconds, _ = probe.time("plan.pool_fork", lambda: warm_pool(2), reps=1)
        finally:
            shutdown_pools()
        probe.put("plan.pool_fork_s", seconds, "s")

    inline_s, (_, stats) = probe.time(
        "shard.join[inline]",
        lambda: sharded_oblivious_join(left, right, shards=2, executor="inline"),
        reps=1,
    )
    probe.put("shard.join_inline_s", inline_s, "s")
    probe.put("shard.work_inflation_x", inline_s / vector_join_s, "x")
    probe.put("shard.parallel_efficiency", inline_s / (2 * pool_s), "frac")

    runs = []
    for length in stats.task_m:
        runs.append({
            "j": np.sort(rng.integers(0, n, length)),
            "d1": np.arange(length, dtype=_INT),
            "d2": rng.integers(0, 1 << 30, length),
        })
    counter = [0]
    seconds, _ = probe.time(
        "shard.merge", lambda: oblivious_merge_runs(runs, MERGE_KEYS, counter=counter),
        reps=1, runs=len(runs),
    )
    probe.put("shard.merge_s", seconds, "s")
    probe.put("shard.merge_comparators", merge_comparator_count(list(stats.task_m)), "count")


def store_and_memory(probe) -> None:
    """`store.` on the `store_paged_join` store, `memory.` on its blocks."""
    with probe.running(workloads.StorePagedJoin, rounds=1) as (paged, measured):
        user_mib = paged.user_bytes / MIB
        # A second encrypted copy: written under a span, then scanned cold.
        seconds, (_, (left, right)) = probe.time(
            "store.ingest", lambda: paged.ingest("probe", paged.key), reps=1
        )
        probe.put("store.ingest_s", seconds, "s")
        probe.put("store.ingest_mib_s", user_mib / seconds, "MiB/s")
        seconds, _ = probe.time(
            "store.scan", lambda: (left.materialize(), right.materialize()), reps=1
        )
        probe.put("store.scan_s", seconds, "s")
        probe.put("store.scan_mib_s", user_mib / seconds, "MiB/s")

        io = measured[-1][0].details[0]  # the same for every query: exact counts
        probe.put("store.reads", io["reads"], "count")
        probe.put("store.decryptions", io["decryptions"], "count")
        probe.put("store.evictions", io["evictions"], "count")
        probe.put("store.cache_hit_frac", io["hits"] / max(1, io["hits"] + io["misses"]), "frac")
        probe.put("store.read_amplification", io["bytes_read"] / paged.user_bytes, "x")
        on_disk = sum(
            os.path.getsize(os.path.join(paged.store.path, name))
            for name in os.listdir(paged.store.path)
            if name.endswith(".blk")
        )
        probe.put("store.bytes_per_user_byte", on_disk / paged.user_bytes, "x")

        _, plain = paged.ingest("plain", None)
        seconds, _ = probe.time(
            "shard.join[plain store]",
            lambda: sharded_oblivious_join(*plain, shards=paged.shards, executor="inline"),
            reps=1,
        )
        probe.put("store.plain_join_s", seconds, "s")
        seconds, _ = probe.time(
            "shard.join[resident]",
            lambda: sharded_oblivious_join(
                paged.left, paged.right, shards=paged.shards, executor="inline"
            ),
            reps=1,
        )
        probe.put("store.paged_vs_resident_x", median(_seconds(measured)) / seconds, "x")

    encryptor = ProbabilisticEncryptor(paged.key)
    block = bytes(range(256)) * (paged.block_bytes // 256)
    blocks = 4 if probe.tiny else 16
    seconds, ciphertexts = probe.time(
        "memory.encrypt", lambda: [encryptor.encrypt(block) for _ in range(blocks)], reps=1
    )
    probe.put("memory.encrypt_mib_s", blocks * len(block) / MIB / seconds, "MiB/s")
    seconds, _ = probe.time(
        "memory.decrypt", lambda: [encryptor.decrypt(c) for c in ciphertexts], reps=1
    )
    probe.put("memory.decrypt_mib_s", blocks * len(block) / MIB / seconds, "MiB/s")


def source_lines() -> int:
    total = 0
    for folder, _dirs, files in os.walk(os.path.join(HERE, "..", "..", "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def probe(workload, samples, calib, tracer, seed: int, tiny: bool) -> dict:
    """Every per-layer metric, as `name -> (value, unit)`.  Called while the
    traced workload is still set up."""
    rng = np.random.default_rng(seed)
    probes = _Probe(workload, samples, calib, tracer, seed, tiny)
    tracer.query = None

    with tracer.span("probe.vector+engines"):
        join_s = vector_and_engines(probes, rng)
    with tracer.span("probe.service+db"):
        service_and_db(probes)
    with tracer.span("probe.plan+shard"):
        plan_and_shard(probes, rng, join_s)
    with tracer.span("probe.store+memory"):
        store_and_memory(probes)

    traced = get_engine("traced")
    small = workloads.JoinShardedBounded(tiny)
    small.n = 32 if tiny else 512
    small.generate(seed)
    left = [tuple(row) for row in small.left.tolist()]
    right = [tuple(row) for row in small.right.tolist()]
    seconds, _ = probes.time("core.traced_join", lambda: traced.join(left, right), reps=1)
    probes.put("core.traced_join_s", seconds, "s")

    floor_p50 = median(samples.floor)
    probes.put("floor.query_s_p50", floor_p50, "s")
    probes.put("floor.overhead_x", median(samples.query()) / floor_p50, "x")
    probes.put("bench.trace_overhead_frac", median(samples.trace_ratios()) - 1.0, "frac")
    probes.put("bench.calib_s", median(calib.samples), "s")
    probes.put("bench.src_lines", source_lines(), "count")
    return probes.metrics
