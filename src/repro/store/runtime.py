"""Per-process store handles, block refs, and engine-ready stored pairs.

This is the seam between the block store and the execution layers:

:class:`StoreSpec`
    A tiny frozen, picklable description of a store (kind, path, block
    size, encryption key, trusted-memory budget).  It is the *address* a
    worker process uses to attach its own handle — shipping a spec instead
    of column bytes is what makes shard dispatch out-of-core.  The
    encryption key rides in the spec because workers play the role of
    enclaves in the simulated trust split: they hold the key; the store
    directory is the untrusted side.

:class:`StoreHandle`
    One process's view of one store: the store itself plus the
    byte-budgeted :class:`~repro.store.blockstore.BlockCache` (trusted
    memory) and an :class:`~repro.enclave.epc.EPCModel` sized to the same
    budget, so the handle can report both measured counters and the
    modeled paging multiplier.  :func:`attach` memoises handles per spec
    per process — every task in a worker shares one cache.

:class:`StoreBlocksRef`
    A picklable payload leaf naming exactly the blocks one shard task may
    touch (the plan's ``block_ids`` attrs), plus the row window and the
    padded capacity.  :meth:`StoreBlocksRef.resolve` turns it into the
    padded column array worker-side; every shard task calls it through
    :func:`repro.plan.executors.resolve_payload`, so inline and remote
    substrates behave identically.
    A ref with ``arange_base`` set is a *virtual* column (row handles) and
    faults zero blocks.

:class:`StorePairs`
    The engine-facing ``(j, d)`` pairs view of stored columns: a sequence
    (so the traced engine iterates it and ``np.asarray`` materialises it)
    that the sharded partitioner special-cases into block-aligned
    :class:`~repro.shard.partition.ShardPart`\\ s of refs.

``stats_snapshot()`` aggregates every attached handle's counters — the
service layer reports the per-query delta.  The counters are *local-only*
observability: they never feed any schedule or plan (see
``docs/leakage.md``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..enclave.epc import EPCModel
from ..errors import InputError
from ..plan.partition import (
    block_aligned_partition_plan,
    block_count,
    check_block_rows,
    shard_block_ids,
)
from .blockstore import BlockCache, FileStore, InMemoryStore
from .columns import block_rows_of, read_int_block

_INT = np.int64

#: Default trusted-memory budget per attached store: 64 MiB.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class StoreSpec:
    """Where a store lives and how to attach it, as picklable data."""

    kind: str  # "file" | "memory"
    path: str | None
    block_bytes: int
    key: bytes | None = None
    cache_bytes: int = DEFAULT_CACHE_BYTES

    @property
    def block_rows(self) -> int:
        return block_rows_of(self.block_bytes)


class StoreHandle:
    """One process's cached, budgeted view of one block store."""

    def __init__(self, store, cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.store = store
        self.cache = BlockCache(cache_bytes)
        self.epc = EPCModel(capacity_bytes=cache_bytes)
        self._generation = store.generation

    def read_block(self, key: str, index: int) -> bytes:
        """One plaintext block through the trusted-memory cache.

        A store whose ``generation`` moved since the last read has been
        rewritten; every cached plaintext block is then stale and the
        whole cache is dropped before serving (same invalidation signal
        the encoding cache keys on).
        """
        if self.store.generation != self._generation:
            self.cache.clear()
            self._generation = self.store.generation
        cached = self.cache.get((key, index))
        if cached is not None:
            return cached
        payload = self.store.read_block(key, index)
        self.cache.put((key, index), payload)
        _record_fault(key, index)
        return payload

    def read_int_block(self, key: str, index: int) -> np.ndarray:
        return read_int_block(self.read_block, key, index)

    # -- observability -------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Merged store + cache counters (a plain dict of ints)."""
        merged = dict(self.store.stats)
        merged.update(self.cache.stats)
        return merged

    def residency(self) -> dict:
        """Trusted-memory residency: cached bytes against the budget."""
        return {
            "cached_bytes": self.cache.cached_bytes,
            "budget_bytes": self.cache.budget_bytes,
            "cached_blocks": len(self.cache),
        }

    def modeled_slowdown(self) -> float:
        """Measured-miss-rate paging multiplier, priced by the EPC model.

        The EPC model's ``penalty`` is the cost multiplier of one access
        that misses trusted memory; with a measured miss rate ``p`` over
        the cache the expected multiplier is ``1 + penalty * p`` — the
        same form as :meth:`EPCModel.slowdown`, with the measured rate in
        place of the uniform-access estimate.
        """
        total = self.cache.stats["hits"] + self.cache.stats["misses"]
        if total == 0:
            return 1.0
        return 1.0 + self.epc.penalty * (self.cache.stats["misses"] / total)

    def epc_slowdown(self, footprint_bytes: int) -> float:
        """The uniform-access estimate for a given working-set size."""
        return self.epc.slowdown(footprint_bytes)


# -- the per-process handle registry -----------------------------------------

_LOCK = threading.Lock()
_HANDLES: dict[StoreSpec, StoreHandle] = {}


def attach(spec: StoreSpec) -> StoreHandle:
    """The process-wide handle for ``spec``, created on first use.

    Workers call this (through :meth:`StoreBlocksRef.resolve`) with specs
    that arrived inside task payloads; the parent calls it when opening
    tables.
    One handle per spec per process means every task shares one trusted
    memory of ``spec.cache_bytes``.
    """
    with _LOCK:
        handle = _HANDLES.get(spec)
        if handle is None:
            if spec.kind == "file":
                store = FileStore(spec.path, spec.block_bytes, spec.key)
            elif spec.kind == "memory":
                raise InputError(
                    "an InMemoryStore cannot be attached by spec; register "
                    "its handle with adopt() in the owning process"
                )
            else:
                raise InputError(f"unknown store kind {spec.kind!r}")
            handle = StoreHandle(store, spec.cache_bytes)
            _HANDLES[spec] = handle
        return handle


def adopt(store, cache_bytes: int = DEFAULT_CACHE_BYTES) -> StoreSpec:
    """Register an in-process store under a synthetic spec; returns it.

    This is how :class:`InMemoryStore`-backed tables join the runtime: the
    spec's path is an opaque token only this process can resolve, so such
    tables work on the inline/shuffle executors (same process) and fail
    loudly if shipped to a process pool.
    """
    with _LOCK:
        if isinstance(store, FileStore):
            spec = StoreSpec(
                kind="file",
                path=store.path,
                block_bytes=store.block_bytes,
                key=store._encryptor.key if store.encrypted else None,
                cache_bytes=cache_bytes,
            )
        else:
            spec = StoreSpec(
                kind="memory",
                path=f"mem:{id(store)}",
                block_bytes=store.block_bytes,
                key=None,
                cache_bytes=cache_bytes,
            )
        handle = _HANDLES.get(spec)
        if handle is None or handle.store is not store:
            _HANDLES[spec] = StoreHandle(store, cache_bytes)
        return spec


def detach_all() -> None:
    """Drop every attached handle (tests; frees caches)."""
    with _LOCK:
        _HANDLES.clear()


def stats_snapshot() -> dict[str, int]:
    """Summed counters of every handle attached in this process."""
    totals: dict[str, int] = {
        "reads": 0,
        "writes": 0,
        "bytes_read": 0,
        "bytes_written": 0,
        "decryptions": 0,
        "encryptions": 0,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
    }
    with _LOCK:
        handles = list(_HANDLES.values())
    for handle in handles:
        for name, value in handle.snapshot().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def residency_snapshot() -> list[dict]:
    """Per-attached-store residency and modeled paging cost."""
    with _LOCK:
        items = list(_HANDLES.items())
    report = []
    for spec, handle in items:
        entry = {"store": spec.path, "kind": spec.kind}
        entry.update(handle.residency())
        entry["modeled_slowdown"] = handle.modeled_slowdown()
        report.append(entry)
    return report


# -- fault tracing (tests assert workers touch only plan-named blocks) -------

_TRACED_FAULTS: set[tuple[str, int]] | None = None


def trace_faults(enable: bool) -> set[tuple[str, int]]:
    """Toggle recording of ``(column key, block id)`` store faults.

    Returns the live set; only faults *through a cache miss* are recorded
    (hits touch no untrusted memory).  Test-only instrumentation — the
    acceptance test compares the set against the plan's ``block_ids``.
    """
    global _TRACED_FAULTS
    if enable:
        _TRACED_FAULTS = set()
    else:
        _TRACED_FAULTS = None
    return _TRACED_FAULTS if _TRACED_FAULTS is not None else set()


def _record_fault(key: str, index: int) -> None:
    if _TRACED_FAULTS is not None:
        _TRACED_FAULTS.add((key, index))


# -- block refs: the payload leaves workers resolve --------------------------


@dataclass(frozen=True)
class StoreBlocksRef:
    """A shard column as (spec, blocks, window): resolved worker-side.

    ``blocks`` are the plan-named block ids this task may touch (empty for
    virtual columns); ``start`` is the row offset of the window inside the
    first block (always 0 for block-aligned partitions); ``rows`` the real
    row count; ``capacity`` the padded length the resolved array must
    have.  With ``arange_base`` set the column is the virtual row-handle
    sequence ``arange_base + [0, rows)`` and no store access happens.
    """

    spec: StoreSpec
    column: str
    blocks: tuple[int, ...]
    start: int
    rows: int
    capacity: int
    arange_base: int | None = None

    def __len__(self) -> int:
        return self.capacity

    def resolve(self) -> np.ndarray:
        """Materialise the ref as its padded int64 column array."""
        out = np.zeros(self.capacity, dtype=_INT)
        if self.arange_base is not None:
            out[: self.rows] = np.arange(
                self.arange_base, self.arange_base + self.rows, dtype=_INT
            )
            return out
        if self.rows == 0:
            return out
        handle = attach(self.spec)
        parts = [handle.read_int_block(self.column, index) for index in self.blocks]
        window = np.concatenate(parts)[self.start : self.start + self.rows]
        out[: self.rows] = window
        return out


# -- engine-facing stored pairs ----------------------------------------------


class StorePairs:
    """A stored table's ``(j, d)`` join input, faulted in block-wise.

    ``j_key`` names the stored key column; ``d_key`` names a stored data
    column, or ``None`` for the virtual row-handle column (the form the
    db layer's ``(encoded key, row handle)`` inputs take — handles are
    ``arange(n)``, so they are never stored at all).

    Sequence-shaped on purpose: the traced engine iterates it, the vector
    engine materialises it through ``__array__``, and the sharded
    partitioner recognises the type and emits block-aligned shard parts
    of :class:`StoreBlocksRef` columns instead of resident arrays.
    """

    def __init__(
        self, spec: StoreSpec, n: int, j_key: str, d_key: str | None = None
    ) -> None:
        check_block_rows(spec.block_rows)
        if n < 0:
            raise InputError(f"table size must be >= 0, got {n}")
        self.spec = spec
        self.n = n
        self.j_key = j_key
        self.d_key = d_key
        self._materialized: np.ndarray | None = None

    @property
    def block_rows(self) -> int:
        return self.spec.block_rows

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"StorePairs(n={self.n}, j={self.j_key!r}, d={self.d_key!r}, "
            f"block_rows={self.block_rows})"
        )

    # -- whole-table materialisation (resident fall-back) --------------------

    def _column(self, key: str | None) -> np.ndarray:
        if key is None:
            return np.arange(self.n, dtype=_INT)
        handle = attach(self.spec)
        nblocks = block_count(self.n, self.block_rows)
        if nblocks == 0:
            return np.zeros(0, dtype=_INT)
        parts = [handle.read_int_block(key, index) for index in range(nblocks)]
        return np.concatenate(parts)[: self.n]

    def materialize(self) -> np.ndarray:
        """The resident ``(n, 2)`` pairs array, read once and kept."""
        if self._materialized is None:
            pairs = np.empty((self.n, 2), dtype=_INT)
            pairs[:, 0] = self._column(self.j_key)
            pairs[:, 1] = self._column(self.d_key)
            self._materialized = pairs
        return self._materialized

    def __array__(self, dtype=None, copy=None):
        pairs = self.materialize()
        if dtype is not None and np.dtype(dtype) != pairs.dtype:
            return pairs.astype(dtype)
        return pairs

    def __iter__(self):
        for j, d in self.materialize():
            yield (int(j), int(d))

    def __getitem__(self, index):
        row = self.materialize()[index]
        if isinstance(index, (int, np.integer)):
            return (int(row[0]), int(row[1]))
        return row

    # -- streaming reductions (padded-input validation) ----------------------

    def _block_reduce(self, key: str | None, reducer, empty: int) -> int:
        if self.n == 0:
            return empty
        if key is None:
            return reducer(0, self.n - 1)
        handle = attach(self.spec)
        nblocks = block_count(self.n, self.block_rows)
        best = None
        for index in range(nblocks):
            block = handle.read_int_block(key, index)
            lo = index * self.block_rows
            real = min(self.block_rows, self.n - lo)
            value = reducer(*_minmax(block[:real]))
            best = value if best is None else reducer(best, value)
        return int(best)

    def max_j(self) -> int:
        """Streaming ``max`` of the key column (anchor-headroom check)."""
        return self._block_reduce(self.j_key, max, 0)

    def min_d(self) -> int:
        """Streaming ``min`` of the data column (payload-headroom check)."""
        return self._block_reduce(self.d_key, min, 0)

    # -- shard refs (the block-aligned partition path) -----------------------

    def shard_parts(self, k: int) -> list[tuple[StoreBlocksRef, StoreBlocksRef, int]]:
        """Block-aligned ``(j ref, d ref, real)`` triples for ``k`` shards.

        Shard layout comes from
        :func:`~repro.plan.partition.block_aligned_partition_plan` /
        :func:`~repro.plan.partition.shard_block_ids` — the same pure
        functions the plan compiler stamps onto ``partition`` nodes — so
        the refs name exactly the plan's blocks.
        """
        capacity, counts = block_aligned_partition_plan(self.n, k, self.block_rows)
        ids = shard_block_ids(self.n, k, self.block_rows)
        parts = []
        offset = 0
        for shard in range(k):
            real = counts[shard]
            blocks = ids[shard]
            j_ref = StoreBlocksRef(
                spec=self.spec,
                column=self.j_key,
                blocks=blocks,
                start=0,
                rows=real,
                capacity=capacity,
            )
            if self.d_key is None:
                d_ref = StoreBlocksRef(
                    spec=self.spec,
                    column="",
                    blocks=(),
                    start=0,
                    rows=real,
                    capacity=capacity,
                    arange_base=offset,
                )
            else:
                d_ref = StoreBlocksRef(
                    spec=self.spec,
                    column=self.d_key,
                    blocks=blocks,
                    start=0,
                    rows=real,
                    capacity=capacity,
                )
            parts.append((j_ref, d_ref, real))
            offset += real
        return parts


def _minmax(array: np.ndarray) -> tuple[int, int]:
    return int(array.min()), int(array.max())


def store_pairs_block_rows(pairs) -> int | None:
    """The block-alignment unit of a pairs input (``None`` = resident)."""
    if isinstance(pairs, StorePairs):
        return pairs.block_rows
    return None
