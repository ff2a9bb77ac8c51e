"""Per-process store handles, block refs, and engine-ready stored pairs.

This is the seam between the block store and the execution layers:

:class:`StoreSpec`
    A tiny frozen, picklable description of a store (kind, path, block
    size, encryption key, trusted-memory budget): the *address* a process
    uses to attach its own handle.  The encryption key rides in the spec
    because the attaching process plays the enclave in the simulated trust
    split: it holds the key; the store directory is the untrusted side.

:class:`StoreHandle`
    One process's view of one store: the store itself plus the
    byte-budgeted :class:`~repro.store.blockstore.BlockCache` (trusted
    memory) and an :class:`~repro.enclave.epc.EPCModel` sized to the same
    budget, so the handle can report both measured counters and the
    modeled paging multiplier.  :func:`attach` memoises handles per spec
    per process.

:class:`StorePairs`
    The engine-facing ``(j, d)`` pairs view of stored columns: a sequence
    (so the traced engine iterates it and ``np.asarray`` materialises it)
    with a streaming :meth:`StorePairs.scan` the sharded join reads each
    query's input through.

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
from ..plan.partition import block_count, check_block_rows
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

    One handle per spec per process means every reader shares one trusted
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
    spec's path is an opaque token only this process can resolve.
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


# -- fault tracing (tests assert a query touches only plan-named blocks) -----

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


# -- engine-facing stored pairs ----------------------------------------------


class StorePairs:
    """A stored table's ``(j, d)`` join input, faulted in block-wise.

    ``j_key`` names the stored key column; ``d_key`` names a stored data
    column, or ``None`` for the virtual row-handle column (the form the
    db layer's ``(encoded key, row handle)`` inputs take — handles are
    ``arange(n)``, so they are never stored at all).

    Sequence-shaped on purpose: the traced engine iterates it, and the
    numpy engines' ``join`` and the sharded join recognise the type and
    scan it afresh (:meth:`scan`) for every call.
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

    # -- whole-table reads ---------------------------------------------------

    def scan(self) -> np.ndarray:
        """A fresh ``(n, 2)`` pairs array, streamed from the store.

        Reads blocks ``0 … B-1`` of the key column, then of the data
        column, each straight into its place through the handle's budgeted
        cache — an order that is a public function of ``(n, block_rows)``
        — and keeps nothing on this object, so every query pays (and
        shows) its own block reads.
        """
        pairs = np.empty((self.n, 2), dtype=_INT)
        handle = attach(self.spec)
        for column, key in enumerate((self.j_key, self.d_key)):
            if key is None:
                pairs[:, column] = np.arange(self.n, dtype=_INT)
                continue
            for index in range(block_count(self.n, self.block_rows)):
                lo = index * self.block_rows
                block = handle.read_int_block(key, index)
                pairs[lo : lo + self.block_rows, column] = block[: self.n - lo]
        return pairs

    def materialize(self) -> np.ndarray:
        """The resident ``(n, 2)`` pairs array, read once and kept."""
        if self._materialized is None:
            self._materialized = self.scan()
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
