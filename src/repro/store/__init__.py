"""Out-of-core encrypted block storage (the paper's untrusted memory).

Layered bottom-up:

* :mod:`repro.store.blockstore` — the :class:`BlockStore` contract with
  :class:`InMemoryStore` / :class:`FileStore` backends (fixed-size blocks,
  optional per-block authenticated probabilistic encryption) and the
  byte-budgeted :class:`BlockCache` trusted-memory LRU;
* :mod:`repro.store.columns` — column <-> block serialization for tables;
* :mod:`repro.store.runtime` — per-process :class:`StoreHandle` attach
  registry and the engine-facing :class:`StorePairs`.

See ``docs/architecture.md`` (storage layer) and the block-access-pattern
section of ``docs/leakage.md``.
"""

from .blockstore import (
    BlockCache,
    BlockStore,
    FileStore,
    InMemoryStore,
)
from .columns import write_table
from .runtime import (
    DEFAULT_CACHE_BYTES,
    StoreHandle,
    StorePairs,
    StoreSpec,
    adopt,
    attach,
    detach_all,
    residency_snapshot,
    stats_snapshot,
    trace_faults,
)

__all__ = [
    "BlockCache",
    "BlockStore",
    "FileStore",
    "InMemoryStore",
    "write_table",
    "DEFAULT_CACHE_BYTES",
    "StoreHandle",
    "StorePairs",
    "StoreSpec",
    "adopt",
    "attach",
    "detach_all",
    "residency_snapshot",
    "stats_snapshot",
    "trace_faults",
]
