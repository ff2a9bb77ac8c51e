"""Paged block stores: fixed-size encrypted blocks in untrusted memory.

The paper's machine model (§3.1) is a small *trusted* memory over a large
*untrusted* store whose cells are probabilistically encrypted — the
adversary sees which blocks are touched, never their contents, and cannot
tell whether a rewritten block changed.  This module is that store made
concrete:

:class:`BlockStore`
    The contract — fixed-size blocks addressed by ``(key, index)``, a JSON
    metadata side-channel per key, and a ``generation`` counter every write
    bumps (what the encoding cache keys on for store-backed tables).

:class:`InMemoryStore`
    Dict-backed, for tests and single-process runs.

:class:`FileStore`
    One file per key in a directory, block ``i`` at byte offset
    ``i * slot_bytes`` — offsets are pure functions of the index, so the
    *file-level* access pattern equals the block-id access pattern the plan
    already declares.  With an encryption ``key``, every slot holds
    ``nonce || tag || ciphertext`` from
    :class:`~repro.memory.encryption.ProbabilisticEncryptor`: rewriting a
    block draws a fresh nonce, so identical plaintexts are unlinkable at
    rest, and the tag binds the ciphertext to ``(store key name, block
    index, block_bytes)``.  A flipped bit anywhere in the slot, a slot
    moved to another index or another column's file, a short or truncated
    file, or the wrong key on reopen raises
    :class:`~repro.errors.StoreIntegrityError` from :meth:`read_block`,
    before any plaintext exists.  Writing an *older* slot back at its own
    index is not detected (that takes a trusted per-block counter; see
    ``docs/leakage.md``).

:class:`BlockCache`
    The byte-budgeted LRU standing in for trusted memory.  Its
    hit/miss/evict counters — together with the stores' read/write/decrypt
    counters — feed :class:`~repro.enclave.epc.EPCModel` for the modeled
    paging cost (see :mod:`repro.store.runtime`).

Stores always read and write *whole* blocks of exactly ``block_bytes``
payload bytes (writers zero-pad the final partial block): uniform transfer
sizes keep the observable I/O a function of block ids alone.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import urllib.parse
from collections import OrderedDict

from ..errors import InputError, StoreIntegrityError
from ..memory.encryption import (
    NONCE_BYTES,
    TAG_BYTES,
    Ciphertext,
    ProbabilisticEncryptor,
)

#: Default block payload size: 4 KiB, one EPC page.
DEFAULT_BLOCK_BYTES = 4096


def _fresh_stats() -> dict[str, int]:
    return {
        "reads": 0,
        "writes": 0,
        "bytes_read": 0,
        "bytes_written": 0,
        "decryptions": 0,
        "encryptions": 0,
    }


class BlockStore:
    """Fixed-size block storage addressed by ``(key, index)``.

    Subclasses implement the raw slot I/O (:meth:`_load` / :meth:`_save` /
    :meth:`num_blocks` / :meth:`keys`); this base owns the shared contract:
    block-size validation, optional probabilistic encryption, the I/O
    counters in ``stats``, per-key JSON metadata, and the ``generation``
    counter that makes store mutations visible to caches.
    """

    def __init__(
        self, block_bytes: int = DEFAULT_BLOCK_BYTES, key: bytes | None = None
    ) -> None:
        if not isinstance(block_bytes, int) or block_bytes < 8:
            raise InputError(
                f"block_bytes must be an int >= 8, got {block_bytes!r}"
            )
        self.block_bytes = block_bytes
        self._encryptor = (
            ProbabilisticEncryptor(key) if key is not None else None
        )
        self.generation = 0
        self.stats = _fresh_stats()

    # -- subclass surface ----------------------------------------------------

    def _load(self, key: str, index: int) -> bytes:
        raise NotImplementedError

    def _save(self, key: str, index: int, slot: bytes) -> None:
        raise NotImplementedError

    def num_blocks(self, key: str) -> int:
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def get_meta(self, key: str) -> dict | None:
        raise NotImplementedError

    def _save_meta(self, key: str, meta: dict) -> None:
        raise NotImplementedError

    # -- the shared contract -------------------------------------------------

    @property
    def encrypted(self) -> bool:
        return self._encryptor is not None

    @property
    def slot_bytes(self) -> int:
        """On-store size of one block: payload, plus nonce and tag when
        encrypted."""
        return self.block_bytes + (NONCE_BYTES + TAG_BYTES if self.encrypted else 0)

    def _aad(self, key: str, index: int) -> bytes:
        """The public slot coordinates every tag is bound to."""
        return struct.pack("<QQ", index, self.block_bytes) + key.encode()

    def write_block(self, key: str, index: int, payload: bytes) -> None:
        """Write one block; short payloads are zero-padded to the slot."""
        if index < 0:
            raise InputError(f"block index must be >= 0, got {index}")
        if len(payload) > self.block_bytes:
            raise InputError(
                f"block payload of {len(payload)} bytes exceeds the store's "
                f"block_bytes={self.block_bytes}"
            )
        payload = payload.ljust(self.block_bytes, b"\x00")
        if self._encryptor is not None:
            ciphertext = self._encryptor.encrypt(payload, self._aad(key, index))
            slot = ciphertext.nonce + ciphertext.tag + ciphertext.payload
            self.stats["encryptions"] += 1
        else:
            slot = payload
        self._save(key, index, slot)
        self.stats["writes"] += 1
        self.stats["bytes_written"] += len(slot)
        self.generation += 1

    def read_block(self, key: str, index: int) -> bytes:
        """Read one block's ``block_bytes`` plaintext payload.

        Raises :class:`StoreIntegrityError` when the slot is short or, on
        an encrypted store, fails authentication at ``(key, index)``.
        """
        slot = self._load(key, index)
        self.stats["reads"] += 1
        self.stats["bytes_read"] += len(slot)
        if len(slot) != self.slot_bytes:
            raise StoreIntegrityError(
                f"short read of block {index} under {key!r}: "
                f"{len(slot)} of {self.slot_bytes} bytes"
            )
        if self._encryptor is None:
            return slot
        head = NONCE_BYTES + TAG_BYTES
        ciphertext = Ciphertext(slot[:NONCE_BYTES], slot[NONCE_BYTES:head], slot[head:])
        self.stats["decryptions"] += 1
        try:
            return self._encryptor.decrypt(ciphertext, self._aad(key, index))
        except StoreIntegrityError as exc:
            raise StoreIntegrityError(f"block {index} under {key!r}: {exc}") from None

    def put_meta(self, key: str, meta: dict) -> None:
        """Attach JSON metadata to a key (schema, row count, ...)."""
        self.generation += 1
        self._save_meta(key, dict(meta, generation=self.generation))

    def flush(self) -> None:
        """Persist any deferred bookkeeping (no-op by default)."""


class InMemoryStore(BlockStore):
    """Blocks in a process-local dict — tests and single-process runs.

    Encryption still applies at rest (the dict holds ciphertext slots), so
    the fresh-nonce property is testable without touching a filesystem.
    """

    def __init__(
        self, block_bytes: int = DEFAULT_BLOCK_BYTES, key: bytes | None = None
    ) -> None:
        super().__init__(block_bytes, key)
        self._blocks: dict[str, dict[int, bytes]] = {}
        self._meta: dict[str, dict] = {}

    def _load(self, key: str, index: int) -> bytes:
        try:
            return self._blocks[key][index]
        except KeyError:
            raise InputError(f"no block {index} under store key {key!r}") from None

    def _save(self, key: str, index: int, slot: bytes) -> None:
        self._blocks.setdefault(key, {})[index] = slot

    def num_blocks(self, key: str) -> int:
        return len(self._blocks.get(key, ()))

    def keys(self) -> list[str]:
        return sorted(self._blocks)

    def get_meta(self, key: str) -> dict | None:
        meta = self._meta.get(key)
        return dict(meta) if meta is not None else None

    def _save_meta(self, key: str, meta: dict) -> None:
        self._meta[key] = dict(meta)

    def raw_slot(self, key: str, index: int) -> bytes:
        """The at-rest slot bytes (ciphertext when encrypted) — test hook."""
        return self._load(key, index)


def _key_filename(key: str) -> str:
    return urllib.parse.quote(key, safe="") + ".blk"


class FileStore(BlockStore):
    """One file per key in ``path``; block ``i`` at offset ``i * slot``.

    The directory is the untrusted store: with an encryption ``key`` every
    slot on disk is ``nonce || tag || ciphertext`` and a rewrite is
    unlinkable from the original.  ``store.json`` records the public
    configuration (``block_bytes``, whether slots are encrypted, the committed
    ``generation``) so :func:`open_store` — and worker processes attaching
    by path — reconstruct a compatible view.  ``meta.json`` holds the
    per-key metadata map.

    ``generation`` is committed by :meth:`put_meta`/:meth:`flush`, not on
    every block write: table writers end with a ``put_meta``, which is the
    point other processes may rely on seeing the new generation.
    """

    def __init__(
        self,
        path: str,
        block_bytes: int | None = None,
        key: bytes | None = None,
    ) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)
        config = self._read_config()
        if config is not None:
            stored_block_bytes = config["block_bytes"]
            if block_bytes is not None and block_bytes != stored_block_bytes:
                raise InputError(
                    f"store at {path!r} has block_bytes="
                    f"{stored_block_bytes}, not {block_bytes}"
                )
            if config["encrypted"] != (key is not None):
                raise InputError(
                    f"store at {path!r} is "
                    f"{'encrypted' if config['encrypted'] else 'plaintext'}; "
                    "open it with a matching key argument"
                )
            super().__init__(stored_block_bytes, key)
            self.generation = config.get("generation", 0)
        else:
            super().__init__(
                block_bytes if block_bytes is not None else DEFAULT_BLOCK_BYTES,
                key,
            )
            self.flush()

    # -- config / meta persistence -------------------------------------------

    def _read_config(self) -> dict | None:
        try:
            with open(
                os.path.join(self.path, "store.json"), encoding="utf-8"
            ) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def flush(self) -> None:
        config = {
            "block_bytes": self.block_bytes,
            "encrypted": self.encrypted,
            "generation": self.generation,
        }
        with open(
            os.path.join(self.path, "store.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(config, handle)

    def _meta_map(self) -> dict:
        try:
            with open(
                os.path.join(self.path, "meta.json"), encoding="utf-8"
            ) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {}

    def get_meta(self, key: str) -> dict | None:
        return self._meta_map().get(key)

    def _save_meta(self, key: str, meta: dict) -> None:
        metas = self._meta_map()
        metas[key] = meta
        with open(
            os.path.join(self.path, "meta.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(metas, handle)
        self.flush()

    # -- slot I/O ------------------------------------------------------------

    def _file(self, key: str) -> str:
        return os.path.join(self.path, _key_filename(key))

    def _load(self, key: str, index: int) -> bytes:
        try:
            with open(self._file(key), "rb") as handle:
                handle.seek(index * self.slot_bytes)
                slot = handle.read(self.slot_bytes)
        except FileNotFoundError:
            raise InputError(f"no stored column {key!r} in {self.path!r}") from None
        return slot

    def _save(self, key: str, index: int, slot: bytes) -> None:
        path = self._file(key)
        mode = "r+b" if os.path.exists(path) else "w+b"
        with open(path, mode) as handle:
            handle.seek(index * self.slot_bytes)
            handle.write(slot)

    def num_blocks(self, key: str) -> int:
        try:
            return os.path.getsize(self._file(key)) // self.slot_bytes
        except OSError:
            return 0

    def keys(self) -> list[str]:
        names = []
        for entry in os.listdir(self.path):
            if entry.endswith(".blk"):
                names.append(urllib.parse.unquote(entry[: -len(".blk")]))
        return sorted(names)

    def raw_slot(self, key: str, index: int) -> bytes:
        """The at-rest slot bytes (ciphertext when encrypted) — test hook."""
        return self._load(key, index)


class BlockCache:
    """Byte-budgeted LRU of decrypted blocks: the trusted-memory stand-in.

    Keys are ``(store key, block index)``; values are plaintext payloads.
    ``budget_bytes`` is the trusted-memory size — exceeding it evicts LRU
    entries, which is exactly the paging event
    :class:`~repro.enclave.epc.EPCModel` prices.  One cache serves every
    thread of its process (the pool's worker threads attach to the same
    handle), so each read-modify-write of it holds a lock.
    """

    def __init__(self, budget_bytes: int) -> None:
        if not isinstance(budget_bytes, int) or budget_bytes < 1:
            raise InputError(
                f"cache budget must be an int >= 1 byte, got {budget_bytes!r}"
            )
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[tuple[str, int], bytes]" = OrderedDict()
        self._bytes = 0
        self.stats = {"hits": 0, "misses": 0, "evictions": 0}
        self._lock = threading.Lock()

    def get(self, key: tuple[str, int]) -> bytes | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.stats["hits"] += 1
            return entry

    def put(self, key: tuple[str, int], payload: bytes) -> None:
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= len(previous)
            self._entries[key] = payload
            self._bytes += len(payload)
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.stats["evictions"] += 1

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
