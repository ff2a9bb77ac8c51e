"""Cross-query cache of dictionary encodings.

Every relational operator starts the same way: scan a table's key columns
and dictionary-encode the ``str`` ones.  That is a pure function of
``(table contents, column, encoder)`` — so a persistent process serving a
series of queries over the same tables can do it *once*.

:class:`EncodingCache` memoises, per ``(table identity, table version)``:

* **encoded key columns** (:meth:`encoded_keys`) and whole **encoded rows**
  (:meth:`encoded_rows`) — the dictionary-encoder column scans;
* the **pre-warm passes** :class:`~repro.db.query.ObliviousEngine` runs
  before a multiway cascade (:meth:`prewarm`) — previously re-run on every
  call over the same tables; and
* the ``(key, row-handle)`` **pairs arrays** the numpy engines consume
  (:meth:`key_handle_pairs`).

Nothing downstream of the encoding is kept: shard parts are re-cut and
re-shipped by every query (caching them measured level; see the "Query
service" section of ``docs/architecture.md``).

Invalidation is by table version: any mutation through
:class:`~repro.db.table.DBTable`'s mutation API (or an explicit
``table.touch()``) makes every cached value for that table stale on the
next lookup.  Entries are keyed by ``id(table)`` with a weakref keepalive
check, evicted LRU beyond ``max_tables``, and dropped when the table is
garbage collected.

Thread safety: one re-entrant lock guards all state, so the service layer
can admit concurrent queries.  Cached values are immutable by convention —
list-valued results are returned as shallow copies; the pairs arrays are
returned by identity (the copy would be the whole cost) and every consumer
treats them as read-only.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .encoding import DictionaryEncoder
from .table import DBTable

_INT = np.int64


@dataclass
class _TableEntry:
    """Cached derived state of one ``(table, version)``."""

    ref: "weakref.ref[DBTable]"
    version: int
    values: dict = field(default_factory=dict)


class EncodingCache:
    """Cross-query dictionary-encoding cache."""

    def __init__(self, max_tables: int = 64) -> None:
        self.max_tables = max_tables
        self._lock = threading.RLock()
        self._tables: "OrderedDict[int, _TableEntry]" = OrderedDict()
        #: Encoders seen, kept alive so id(encoder) cache keys stay unique.
        self._encoders: dict[int, DictionaryEncoder] = {}
        #: Keys of entries whose tables were garbage collected; appended
        #: from weakref callbacks (which may fire anywhere), drained under
        #: the lock at the next cache operation.
        self._dead: list[int] = []
        self.stats = {"hits": 0, "misses": 0, "encode_passes": 0}

    # -- entry lifecycle -----------------------------------------------------

    def _reap(self) -> None:
        while self._dead:
            self._tables.pop(self._dead.pop(), None)

    def _entry(self, table: DBTable) -> _TableEntry:
        key = id(table)
        # Store-backed tables never bump `version` (they are read-only
        # views) but the *store* can be rewritten underneath them; folding
        # the store generation into the entry version makes a rewrite
        # invalidate cached encodings exactly like a touch().
        version = (
            getattr(table, "version", 0),
            getattr(table, "store_generation", None),
        )
        entry = self._tables.get(key)
        if entry is not None:
            held = entry.ref()
            if held is table and entry.version == version:
                self._tables.move_to_end(key)
                return entry
            del self._tables[key]  # mutated, or the id was reused after a gc
        entry = _TableEntry(
            ref=weakref.ref(table, lambda _, key=key: self._dead.append(key)),
            version=version,
        )
        self._tables[key] = entry
        while len(self._tables) > self.max_tables:
            self._tables.popitem(last=False)
        return entry

    def _remember_encoder(self, encoder: DictionaryEncoder) -> int:
        key = id(encoder)
        self._encoders[key] = encoder
        return key

    # -- encoder passes ------------------------------------------------------

    def encoded_keys(
        self, table: DBTable, column: str, encoder: DictionaryEncoder
    ) -> list[int]:
        """One key column as ints — ``str`` columns dictionary-encoded.

        The column scan runs once per ``(table version, column, encoder)``;
        repeats return a shallow copy of the cached list.
        """
        with self._lock:
            self._reap()
            entry = self._entry(table)
            key = ("keys", column, self._remember_encoder(encoder))
            cached = entry.values.get(key)
            if cached is not None:
                self.stats["hits"] += 1
                return list(cached)
            self.stats["misses"] += 1
            # column() instead of a row scan: resident tables build the
            # same list either way, store-backed tables stream the one
            # column's blocks without materialising the whole table.
            values = table.column(column)
            if table.schema.column(column).type == "int":
                keys = list(values)
            else:
                self.stats["encode_passes"] += 1
                keys = [encoder.encode(value) for value in values]
            entry.values[key] = keys
            return list(keys)

    def prewarm(
        self, table: DBTable, column_index: int, encoder: DictionaryEncoder
    ) -> None:
        """One encoder pre-warm pass over a column, at most once per version.

        Encoding is idempotent and first-seen ordered, so after the first
        pass the codes exist and re-running it is a pure waste — this is
        the pass :class:`~repro.db.query.ObliviousEngine` used to repeat
        on every multiway call over the same tables.
        """
        with self._lock:
            self._reap()
            entry = self._entry(table)
            key = ("prewarm", column_index, self._remember_encoder(encoder))
            if key in entry.values:
                self.stats["hits"] += 1
                return
            self.stats["misses"] += 1
            self.stats["encode_passes"] += 1
            for row in table.rows:
                encoder.encode(row[column_index])
            entry.values[key] = True

    def encoded_rows(
        self, table: DBTable, columns, encoder: DictionaryEncoder
    ) -> list[tuple]:
        """The table's rows with the given ``str`` columns encoded in place.

        ``columns`` is a set of column *indices*; an empty set returns the
        rows unchanged (still cached — the list copy is the whole cost).
        """
        cols = tuple(sorted(columns))
        with self._lock:
            self._reap()
            entry = self._entry(table)
            key = ("rows", cols, self._remember_encoder(encoder))
            cached = entry.values.get(key)
            if cached is not None:
                self.stats["hits"] += 1
                return list(cached)
            self.stats["misses"] += 1
            if not cols:
                rows = list(table.rows)
            else:
                self.stats["encode_passes"] += len(cols)
                wanted = set(cols)
                rows = [
                    tuple(
                        encoder.encode(value) if col in wanted else value
                        for col, value in enumerate(row)
                    )
                    for row in table.rows
                ]
            entry.values[key] = rows
            return list(rows)

    # -- engine-shaped pairs arrays ------------------------------------------

    def key_handle_pairs(
        self, table: DBTable, column: str, encoder: DictionaryEncoder
    ) -> np.ndarray:
        """The join input ``(n, 2)`` array of ``(encoded key, row handle)``.

        Returned by *identity* across calls (no per-query rebuild);
        consumers treat pairs inputs as read-only by contract.
        """
        with self._lock:
            self._reap()
            entry = self._entry(table)
            key = ("handles", column, self._remember_encoder(encoder))
            cached = entry.values.get(key)
            if cached is not None:
                self.stats["hits"] += 1
                return cached
            keys = self.encoded_keys(table, column, encoder)
            array = np.empty((len(keys), 2), dtype=_INT)
            array[:, 0] = keys
            array[:, 1] = np.arange(len(keys), dtype=_INT)
            entry.values[key] = array
            return array

    # -- lifecycle -----------------------------------------------------------

    def invalidate(self, table: DBTable) -> None:
        """Drop everything cached for one table."""
        with self._lock:
            self._reap()
            self._tables.pop(id(table), None)

    def close(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._dead.clear()
            self._tables.clear()
            self._encoders.clear()

    def snapshot(self) -> dict:
        """A point-in-time copy of the counters (per-query stats deltas)."""
        with self._lock:
            return dict(self.stats)
