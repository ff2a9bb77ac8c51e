"""Store-backed tables: ``DBTable`` over paged, optionally encrypted blocks.

A :class:`StoredTable` is a read-only :class:`~repro.db.table.DBTable`
whose columns live in a :class:`~repro.store.BlockStore` instead of a
resident row list.  Three access tiers, cheapest first:

* :meth:`StoredTable.store_pairs` — the out-of-core tier: an ``int`` key
  column as an engine-ready :class:`~repro.store.StorePairs`, which the
  sharded join scans block-wise, once per query.
* :meth:`StoredTable.column` — streams one column block-wise through the
  trusted-memory cache and returns its values.
* ``rows`` — the resident fall-back: materialises the whole table once,
  lazily, after which every inherited ``DBTable`` operation (filter,
  order_by, group_by, iteration, equality) behaves **bit-identically** to
  a resident table built from the same rows.

Mutation is rejected: a stored table's contents are owned by the store,
and its cache identity is ``(id(table), (version, store generation))`` —
rewriting the store bumps the generation, which invalidates encodings the
same way ``touch()`` does for resident tables.
"""

from __future__ import annotations

from ..errors import InputError, SchemaError
from ..store import BlockStore, FileStore, StorePairs, adopt, attach
from ..store.blockstore import DEFAULT_BLOCK_BYTES
from ..store.columns import (
    block_rows_of,
    column_key,
    meta_key,
    read_str_block,
    write_table,
)
from ..store.runtime import DEFAULT_CACHE_BYTES, StoreSpec, block_count
from .schema import Column, Schema
from .table import DBTable


class StoredTable(DBTable):
    """A read-only ``DBTable`` view over stored column blocks."""

    def __init__(self, spec: StoreSpec, name: str, schema: Schema, n: int) -> None:
        # Deliberately not calling DBTable.__init__: it assigns a resident
        # ``rows`` list, which this class replaces with a lazy property.
        self.spec = spec
        self.name = name
        self.schema = schema
        self.version = 0
        self._n = n
        self._rows: list[tuple] | None = None
        self._columns: dict[str, list] = {}

    # -- identity / cache keys -----------------------------------------------

    @property
    def store_generation(self) -> int:
        """The store's mutation counter, as seen by this process's handle.

        Joins ``version`` in the encoding cache's entry key, so a store
        rewrite invalidates cached encodings exactly like ``touch()``.
        """
        return attach(self.spec).store.generation

    @property
    def block_rows(self) -> int:
        return self.spec.block_rows

    # -- read paths ----------------------------------------------------------

    def column(self, name: str) -> list:
        """One column's values, streamed block-wise through the cache."""
        cached = self._columns.get(name)
        if cached is not None:
            return list(cached)
        index = self.schema.index(name)
        kind = self.schema.columns[index].type
        key = column_key(self.name, name)
        handle = attach(self.spec)
        block_rows = self.block_rows
        values: list = []
        for block in range(block_count(self._n, block_rows)):
            real = min(block_rows, self._n - block * block_rows)
            if kind == "int":
                values.extend(
                    int(v) for v in handle.read_int_block(key, block)[:real]
                )
            else:
                values.extend(read_str_block(handle.read_block, key, block, real))
        self._columns[name] = values
        return list(values)

    @property
    def rows(self) -> list[tuple]:
        """The resident fall-back: materialised once, on first access."""
        if self._rows is None:
            columns = [self.column(c.name) for c in self.schema.columns]
            self._rows = list(zip(*columns)) if columns else []
            if self._n and not columns:
                raise SchemaError("stored table has rows but no columns")
        return self._rows

    def store_pairs(self, column: str) -> StorePairs:
        """An ``int`` key column as out-of-core engine pairs.

        ``(encoded key, row handle)`` shaped — the handle side is the
        virtual ``arange`` column, never stored or read.  ``str`` columns
        have no stored integer encoding, so callers fall back to the
        resident path for them.
        """
        if self.schema.column(column).type != "int":
            raise SchemaError(
                f"column {column!r} is not int; store-backed pairs cover "
                "int key columns (str keys take the resident encoded path)"
            )
        return StorePairs(
            self.spec, self._n, column_key(self.name, column), d_key=None
        )

    # -- shape / mutation ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def _read_only(self, operation: str):
        raise InputError(
            f"{operation} is not supported on a store-backed table; stored "
            "tables are read-only views — rebuild the store to change them"
        )

    def append_row(self, row: tuple) -> None:
        self._read_only("append_row")

    def extend_rows(self, rows) -> None:
        self._read_only("extend_rows")

    def touch(self) -> None:
        self._read_only("touch")

    def __repr__(self) -> str:
        return (
            f"StoredTable({self.name!r}, rows={self._n}, "
            f"block_rows={self.block_rows}, store={self.spec.path!r})"
        )


def save_table(
    table: DBTable,
    store: BlockStore | str,
    name: str,
    key: bytes | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> BlockStore:
    """Write a table into a store (``str`` = FileStore path); returns it."""
    if isinstance(store, str):
        store = FileStore(store, block_bytes, key)
    write_table(store, name, table.schema, list(table.rows))
    return store


def open_table(
    store: BlockStore | str,
    name: str,
    specs: list[str] | None = None,
    key: bytes | None = None,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
) -> StoredTable:
    """Open a stored table by name; ``store`` is an instance or a path.

    The schema comes from the store's meta entry; passing ``specs``
    additionally asserts it matches (same contract as ``from_csv``).
    ``cache_bytes`` is this process's trusted-memory budget for the store.
    """
    if isinstance(store, str):
        store = FileStore(store, None, key)
    spec = adopt(store, cache_bytes)
    meta = store.get_meta(meta_key(name))
    if meta is None:
        raise InputError(
            f"no table {name!r} in store "
            f"{getattr(store, 'path', '<memory>')!r}; "
            f"stored keys: {store.keys()}"
        )
    schema = Schema([Column(n, t) for n, t in meta["columns"]])
    if specs is not None and Schema.of(*specs) != schema:
        raise SchemaError(
            f"stored table {name!r} has schema {schema!r}, which does not "
            f"match the requested specs {specs!r}"
        )
    if meta["block_rows"] != block_rows_of(store.block_bytes):
        raise InputError(
            f"table {name!r} was written with block_rows="
            f"{meta['block_rows']} but the store's block size implies "
            f"{block_rows_of(store.block_bytes)}"
        )
    return StoredTable(spec, name, schema, meta["n"])
