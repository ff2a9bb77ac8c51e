"""In-memory tables for the mini relational engine."""

from __future__ import annotations

import csv
from typing import Iterable, Iterator

from ..errors import SchemaError
from .schema import Column, Schema


class DBTable:
    """An immutable-ish list of typed rows under a schema.

    ``version`` is the table's mutation counter: the encoding cache (and
    anything else that memoises per-table derived state) keys on
    ``(id(table), version)``, so going through :meth:`append_row` /
    :meth:`extend_rows` — or calling :meth:`touch` after editing ``rows``
    in place — invalidates every cached encoding.
    """

    def __init__(self, schema: Schema, rows: Iterable[tuple] = ()) -> None:
        self.schema = schema
        self.version = 0
        self.rows: list[tuple] = []
        for row in rows:
            row = tuple(row)
            schema.validate_row(row)
            self.rows.append(row)

    def append_row(self, row: tuple) -> None:
        """Validate and append one row, bumping the mutation counter."""
        row = tuple(row)
        self.schema.validate_row(row)
        self.rows.append(row)
        self.version += 1

    def extend_rows(self, rows: Iterable[tuple]) -> None:
        """Validate and append rows, bumping the mutation counter once."""
        staged = []
        for row in rows:
            row = tuple(row)
            self.schema.validate_row(row)
            staged.append(row)
        self.rows.extend(staged)
        self.version += 1

    def touch(self) -> None:
        """Declare an in-place mutation of ``rows`` (invalidates caches)."""
        self.version += 1

    @classmethod
    def from_rows(cls, specs: list[str], rows: Iterable[tuple]) -> "DBTable":
        """Build a table with ``Schema.of(*specs)``."""
        return cls(Schema.of(*specs), rows)

    @classmethod
    def from_csv(cls, path: str, specs: list[str]) -> "DBTable":
        """Load a headered CSV, coercing columns per the schema.

        A schema column missing from the CSV header (or misnamed in it)
        raises :class:`~repro.errors.SchemaError` naming the column and
        the file, not a bare ``KeyError``.
        """
        schema = Schema.of(*specs)
        rows = []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for record in reader:
                row = []
                for c in schema.columns:
                    try:
                        value = record[c.name]
                    except KeyError:
                        raise SchemaError(
                            f"CSV file {path!r} has no column {c.name!r}; "
                            f"header: {reader.fieldnames}"
                        ) from None
                    row.append(int(value) if c.type == "int" else str(value))
                rows.append(tuple(row))
        return cls(schema, rows)

    @classmethod
    def open(
        cls,
        store,
        name: str,
        specs: list[str] | None = None,
        key: bytes | None = None,
        cache_bytes: int | None = None,
    ) -> "DBTable":
        """Open a store-backed table: a block store (or path) plus a name.

        Returns a read-only :class:`~repro.db.stored.StoredTable` whose
        columns stream block-wise from the store through a trusted-memory
        cache of ``cache_bytes``; see :meth:`to_store` for the writer.
        ``key`` decrypts an encrypted store; ``specs`` optionally asserts
        the stored schema.
        """
        from .stored import DEFAULT_CACHE_BYTES, open_table

        return open_table(
            store,
            name,
            specs=specs,
            key=key,
            cache_bytes=(
                cache_bytes if cache_bytes is not None else DEFAULT_CACHE_BYTES
            ),
        )

    def to_store(self, store, name: str, key: bytes | None = None):
        """Write this table's columns into a block store; returns the store.

        ``store`` is a :class:`~repro.store.BlockStore` or a directory
        path (which becomes a :class:`~repro.store.FileStore`, encrypted
        when ``key`` is given).  Read it back with :meth:`open`.
        """
        from .stored import save_table

        return save_table(self, store, name, key=key)

    def column(self, name: str) -> list:
        """All values of one column."""
        index = self.schema.index(name)
        return [row[index] for row in self.rows]

    def project(self, names: list[str]) -> "DBTable":
        """Keep only the named columns (in the given order).

        The result is an independent **snapshot**, not a view: it copies
        the row tuples into a fresh table with its own ``version`` counter
        and shares no lineage with the source.  Mutating or ``touch()``-ing
        the source afterwards neither changes the derived table nor
        invalidates encoding-cache entries keyed on it — which is correct,
        because the derived table's contents did not change.  The cache
        contract is per-table: invalidate a derived table by mutating *it*
        (tests pin this in ``tests/test_db_table.py``).
        """
        indices = [self.schema.index(n) for n in names]
        schema = Schema([self.schema.columns[i] for i in indices])
        return DBTable(schema, [tuple(row[i] for i in indices) for row in self.rows])

    def rename(self, mapping: dict[str, str]) -> "DBTable":
        """A copy with columns renamed per ``mapping``.

        Same snapshot/invalidation contract as :meth:`project`: the copy
        has independent rows and an independent ``version``; a later
        source ``touch()`` does not (and need not) invalidate caches for
        the derived table.
        """
        columns = [
            Column(mapping.get(c.name, c.name), c.type) for c in self.schema.columns
        ]
        return DBTable(Schema(columns), self.rows)

    def head(self, count: int = 5) -> list[tuple]:
        return self.rows[:count]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DBTable):
            return NotImplemented
        return self.schema == other.schema and sorted(self.rows) == sorted(other.rows)

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width text rendering (for examples and docs)."""
        names = self.schema.names()
        shown = [tuple(str(v) for v in row) for row in self.rows[:limit]]
        widths = [
            max(len(name), *(len(r[i]) for r in shown)) if shown else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in shown:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DBTable({self.schema!r}, rows={len(self.rows)})"


def require_int_column(table: DBTable, name: str) -> int:
    """Index of an int column, with a schema-aware error."""
    column = table.schema.column(name)
    if column.type != "int":
        raise SchemaError(
            f"column {name!r} must be int for this operation, is {column.type}"
        )
    return table.schema.index(name)
