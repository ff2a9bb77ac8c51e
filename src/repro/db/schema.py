"""Table schemas for the mini relational engine."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchemaError

#: Supported logical column types.
COLUMN_TYPES = ("int", "str")


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str = "int"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name cannot be empty")
        if self.type not in COLUMN_TYPES:
            raise SchemaError(
                f"column {self.name!r}: unsupported type {self.type!r}"
                f" (expected one of {COLUMN_TYPES})"
            )


class Schema:
    """An ordered set of columns with name lookup."""

    def __init__(self, columns: list[Column]) -> None:
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.columns = list(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Shorthand: ``Schema.of("id:int", "name:str", "qty")``."""
        columns = []
        for item in specs:
            name, _, ctype = item.partition(":")
            columns.append(Column(name, ctype or "int"))
        return cls(columns)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise SchemaError(
                f"no column {name!r}; have {[c.name for c in self.columns]}"
            )
        return self._index[name]

    def column(self, name: str) -> Column:
        return self.columns[self.index(name)]

    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def validate_row(self, row: tuple) -> None:
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} != schema arity {len(self.columns)}"
            )
        for value, column in zip(row, self.columns):
            expected = int if column.type == "int" else str
            # bool is an int subclass: a JSON `true` must not pass as key 1.
            # (Exact type first: this runs per cell of every table built.)
            if type(value) is not expected and (
                isinstance(value, bool) or not isinstance(value, expected)
            ):
                raise SchemaError(
                    f"column {column.name!r} expects {column.type}, got "
                    f"{type(value).__name__} ({value!r})"
                )

    def concat(self, other: "Schema", prefixes: tuple[str, str]) -> "Schema":
        """Joined-row schema; colliding names get dotted prefixes."""
        left_names = set(self.names())
        right_names = set(other.names())
        clash = left_names & right_names
        columns = [
            Column(f"{prefixes[0]}.{c.name}" if c.name in clash else c.name, c.type)
            for c in self.columns
        ]
        columns += [
            Column(f"{prefixes[1]}.{c.name}" if c.name in clash else c.name, c.type)
            for c in other.columns
        ]
        return Schema(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.type}" for c in self.columns)
        return f"Schema({cols})"
