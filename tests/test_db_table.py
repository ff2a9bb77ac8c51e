"""DBTable behaviour."""

import pytest

from repro.db.schema import Schema
from repro.db.table import DBTable, require_int_column
from repro.errors import SchemaError


@pytest.fixture
def people():
    return DBTable.from_rows(
        ["id:int", "name:str", "age:int"],
        [(1, "ana", 34), (2, "bo", 41), (3, "cy", 29)],
    )


def test_rows_validated_on_construction():
    with pytest.raises(SchemaError):
        DBTable.from_rows(["id:int"], [("not-an-int",)])


def test_bool_is_not_an_int_cell(people):
    """`True == 1`, so a bool key would silently merge into group 1."""
    with pytest.raises(SchemaError, match="'k' expects int, got bool"):
        DBTable.from_rows(["k:int", "v:int"], [(True, 5), (1, 7)])
    with pytest.raises(SchemaError, match="'age' expects int, got bool"):
        people.append_row((4, "di", False))
    assert len(people) == 3


def test_column_extraction(people):
    assert people.column("name") == ["ana", "bo", "cy"]


def test_project_selects_and_reorders(people):
    projected = people.project(["age", "id"])
    assert projected.schema.names() == ["age", "id"]
    assert projected.rows == [(34, 1), (41, 2), (29, 3)]


def test_rename(people):
    renamed = people.rename({"id": "person_id"})
    assert renamed.schema.names() == ["person_id", "name", "age"]
    assert renamed.rows == people.rows


def test_len_iter_head(people):
    assert len(people) == 3
    assert list(people)[0] == (1, "ana", 34)
    assert people.head(2) == [(1, "ana", 34), (2, "bo", 41)]


def test_equality_is_order_insensitive(people):
    shuffled = DBTable(people.schema, list(reversed(people.rows)))
    assert people == shuffled


def test_pretty_renders_columns(people):
    text = people.pretty()
    assert "name" in text and "ana" in text and "|" in text


def test_pretty_truncates(people):
    text = people.pretty(limit=1)
    assert "more rows" in text


def test_from_csv_roundtrip(tmp_path, people):
    path = tmp_path / "people.csv"
    path.write_text("id,name,age\n1,ana,34\n2,bo,41\n3,cy,29\n")
    loaded = DBTable.from_csv(str(path), ["id:int", "name:str", "age:int"])
    assert loaded == people


def test_require_int_column(people):
    assert require_int_column(people, "age") == 2
    with pytest.raises(SchemaError, match="must be int"):
        require_int_column(people, "name")


def test_from_csv_missing_column_names_column_and_file(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text("id,name\n1,ana\n")
    with pytest.raises(SchemaError) as excinfo:
        DBTable.from_csv(str(path), ["id:int", "name:str", "age:int"])
    message = str(excinfo.value)
    assert "'age'" in message and "people.csv" in message
    assert "header" in message


def test_project_and_rename_are_independent_snapshots(people):
    """The documented lineage contract: derived tables share no version.

    ``project``/``rename`` copy rows into a fresh table with its own
    ``version``; mutating or touching the source afterwards must neither
    change the derived table nor be needed to invalidate caches keyed on
    it — per-table invalidation means mutating the *derived* table is
    what bumps the derived table's version.
    """
    projected = people.project(["id", "age"])
    renamed = people.rename({"id": "person_id"})
    assert projected.version == 0 and renamed.version == 0
    before_projected = list(projected.rows)
    before_renamed = list(renamed.rows)
    people.append_row((4, "di", 55))
    people.touch()
    assert people.version == 2
    # Source mutation: derived contents and versions are untouched.
    assert projected.rows == before_projected
    assert renamed.rows == before_renamed
    assert projected.version == 0 and renamed.version == 0
    # Derived mutation bumps only the derived version.
    projected.append_row((9, 99))
    assert projected.version == 1 and people.version == 2


def test_derived_table_cache_invalidation_is_per_table(people):
    from repro.db.encoding import DictionaryEncoder
    from repro.db.encoding_cache import EncodingCache

    cache = EncodingCache()
    encoder = DictionaryEncoder()
    projected = people.project(["id", "age"])
    assert cache.encoded_keys(projected, "id", encoder) == [1, 2, 3]
    # Touching the source does not (and need not) invalidate the derived
    # table's entry: its contents did not change.
    people.touch()
    cache.encoded_keys(projected, "id", encoder)
    assert cache.stats["hits"] == 1
    # Mutating the derived table does invalidate it.
    projected.append_row((4, 50))
    assert cache.encoded_keys(projected, "id", encoder) == [1, 2, 3, 4]
    assert cache.stats["hits"] == 1
