"""Storage engine tests: tables, validation, the database handle."""

import pytest

from repro.catalog import ColumnDef, ColumnType, TableSchema
from repro.errors import CatalogError, StorageError
from repro.storage import Database, Table


def schema_rx():
    return TableSchema.of("R", "x", "y")


class TestTableAppend:
    def test_append_tuple(self):
        table = Table(schema_rx())
        table.append((1, 2))
        assert table.row_count == 1
        assert list(table.scan()) == [(1, 2)]

    def test_append_mapping(self):
        table = Table(schema_rx())
        table.append({"y": 2, "x": 1})
        assert table.rows() == [(1, 2)]

    def test_append_mapping_missing_column(self):
        table = Table(schema_rx())
        with pytest.raises(StorageError):
            table.append({"x": 1})

    def test_arity_mismatch(self):
        table = Table(schema_rx())
        with pytest.raises(StorageError):
            table.append((1,))

    def test_type_mismatch(self):
        table = Table(schema_rx())
        with pytest.raises(StorageError):
            table.append((1, "nope"))

    def test_extend_with_validation(self):
        table = Table(schema_rx())
        with pytest.raises(StorageError):
            table.extend([(1, 2), ("bad", 3)])

    def test_extend_unvalidated_is_fast_path(self):
        table = Table(schema_rx())
        table.extend([(1, 2), (3, 4)], validate=False)
        assert table.row_count == 2


class TestFromColumns:
    def test_builds_rows_in_schema_order(self):
        table = Table.from_columns(schema_rx(), {"y": [10, 20], "x": [1, 2]})
        assert table.rows() == [(1, 10), (2, 20)]

    def test_missing_column_data(self):
        with pytest.raises(StorageError):
            Table.from_columns(schema_rx(), {"x": [1]})

    def test_length_mismatch(self):
        with pytest.raises(StorageError):
            Table.from_columns(schema_rx(), {"x": [1], "y": [1, 2]})

    def test_empty_columns(self):
        table = Table.from_columns(schema_rx(), {"x": [], "y": []})
        assert table.row_count == 0


class TestTableAccessors:
    def test_column_values(self):
        table = Table.from_columns(schema_rx(), {"x": [1, 2, 2], "y": [5, 6, 7]})
        assert table.column_values("x") == [1, 2, 2]

    def test_distinct_count(self):
        table = Table.from_columns(schema_rx(), {"x": [1, 2, 2], "y": [5, 5, 5]})
        assert table.distinct_count("x") == 2
        assert table.distinct_count("y") == 1

    def test_unknown_column(self):
        table = Table(schema_rx())
        with pytest.raises(CatalogError):
            table.column_values("zz")

    def test_rows_returns_copy(self):
        table = Table.from_columns(schema_rx(), {"x": [1], "y": [2]})
        rows = table.rows()
        rows.append((9, 9))
        assert table.row_count == 1

    def test_columns_transpose_is_frozen(self):
        """The cached transpose is tuples all the way down: a caller must
        not be able to corrupt the copy served to later calls."""
        table = Table.from_columns(schema_rx(), {"x": [1, 2], "y": [5, 6]})
        columns = table.columns()
        assert columns == ((1, 2), (5, 6))
        assert all(isinstance(column, tuple) for column in columns)
        assert table.columns() == ((1, 2), (5, 6))

    def test_columns_cache_revalidates_after_append(self):
        table = Table.from_columns(schema_rx(), {"x": [1], "y": [5]})
        assert table.columns() == ((1,), (5,))
        table.append((2, 6))
        assert table.columns() == ((1, 2), (5, 6))

    def test_rows_are_zipped_only_when_a_row_reader_asks(self):
        table = Table.from_columns(schema_rx(), {"x": [1, 2], "y": [5, 6]})
        table.columns()
        table.content_digest()
        table.distinct_count("x")
        assert (table.row_count, len(table)) == (2, 2)
        assert table._rows is None  # read by column only: no row tuples yet
        assert list(table.scan()) == [(1, 5), (2, 6)]
        assert table._rows == [(1, 5), (2, 6)]

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.rows(),
            lambda t: t.sorted_rows("y"),
            lambda t: dict(t.value_index("x")),
            lambda t: t.extend([], validate=False),
        ],
    )
    def test_each_row_reader_sees_the_loaded_rows(self, read):
        table = Table.from_columns(schema_rx(), {"x": [2, 1], "y": [6, 5]})
        read(table)
        assert table.rows() == [(2, 6), (1, 5)]
        assert table.sorted_rows("x") == ((1, 5), (2, 6))
        assert dict(table.value_index("x")) == {2: (0,), 1: (1,)}
        table.append((3, 7))
        assert table.row_count == 3
        assert table.columns() == ((2, 1, 3), (6, 5, 7))

    def test_empty_table_columns_are_tuples(self):
        table = Table(schema_rx())
        assert table.columns() == ((), ())

    def test_string_column_type_enforced(self):
        schema = TableSchema.of("S", ColumnDef("name", ColumnType.STR))
        table = Table(schema)
        table.append(("alice",))
        with pytest.raises(StorageError):
            table.append((42,))


class TestContentDigest:
    """The digest covers name, schema, row order and each value's type."""

    ROWS = [(1, "a"), (2, "b"), (2, "c")]

    def schema(self, second="y"):
        return TableSchema.of("R", "x", ColumnDef(second, ColumnType.STR))

    def digest_of(self, xs, second="y"):
        columns = {"x": xs, second: ["a", "b", "c"][: len(xs)]}
        return Table.from_columns(self.schema(second), columns).content_digest()

    def test_append_and_from_columns_agree(self):
        appended = Table(self.schema())
        for row in self.ROWS:
            appended.append(row)
        loaded = Table.from_columns(self.schema(), {"x": [1, 2, 2], "y": ["a", "b", "c"]})
        assert appended.content_digest() == loaded.content_digest()
        databases = [Database(), Database()]
        databases[0].load_rows(self.schema(), self.ROWS)
        databases[1].load_columns(self.schema(), {"x": [1, 2, 2], "y": ["a", "b", "c"]})
        assert databases[0].fingerprint() == databases[1].fingerprint()

    def test_row_swap_changes_digest(self):
        table = Table.from_columns(self.schema(), {"x": [1, 2, 2], "y": ["a", "b", "c"]})
        swapped = Table.from_columns(self.schema(), {"x": [2, 1, 2], "y": ["b", "a", "c"]})
        assert table.content_digest() != swapped.content_digest()

    def test_value_type_changes_digest(self):
        digests = {self.digest_of([1, 2, value]) for value in (1, 1.0, True, "1")}
        assert len(digests) == 4

    def test_column_rename_changes_digest(self):
        assert self.digest_of([1, 2, 2]) != self.digest_of([1, 2, 2], second="z")

    def test_append_rebuilds_columns_digest_and_statistics(self):
        database = Database()
        table = database.load_columns(self.schema(), {"x": [1, 2, 2], "y": ["a", "b", "c"]})
        database.analyze()
        before = (table.columns(), table.content_digest(), database.catalog.stats("R"))
        table.append((3, "d"))
        database.analyze()
        assert table.columns() == ((1, 2, 2, 3), ("a", "b", "c", "d"))
        assert table.content_digest() != before[1]
        rebuilt = Table.from_columns(
            self.schema(), {"x": [1, 2, 2, 3], "y": ["a", "b", "c", "d"]}
        )
        assert table.content_digest() == rebuilt.content_digest()
        stats = database.catalog.stats("R")
        assert (before[2].row_count, stats.row_count) == (3, 4)
        assert (stats.column("x").distinct, stats.column("x").high) == (3, 3)
        assert stats.column("y").distinct == 4


class TestDatabase:
    def test_create_and_get(self):
        db = Database()
        db.create_table(schema_rx())
        assert "R" in db
        assert db.table("R").row_count == 0

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_table(schema_rx())
        with pytest.raises(StorageError):
            db.create_table(schema_rx())

    def test_unknown_table(self):
        with pytest.raises(StorageError):
            Database().table("nope")

    def test_drop(self):
        db = Database()
        db.create_table(schema_rx())
        db.drop_table("R")
        assert "R" not in db
        with pytest.raises(StorageError):
            db.drop_table("R")

    def test_load_columns(self):
        db = Database()
        db.load_columns(schema_rx(), {"x": [1, 2], "y": [3, 4]})
        assert db.table("R").row_count == 2
        with pytest.raises(StorageError):
            db.load_columns(schema_rx(), {"x": [], "y": []})

    def test_load_rows(self):
        db = Database()
        db.load_rows(schema_rx(), [(1, 2)])
        assert db.true_count("R") == 1

    def test_analyze_populates_catalog(self):
        db = Database()
        db.load_columns(schema_rx(), {"x": [1, 2, 2], "y": [1, 1, 1]})
        db.analyze()
        assert db.catalog.stats("R").row_count == 3
        assert db.catalog.column_stats("R", "x").distinct == 2

    def test_analyze_single_table(self):
        db = Database()
        db.load_columns(schema_rx(), {"x": [1], "y": [1]})
        db.load_columns(TableSchema.of("S", "z"), {"z": [1, 2]})
        db.analyze("S")
        assert "S" in db.catalog._schemas  # noqa: SLF001 - white-box check
        with pytest.raises(CatalogError):
            db.catalog.stats("R")

    def test_set_stats_overrides(self):
        from repro.catalog import TableStats

        db = Database()
        db.load_columns(schema_rx(), {"x": [1], "y": [1]})
        db.set_stats("R", TableStats.simple(999, {"x": 99}))
        assert db.catalog.stats("R").row_count == 999

    def test_table_names_sorted(self):
        db = Database()
        db.create_table(TableSchema.of("B", "x"))
        db.create_table(TableSchema.of("A", "x"))
        assert db.table_names() == ("A", "B")
