"""In-memory row-store table.

Rows are plain tuples laid out in schema order.  The row engine's scans
share the cached row tuple of :meth:`Table.frozen_rows`; the statistics
collector, the ground truth and the content digest read whole columns
through the cached column tuples of :meth:`Table.columns`.  Data is
append-only, which is all the paper's workloads need — there is no
update/delete path to complicate statistics.

Append-only storage buys a cheap invariant the execution layer leans on:
the row count alone identifies a table's content state, so the columnar
transpose (:meth:`Table.columns`), the content digest
(:meth:`Table.content_digest`), the frozen row tuple, the value indexes
and the sorted runs can be cached and invalidated by comparing
``row_count`` against the count they were computed at.  A table loaded by
:meth:`Table.from_columns` starts with the columns it was given as its
cached transpose and no row tuples: the rows are zipped from the columns
the first time a row reader (:meth:`Table.scan`, :meth:`Table.rows`,
:meth:`Table.frozen_rows`, :meth:`Table.sorted_rows`,
:meth:`Table.value_index`, :meth:`Table.append`) asks for them, so a table
only ever read by column never holds its values twice.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..catalog.schema import ColumnType, TableSchema
from ..errors import StorageError

__all__ = ["Row", "Table"]

Scalar = Union[int, float, str]
Row = Tuple[Scalar, ...]


class Table:
    """An append-only, schema-validated in-memory table."""

    def __init__(self, schema: TableSchema) -> None:
        self._schema = schema
        # ``None`` until a row reader zips a loaded table's columns.
        self._rows: Optional[List[Row]] = []
        # Caches invalidated by row-count comparison (append-only storage).
        self._columns_cache: Optional[Tuple[int, Tuple[Tuple[Scalar, ...], ...]]] = None
        self._digest_cache: Optional[Tuple[int, str]] = None
        self._value_index_cache: Dict[str, Tuple[int, Mapping[Scalar, Tuple[int, ...]]]] = {}
        self._sorted_run_cache: Dict[
            str, Tuple[int, Tuple[Tuple[Row, ...], Tuple[Scalar, ...]]]
        ] = {}
        self._frozen_rows_cache: Optional[Tuple[int, Tuple[Row, ...]]] = None

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def row_count(self) -> int:
        if self._rows is None:
            # Not zipped yet: the loaded columns are the whole content.
            return self._columns_cache[0]
        return len(self._rows)

    def __len__(self) -> int:
        return self.row_count

    def _row_list(self) -> List[Row]:
        """The stored rows, zipped from the loaded columns on first use."""
        if self._rows is None:
            self._rows = list(zip(*self._columns_cache[1]))
        return self._rows

    def append(self, row: Union[Row, Sequence[Scalar], Mapping[str, Scalar]]) -> None:
        """Append one row, given as a tuple in schema order or as a mapping.

        Raises:
            StorageError: on arity or type mismatch with the schema.
        """
        if isinstance(row, Mapping):
            try:
                row = tuple(row[name] for name in self._schema.column_names)
            except KeyError as exc:
                raise StorageError(
                    f"row is missing column {exc.args[0]!r} for table {self.name!r}"
                ) from None
        else:
            row = tuple(row)
        self._validate(row)
        self._row_list().append(row)

    def extend(
        self, rows: Iterable[Union[Row, Sequence[Scalar]]], validate: bool = True
    ) -> None:
        """Bulk-append rows; ``validate=False`` skips per-row type checks.

        Bulk loading synthetic workloads with millions of values is the hot
        path of the benchmark harness, hence the opt-out.
        """
        if validate:
            for row in rows:
                self.append(row)
        else:
            self._row_list().extend(tuple(row) for row in rows)

    @classmethod
    def from_columns(
        cls, schema: TableSchema, columns: Mapping[str, Sequence[Scalar]]
    ) -> "Table":
        """Build a table from parallel column value sequences.

        The columns are frozen to tuples and kept as the cached transpose;
        row tuples are zipped from them only when a row reader first asks.

        Raises:
            StorageError: when a schema column is missing or lengths differ.
        """
        missing = [c for c in schema.column_names if c not in columns]
        if missing:
            raise StorageError(f"missing column data for {missing} in {schema.name!r}")
        lengths = {name: len(columns[name]) for name in schema.column_names}
        if len(set(lengths.values())) > 1:
            raise StorageError(f"column lengths differ in {schema.name!r}: {lengths}")
        table = cls(schema)
        ordered = tuple(tuple(columns[name]) for name in schema.column_names)
        table._rows = None
        table._columns_cache = (len(ordered[0]), ordered)
        return table

    def scan(self) -> Iterator[Row]:
        """Iterate over all rows in insertion order."""
        return iter(self._row_list())

    def rows(self) -> List[Row]:
        """A copy of all rows (callers may mutate the list freely)."""
        return list(self._row_list())

    def frozen_rows(self) -> Tuple[Row, ...]:
        """All rows in insertion order as a tuple, cached per row count.

        The row engine's scans share it instead of copying the table per
        query; an ``append``/``extend`` changes the row count and so
        invalidates it, and being a tuple it cannot be corrupted by a caller.
        """
        cached = self._frozen_rows_cache
        if cached is not None and cached[0] == self.row_count:
            return cached[1]
        frozen = tuple(self._row_list())
        self._frozen_rows_cache = (len(frozen), frozen)
        return frozen

    def columns(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """All columns as parallel value tuples, in schema order.

        The transpose is computed once and cached (a table built by
        :meth:`from_columns` starts with its given columns); because
        storage is append-only, the cache is valid exactly while
        ``row_count`` is unchanged.  The columns are frozen to tuples so the
        cached transpose cannot be corrupted through the returned reference.
        """
        cached = self._columns_cache
        if cached is not None and cached[0] == self.row_count:
            return cached[1]
        rows = self._row_list()
        if rows:
            transposed = tuple(tuple(col) for col in zip(*rows))
        else:
            transposed = tuple(() for _ in self._schema.column_names)
        self._columns_cache = (len(rows), transposed)
        return transposed

    def content_digest(self) -> str:
        """A stable hex digest of the table's schema and row contents.

        Used as the table's part of a :meth:`Database.fingerprint
        <repro.storage.database.Database.fingerprint>` for ground-truth
        caching.  Cached per row count (valid under append-only storage);
        equal digests imply equal name, column names/types, and row
        sequences.  The rows are hashed column by column, as ``repr`` of
        each cached column tuple: every column has ``row_count`` values and
        its ``repr`` is self-delimiting, so the digest still covers the row
        order and each value's type (``1``, ``1.0``, ``True`` and ``"1"``
        differ).
        """
        cached = self._digest_cache
        if cached is not None and cached[0] == self.row_count:
            return cached[1]
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(self.name.encode())
        for column in self._schema.columns:
            hasher.update(f"|{column.name}:{column.type.value}".encode())
        for values in self.columns():
            hasher.update(repr(values).encode())
        digest = hasher.hexdigest()
        self._digest_cache = (self.row_count, digest)
        return digest

    def value_index(self, column: str) -> Mapping[Scalar, Tuple[int, ...]]:
        """A hash index over one column: value -> row indices, in row order.

        Built lazily on first use and cached per row count (valid under
        append-only storage), so repeated selective probes — the parallel
        engine's index-join path — cost one dict lookup per distinct build
        key instead of one per stored row.  The index is returned as a
        read-only mapping with tuple values, so callers cannot corrupt the
        cached copy shared by later calls.

        Raises:
            StorageError: if the column is not in the schema.
        """
        cached = self._value_index_cache.get(column)
        if cached is not None and cached[0] == self.row_count:
            return cached[1]
        position = self._schema.index_of(column)
        rows = self._row_list()
        buckets: Dict[Scalar, List[int]] = {}
        setdefault = buckets.setdefault
        for index, row in enumerate(rows):
            setdefault(row[position], []).append(index)
        frozen: Mapping[Scalar, Tuple[int, ...]] = MappingProxyType(
            {value: tuple(indices) for value, indices in buckets.items()}
        )
        self._value_index_cache[column] = (len(rows), frozen)
        return frozen

    def sorted_rows(self, column: str) -> Tuple[Row, ...]:
        """All rows stably sorted on one column: a cached sorted run.

        Equal to ``tuple(sorted(rows, key=column))`` row for row (the sort
        is stable, so ties keep insertion order), which lets a sort-merge
        join over a bare scan of this table skip its per-query sort.
        Cached per row count like :meth:`value_index` and frozen to a
        tuple, so the shared run cannot be corrupted by a caller.

        Raises:
            CatalogError: if the column is not in the schema.
        """
        return self._sorted_run(column)[0]

    def sorted_keys(self, column: str) -> Tuple[Scalar, ...]:
        """The key list of :meth:`sorted_rows`: the column's value per run row.

        Equal to ``tuple(map(itemgetter(position), sorted_rows(column)))``,
        built and cached with the run, so a sort-merge join over the run
        bisects it without extracting the keys per query.

        Raises:
            CatalogError: if the column is not in the schema.
        """
        return self._sorted_run(column)[1]

    def _sorted_run(self, column: str) -> Tuple[Tuple[Row, ...], Tuple[Scalar, ...]]:
        cached = self._sorted_run_cache.get(column)
        if cached is not None and cached[0] == self.row_count:
            return cached[1]
        key = itemgetter(self._schema.index_of(column))
        rows = self._row_list()
        run = tuple(sorted(rows, key=key))
        entry = (run, tuple(map(key, run)))
        self._sorted_run_cache[column] = (len(rows), entry)
        return entry

    def column_values(self, column: str) -> List[Scalar]:
        """All values of one column, in row order (duplicates preserved)."""
        index = self._schema.index_of(column)
        return list(self.columns()[index])

    def distinct_count(self, column: str) -> int:
        """Exact number of distinct values in a column."""
        index = self._schema.index_of(column)
        return len(set(self.columns()[index]))

    def _validate(self, row: Row) -> None:
        if len(row) != len(self._schema.columns):
            raise StorageError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"with {len(self._schema.columns)} columns"
            )
        for value, column in zip(row, self._schema.columns):
            if not column.type.validate(value):
                raise StorageError(
                    f"value {value!r} is not a valid {column.type.value} for "
                    f"column {self.name}.{column.name}"
                )

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.row_count})"
