"""Physical operators: scans, filters, projections, and three join methods.

The operator set mirrors the repertoire the paper's experiment enabled:
Nested Loops and Sort Merge joins (a hash join is included as a modern
extension, off by default in the optimizer).  Operators follow a simple
materializing iterator model — ``rows()`` produces the full output —
which is all the benchmark harness needs and keeps row-at-a-time Python
overhead low.  The root of a ``COUNT(*)`` plan is asked for ``count()``
instead: a join counts its matches from the same matching loop that
``rows()`` builds tuples from (group sizes for sort-merge, match-list
lengths for nested loops and hash), so the root's output tuples are never
built; its inputs are still materialized with ``rows()``.  The per-row
work of filters, nested loops and sort-merge runs in C (``itemgetter``
keys, ``compress`` over comparison maps, ``bisect`` jumps over sorted key
lists, one comprehension per matched group); the Python loops are per
outer row or per key group.

Every operator updates an :class:`~repro.execution.metrics.OperatorStats`:
rows in/out, key or predicate comparisons, and simulated page I/O (scans
charge their table pages; sort-merge charges sort passes; nested loops
charges repeated inner scans when the inner does not fit in the buffer).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..sql.predicates import ColumnRef, ComparisonPredicate, Literal
from ..storage.table import Table
from .layout import Layout, operator_function, split_join_condition
from .metrics import ExecutionMetrics, OperatorStats

__all__ = [
    "Operator",
    "TableScanOp",
    "FilterOp",
    "ProjectOp",
    "NestedLoopJoinOp",
    "SortMergeJoinOp",
    "HashJoinOp",
]

Row = Tuple


def _pages(rows: int, row_width: int, page_size: int) -> float:
    """Pages occupied by ``rows`` of the given width (0 rows -> 0 pages)."""
    if rows <= 0:
        return 0.0
    return math.ceil(rows * max(1, row_width) / max(1, page_size))


class Operator:
    """Base class: a layout, a materializing ``rows()`` and its ``count()``."""

    def __init__(self, layout: Layout, stats: OperatorStats) -> None:
        self._layout = layout
        self._stats = stats

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def stats(self) -> OperatorStats:
        return self._stats

    def rows(self) -> Sequence[Row]:
        raise NotImplementedError

    def count(self) -> int:
        """``len(self.rows())``, charging the same statistics and ticks.

        Joins count their matches without building output tuples.
        """
        return len(self.rows())

    def sorted_run(
        self, position: int
    ) -> Optional[Tuple[Sequence[Row], Sequence[object]]]:
        """This operator's rows stably sorted on one column, and their keys.

        Only a bare table scan has a precomputed run
        (:meth:`TableScanOp.sorted_run`); every other operator returns
        ``None`` and its consumer sorts.
        """
        return None


class TableScanOp(Operator):
    """Sequential scan of a stored table under a relation name.

    The relation name may differ from the base table (alias scans); output
    columns are qualified with the relation name so predicates compiled
    against the query resolve correctly.  ``table`` is the stored table
    ``source_rows`` iterates, when there is one; the scan then reads the
    table's cached row tuple instead of copying ``source_rows``, and can
    hand out the table's cached sorted runs.
    """

    def __init__(
        self,
        relation: str,
        column_names: Sequence[str],
        source_rows: Iterable[Row],
        metrics: ExecutionMetrics,
        pages: float = 0.0,
        table: Optional[Table] = None,
    ) -> None:
        layout = Layout([ColumnRef(relation, c) for c in column_names])
        super().__init__(layout, metrics.register(f"scan({relation})"))
        self._column_names = tuple(column_names)
        self._source_rows = source_rows
        self._pages = pages
        self._deadline = metrics.deadline
        self._table = table
        self._materialized: Optional[Tuple[Row, ...]] = None

    def rows(self) -> Sequence[Row]:
        # Materialize once: multi-call plans (e.g. a scan feeding a
        # nested-loop inner that is re-read) must not re-copy the source or
        # double-count the scan's rows and simulated page I/O.  The result
        # is frozen to a tuple so no downstream operator can corrupt the
        # shared materialization.
        if self._materialized is not None:
            return self._materialized
        if self._table is not None:
            result = self._table.frozen_rows()
        else:
            result = tuple(self._source_rows)
        if self._deadline is not None:
            self._deadline.check(self._stats.label)
            self._deadline.tick(len(result), self._stats.label)
        self._stats.rows_in += len(result)
        self._stats.rows_out += len(result)
        self._stats.pages_read += self._pages
        self._materialized = result
        return result

    def sorted_run(
        self, position: int
    ) -> Optional[Tuple[Sequence[Row], Sequence[object]]]:
        """The table's cached sorted run on one column and its keys, or ``None``.

        A scan is always *bare* — local predicates run in a
        :class:`FilterOp` above it — so its rows are the table's rows in
        order and the table's stable sort equals sorting this scan's
        output row for row.  ``None`` unless the scan was built over a
        table and has materialized exactly the table's current rows.
        """
        table, scanned = self._table, self._materialized
        if table is None or scanned is None or len(scanned) != table.row_count:
            return None
        column = self._column_names[position]
        return table.sorted_rows(column), table.sorted_keys(column)


def _compile_mask(
    predicate: ComparisonPredicate, layout: Layout
) -> Callable[[Sequence[Row]], Iterator[bool]]:
    """A predicate as a C-level mask: rows -> one truth value per row.

    Evaluates ``op(row[left], constant)`` or ``op(row[left], row[right])``
    with the operands in predicate order, through ``itemgetter`` and
    ``map`` so no Python frame runs per row.
    """
    func = operator_function(predicate.op)
    left = itemgetter(layout.position(predicate.left))
    if isinstance(predicate.right, Literal):
        constant = predicate.right.value
        return lambda rows: map(func, map(left, rows), repeat(constant))
    right = itemgetter(layout.position(predicate.right))
    return lambda rows: map(func, map(left, rows), map(right, rows))


class FilterOp(Operator):
    """Apply a conjunction of (local) predicates to child rows.

    One ``compress`` pass per predicate over the previous pass's
    survivors: each row meets the predicates in order and stops at the
    first false one, exactly as a short-circuiting conjunction would.
    """

    def __init__(
        self,
        child: Operator,
        predicates: Sequence[ComparisonPredicate],
        metrics: ExecutionMetrics,
    ) -> None:
        super().__init__(child.layout, metrics.register("filter"))
        self._child = child
        self._predicates = tuple(predicates)
        self._masks = [_compile_mask(p, child.layout) for p in self._predicates]
        self._deadline = metrics.deadline

    def rows(self) -> List[Row]:
        source = self._child.rows()
        if self._deadline is not None:
            self._deadline.check(self._stats.label)
            self._deadline.tick(len(source), self._stats.label)
        self._stats.rows_in += len(source)
        self._stats.comparisons += len(source) * max(1, len(self._predicates))
        # The first pass reads the child's rows in place; no copy of them.
        result = source
        for mask in self._masks:
            result = list(compress(result, mask(result)))
        if not self._masks:
            result = list(source)
        self._stats.rows_out += len(result)
        return result


class ProjectOp(Operator):
    """Keep only the named columns, in the given order."""

    def __init__(
        self,
        child: Operator,
        columns: Sequence[ColumnRef],
        metrics: ExecutionMetrics,
    ) -> None:
        super().__init__(Layout(columns), metrics.register("project"))
        self._child = child
        self._positions = [child.layout.position(c) for c in columns]

    def rows(self) -> List[Row]:
        source = self._child.rows()
        self._stats.rows_in += len(source)
        positions = self._positions
        result = [tuple(row[p] for p in positions) for row in source]
        self._stats.rows_out += len(result)
        return result


class _JoinOp(Operator):
    """Shared setup for the three join methods.

    Nested loops and hash joins share ``rows()`` and ``count()`` over
    their matching loop ``_matches()``; sort-merge has its own pair over
    its equal-key groups.
    """

    def __init__(
        self,
        label: str,
        left: Operator,
        right: Operator,
        predicates: Sequence[ComparisonPredicate],
        metrics: ExecutionMetrics,
    ) -> None:
        layout = left.layout.concat(right.layout)
        super().__init__(layout, metrics.register(label))
        self._left = left
        self._right = right
        self._deadline = metrics.deadline
        self._predicates = tuple(predicates)
        condition = split_join_condition(
            self._predicates, left.layout, right.layout
        )
        self._keys = condition.keys
        self._residual = condition.residual
        self._has_residual = condition.has_residual

    def rows(self) -> List[Row]:
        residual = self._residual if self._has_residual else None
        result: List[Row] = []
        extend = result.extend
        for left_row, matches in self._matches():
            extend(
                [
                    left_row + right_row
                    for right_row in matches
                    if residual is None or residual(left_row, right_row)
                ]
            )
        self._stats.rows_out += len(result)
        return result

    def count(self) -> int:
        total = 0
        if self._has_residual:
            residual = self._residual
            for left_row, matches in self._matches():
                total += sum(1 for right_row in matches if residual(left_row, right_row))
        else:
            for _, matches in self._matches():
                total += len(matches)
        self._stats.rows_out += total
        return total

    def _matches(self) -> Iterator[Tuple[Row, Sequence[Row]]]:
        """The matching loop: outer rows in order, each with the inner rows
        its equi-keys match.

        ``rows()`` builds the output tuples from it and ``count()`` adds
        up the match lists; the residual is left to them, so a pair is
        tested one by one only when there is one.  The loop charges the
        inputs, comparisons, pages and deadline ticks, the same for both.
        """
        raise NotImplementedError

    def _key_functions(self) -> Tuple[Callable[[Row], object], Callable[[Row], object]]:
        """Left/right ``itemgetter`` key extractors.

        The common equi-join has exactly one key pair, whose key is the
        bare value (no 1-tuple allocation per row); several key pairs give
        tuple keys.  Both run in C on the hash-build, probe and sort paths.
        """
        keys = self._keys
        return (
            itemgetter(*[a for a, _ in keys]),
            itemgetter(*[b for _, b in keys]),
        )


class NestedLoopJoinOp(_JoinOp):
    """Naive tuple-at-a-time nested loops with a materialized inner.

    Simulated I/O: when the inner's pages exceed the buffer, each block of
    the outer re-reads the whole inner — the classic block-nested-loops
    charge that makes a big inner behind a small outer expensive, exactly
    the effect the paper's experiment relies on.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicates: Sequence[ComparisonPredicate],
        metrics: ExecutionMetrics,
        outer_row_width: int = 8,
        inner_row_width: int = 8,
        page_size: int = 4096,
        buffer_pages: int = 64,
    ) -> None:
        super().__init__("nested-loops", left, right, predicates, metrics)
        self._outer_row_width = outer_row_width
        self._inner_row_width = inner_row_width
        self._page_size = page_size
        self._buffer_pages = buffer_pages

    def _matches(self) -> Iterator[Tuple[Row, Sequence[Row]]]:
        # Every outer row, with its key matches (every inner row if key-less).
        outer = self._left.rows()
        inner = self._right.rows()
        self._stats.rows_in += len(outer) + len(inner)
        deadline = self._deadline
        label = self._stats.label
        if deadline is not None:
            deadline.check(label)
        # The inner keys are extracted once; each outer row then selects
        # its matches with one C-level compress over an ``eq`` map whose
        # operands are (inner key, outer key), the order of the per-pair
        # comparison this replaces, kept by the truth of each ``eq``.  A
        # key-less join (pure residual/cross) matches every inner row.
        keys = self._keys
        if keys:
            left_key, right_key = self._key_functions()
            inner_keys = list(map(right_key, inner))
        ticks = max(1, len(inner))
        for left_row in outer:
            if deadline is not None:
                # One unit per inner-row comparison this outer row costs.
                deadline.tick(ticks, label)
            if keys:
                yield left_row, list(
                    compress(inner, map(eq, inner_keys, repeat(left_key(left_row))))
                )
            else:
                yield left_row, inner
        self._stats.comparisons += len(outer) * len(inner)
        # Block-nested-loops I/O: the inner is re-read once per buffer-full
        # of the outer beyond the first pass that overlaps the outer's read.
        inner_pages = _pages(len(inner), self._inner_row_width, self._page_size)
        outer_pages = _pages(len(outer), self._outer_row_width, self._page_size)
        if inner_pages > self._buffer_pages and outer:
            passes = math.ceil(outer_pages / max(1, self._buffer_pages - 1))
            self._stats.pages_read += inner_pages * max(0, passes - 1)


class HashJoinOp(_JoinOp):
    """In-memory hash join: build on the right input, probe from the left.

    Requires at least one equi-key.  Included as the modern extension the
    paper's Starburst repertoire did not use; the optimizer only considers
    it when explicitly enabled.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicates: Sequence[ComparisonPredicate],
        metrics: ExecutionMetrics,
    ) -> None:
        super().__init__("hash-join", left, right, predicates, metrics)
        if not self._keys:
            raise ExecutionError("hash join requires at least one equality key")

    def _matches(self) -> Iterator[Tuple[Row, Sequence[Row]]]:
        # Outer rows with a bucket only.  One comparison per probe and one
        # per bucket row, as a per-pair probe loop charges them.
        outer = self._left.rows()
        inner = self._right.rows()
        self._stats.rows_in += len(outer) + len(inner)
        left_key, right_key = self._key_functions()
        deadline = self._deadline
        label = self._stats.label
        if deadline is not None:
            deadline.check(label)
            deadline.tick(len(inner), label)
        table: dict = {}
        for right_row in inner:
            table.setdefault(right_key(right_row), []).append(right_row)
        comparisons = 0
        for left_row in outer:
            if deadline is not None:
                deadline.tick(1, label)
            bucket = table.get(left_key(left_row))
            comparisons += 1
            if bucket is not None:
                comparisons += len(bucket)
                yield left_row, bucket
        self._stats.comparisons += comparisons


class SortMergeJoinOp(_JoinOp):
    """Sort both inputs on the equi-keys, then merge equal-key groups.

    Requires at least one equi-key.  Simulated I/O charges a two-pass
    external sort on each input (write + read of every page) the way the
    cost model does, so measured and estimated costs share a currency.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicates: Sequence[ComparisonPredicate],
        metrics: ExecutionMetrics,
        left_row_width: int = 8,
        right_row_width: int = 8,
        page_size: int = 4096,
    ) -> None:
        super().__init__("sort-merge", left, right, predicates, metrics)
        if not self._keys:
            raise ExecutionError("sort-merge join requires at least one equality key")
        self._left_row_width = left_row_width
        self._right_row_width = right_row_width
        self._page_size = page_size

    def rows(self) -> List[Row]:
        residual = self._residual if self._has_residual else None
        outer, inner, groups = self._merge()
        result: List[Row] = []
        extend = result.extend
        for i, i_end, j, j_end in groups:
            group = inner[j:j_end]
            extend(
                [
                    left_row + right_row
                    for left_row in outer[i:i_end]
                    for right_row in group
                    if residual is None or residual(left_row, right_row)
                ]
            )
        self._stats.rows_out += len(result)
        return result

    def count(self) -> int:
        outer, inner, groups = self._merge()
        total = 0
        if self._has_residual:
            residual = self._residual
            for i, i_end, j, j_end in groups:
                group = inner[j:j_end]
                total += sum(
                    1
                    for left_row in outer[i:i_end]
                    for right_row in group
                    if residual(left_row, right_row)
                )
        else:
            # Index arithmetic only: slicing a group would touch (incref)
            # every row of the run, scattered across memory.
            for i, i_end, j, j_end in groups:
                total += (i_end - i) * (j_end - j)
        self._stats.rows_out += total
        return total

    def _merge(
        self,
    ) -> Tuple[Sequence[Row], Sequence[Row], Iterator[Tuple[int, int, int, int]]]:
        """Both sides sorted, and their equal-key groups as index ranges.

        The groups ``(i, i_end, j, j_end)`` pair ``outer[i:i_end]`` with
        ``inner[j:j_end]`` in merge order; the residual is left to the
        consumer.  The inputs, deadline and sort I/O are charged here,
        the merge's comparisons and ticks as the groups are drawn.
        """
        outer = self._left.rows()
        inner = self._right.rows()
        self._stats.rows_in += len(outer) + len(inner)
        deadline = self._deadline
        if deadline is not None:
            deadline.check(self._stats.label)
            deadline.tick(len(outer) + len(inner), self._stats.label)
        outer_sorted, outer_keys = _sorted_side(
            self._left, outer, [a for a, _ in self._keys]
        )
        inner_sorted, inner_keys = _sorted_side(
            self._right, inner, [b for _, b in self._keys]
        )
        # Simulated external sort: 2 passes (write runs + read merged).
        left_pages = _pages(len(outer), self._left_row_width, self._page_size)
        right_pages = _pages(len(inner), self._right_row_width, self._page_size)
        self._stats.pages_read += 2.0 * (left_pages + right_pages)
        return outer_sorted, inner_sorted, self._groups(outer_keys, inner_keys)

    def _groups(
        self, outer_keys: Sequence[object], inner_keys: Sequence[object]
    ) -> Iterator[Tuple[int, int, int, int]]:
        # Group-at-a-time merge.  Comparisons are charged as a row-at-a-time
        # merge would make them: one per single-row advance (a bisect jump
        # over k smaller keys stands for k advances), one per matched key
        # group, and one per pair of the group's cross product.  The
        # deadline is ticked the same units, per jump or group.
        deadline = self._deadline
        label = self._stats.label
        comparisons = 0
        i = j = 0
        n, m = len(outer_keys), len(inner_keys)
        while i < n and j < m:
            lk = outer_keys[i]
            rk = inner_keys[j]
            if lk < rk:
                end = bisect_left(outer_keys, rk, i)
                step = end - i
                i = end
            elif lk > rk:
                end = bisect_left(inner_keys, lk, j)
                step = end - j
                j = end
            else:
                i_end = bisect_right(outer_keys, lk, i)
                j_end = bisect_right(inner_keys, rk, j)
                yield i, i_end, j, j_end
                comparisons += (i_end - i) * (j_end - j)
                step = 1
                i, j = i_end, j_end
            comparisons += step
            if deadline is not None:
                deadline.tick(step, label)
        self._stats.comparisons += comparisons


def _sorted_side(
    child: Operator, rows: Sequence[Row], positions: List[int]
) -> Tuple[Sequence[Row], Sequence[object]]:
    """One sort-merge input sorted on its key columns, and its key list.

    A single-key side over a bare scan takes the table's cached sorted
    run and key list; the run equals ``sorted(rows, key=...)`` row for
    row because the sort is stable.  Every other side is sorted here.
    """
    if len(positions) == 1:
        cached = child.sorted_run(positions[0])
        if cached is not None:
            return cached
    key = itemgetter(*positions)
    run = sorted(rows, key=key)
    return run, list(map(key, run))
