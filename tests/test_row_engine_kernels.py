"""Row-engine join and filter kernels against brute-force references.

The sort-merge reference below is the row-at-a-time merge loop the
group-at-a-time kernel replaced, kept here as the oracle for its output
order, its ``comparisons`` charge and its deadline tick total.  Nested
loops and filters are checked against plain double loops and
short-circuiting conjunctions.  Every join runs both over plain row lists
and over table-backed scans, which hand sort-merge the table's cached
sorted run.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import TableSchema
from repro.errors import DeadlineExceededError
from repro.execution import (
    ExecutionMetrics,
    FilterOp,
    NestedLoopJoinOp,
    SortMergeJoinOp,
    TableScanOp,
)
from repro.resilience import Deadline
from repro.sql import ColumnRef, ComparisonPredicate, Op, join_predicate, local_predicate
from repro.storage import Table

from .test_row_engine_golden import CountingDeadline

COLUMNS = ("k", "g", "v")
K, G, V = range(3)

ROWS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 9)), max_size=14
)

#: name -> (join predicates, key positions, residual over (left, right)).
CONDITIONS = {
    "single": ([join_predicate("L", "k", "R", "k")], (K,), None),
    "multi": (
        [join_predicate("L", "k", "R", "k"), join_predicate("L", "g", "R", "g")],
        (K, G),
        None,
    ),
    "residual": (
        [join_predicate("L", "k", "R", "k"), join_predicate("L", "v", "R", "v", Op.LT)],
        (K,),
        lambda l, r: l[V] < r[V],
    ),
    "literal": (
        [join_predicate("L", "k", "R", "k"), local_predicate("R", "v", Op.GE, 4)],
        (K,),
        lambda l, r: r[V] >= 4,
    ),
    "multi-residual": (
        [
            join_predicate("L", "g", "R", "g"),
            join_predicate("L", "k", "R", "k"),
            join_predicate("L", "v", "R", "v", Op.GE),
        ],
        (G, K),
        lambda l, r: l[V] >= r[V],
    ),
}

KEYLESS = {
    "cross": ([], None),
    "non-equi": ([join_predicate("L", "v", "R", "v", Op.LT)], lambda l, r: l[V] < r[V]),
}


def make_table(name, rows):
    table = Table(TableSchema.of(name, *COLUMNS))
    table.extend(rows)
    return table


def make_scan(name, rows, metrics, backed):
    if backed:
        table = make_table(name, rows)
        return TableScanOp(name, COLUMNS, table.scan(), metrics, table=table)
    return TableScanOp(name, COLUMNS, list(rows), metrics)


def key_of(positions):
    if len(positions) == 1:
        (p,) = positions
        return lambda row: row[p]
    return lambda row: tuple(row[p] for p in positions)


def reference_merge(outer, inner, positions, residual):
    """The row-at-a-time merge: (rows, comparisons, merge-loop ticks)."""
    key = key_of(positions)
    residual = residual or (lambda l, r: True)
    outer_sorted = sorted(outer, key=key)
    inner_sorted = sorted(inner, key=key)
    result, comparisons, ticks = [], 0, 0
    i = j = 0
    n, m = len(outer_sorted), len(inner_sorted)
    while i < n and j < m:
        ticks += 1
        lk = key(outer_sorted[i])
        rk = key(inner_sorted[j])
        comparisons += 1
        if lk < rk:
            i += 1
        elif lk > rk:
            j += 1
        else:
            i_end = i
            while i_end < n and key(outer_sorted[i_end]) == lk:
                i_end += 1
            j_end = j
            while j_end < m and key(inner_sorted[j_end]) == rk:
                j_end += 1
            for left_row in outer_sorted[i:i_end]:
                for right_row in inner_sorted[j:j_end]:
                    comparisons += 1
                    if residual(left_row, right_row):
                        result.append(left_row + right_row)
            i, j = i_end, j_end
    return result, comparisons, ticks


def reference_nested_loops(outer, inner, positions, residual):
    key = key_of(positions) if positions else (lambda row: None)
    residual = residual or (lambda l, r: True)
    return [
        l + r for l in outer for r in inner if key(r) == key(l) and residual(l, r)
    ]


def run_join(join_class, outer, inner, predicates, backed):
    deadline = CountingDeadline()
    metrics = ExecutionMetrics(deadline=deadline)
    op = join_class(
        make_scan("L", outer, metrics, backed),
        make_scan("R", inner, metrics, backed),
        predicates,
        metrics,
    )
    return op.rows(), op.stats, deadline.units


@settings(max_examples=150, deadline=None)
@given(ROWS, ROWS, st.sampled_from(sorted(CONDITIONS)), st.booleans())
def test_sort_merge_matches_row_at_a_time_merge(outer, inner, name, backed):
    predicates, positions, residual = CONDITIONS[name]
    rows, stats, ticks = run_join(SortMergeJoinOp, outer, inner, predicates, backed)
    expected, comparisons, merge_ticks = reference_merge(
        outer, inner, positions, residual
    )
    assert rows == expected
    assert stats.comparisons == comparisons
    assert stats.rows_out == len(expected)
    assert stats.rows_in == len(outer) + len(inner)
    # Two scans, the sort-merge's up-front tick, then the merge loop.
    assert ticks == 2 * (len(outer) + len(inner)) + merge_ticks


@settings(max_examples=150, deadline=None)
@given(
    ROWS,
    ROWS,
    st.sampled_from(sorted(CONDITIONS) + sorted(KEYLESS)),
    st.booleans(),
)
def test_nested_loops_matches_double_loop(outer, inner, name, backed):
    if name in KEYLESS:
        predicates, residual = KEYLESS[name]
        positions = ()
    else:
        predicates, positions, residual = CONDITIONS[name]
    rows, stats, ticks = run_join(NestedLoopJoinOp, outer, inner, predicates, backed)
    assert rows == reference_nested_loops(outer, inner, positions, residual)
    assert stats.comparisons == len(outer) * len(inner)
    assert ticks == len(outer) + len(inner) + len(outer) * max(1, len(inner))


FUNCS = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}

PREDICATES = st.one_of(
    st.tuples(st.sampled_from(COLUMNS), st.sampled_from(list(Op)), st.integers(0, 9)),
    st.tuples(st.sampled_from(COLUMNS), st.sampled_from(list(Op)), st.sampled_from(COLUMNS)),
)


def filter_predicate(spec):
    column, op, operand = spec
    if isinstance(operand, int):
        return local_predicate("R", column, op, operand)
    return ComparisonPredicate(ColumnRef("R", column), op, ColumnRef("R", operand))


@settings(max_examples=150, deadline=None)
@given(ROWS, st.lists(PREDICATES, max_size=4))
def test_filter_matches_short_circuit_conjunction(rows, specs):
    metrics = ExecutionMetrics()
    op = FilterOp(
        make_scan("R", rows, metrics, False),
        [filter_predicate(spec) for spec in specs],
        metrics,
    )

    def keep(row):
        for column, op_, operand in specs:
            right = operand if isinstance(operand, int) else row[COLUMNS.index(operand)]
            if not FUNCS[op_](row[COLUMNS.index(column)], right):
                return False
        return True

    expected = [row for row in rows if keep(row)]
    assert op.rows() == expected
    assert op.stats.comparisons == len(rows) * max(1, len(specs))
    assert op.stats.rows_out == len(expected)


def test_filter_stops_at_the_first_false_predicate():
    """Later predicates never see a row an earlier one rejected."""
    metrics = ExecutionMetrics()
    rows = [(1, 0, 5), (0, 0, None)]
    op = FilterOp(
        make_scan("R", rows, metrics, False),
        [local_predicate("R", "k", Op.EQ, 1), local_predicate("R", "v", Op.LT, 9)],
        metrics,
    )
    assert op.rows() == [(1, 0, 5)]


class RecordingKey:
    """A key value that records which side's ``__eq__`` ran."""

    def __init__(self, side, value, calls):
        self.side, self.value, self.calls = side, value, calls

    def __eq__(self, other):
        self.calls.append(self.side)
        return self.value == other.value

    __hash__ = None


def test_nested_loops_compares_inner_key_first():
    """``inner_key == outer_key``, the per-pair comparison's operand order."""
    calls = []
    metrics = ExecutionMetrics()
    outer = [(RecordingKey("outer", v, calls), 0, 0) for v in (1, 2)]
    inner = [(RecordingKey("inner", v, calls), 0, 0) for v in (2, 1, 2)]
    op = NestedLoopJoinOp(
        make_scan("L", outer, metrics, False),
        make_scan("R", inner, metrics, False),
        [join_predicate("L", "k", "R", "k")],
        metrics,
    )
    assert [(row[0].value, row[3].value) for row in op.rows()] == [
        (1, 1),
        (2, 2),
        (2, 2),
    ]
    assert calls == ["inner"] * 6


def expiring_deadline():
    """A deadline whose clock advances one second per read (budget 6 s)."""
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return Deadline(6.0, clock=clock, tick_interval=1)


@pytest.mark.parametrize(
    "join_class,label",
    [(SortMergeJoinOp, "sort-merge"), (NestedLoopJoinOp, "nested-loops")],
)
def test_expired_deadline_aborts_the_join(join_class, label):
    metrics = ExecutionMetrics(deadline=expiring_deadline())
    rows = [(i % 7, 0, i) for i in range(200)]
    op = join_class(
        make_scan("L", rows, metrics, True),
        make_scan("R", rows, metrics, True),
        [join_predicate("L", "k", "R", "k")],
        metrics,
    )
    with pytest.raises(DeadlineExceededError) as info:
        op.rows()
    assert info.value.label == label


class TestSortedRunCache:
    def test_run_is_a_stable_sort_and_cached(self):
        table = make_table("R", [(3, 0, 1), (1, 0, 2), (3, 0, 3), (1, 0, 4)])
        run = table.sorted_rows("k")
        assert run == ((1, 0, 2), (1, 0, 4), (3, 0, 1), (3, 0, 3))
        assert isinstance(run, tuple)
        assert table.sorted_rows("k") is run

    def test_append_rebuilds_the_run(self):
        table = make_table("R", [(3, 0, 1), (1, 0, 2)])
        before = table.sorted_rows("k")
        table.append((2, 0, 9))
        after = table.sorted_rows("k")
        assert after == ((1, 0, 2), (2, 0, 9), (3, 0, 1))
        assert before == ((1, 0, 2), (3, 0, 1))

    def test_only_a_materialized_table_scan_hands_out_the_run(self):
        metrics = ExecutionMetrics()
        rows = [(2, 0, 0), (1, 0, 0)]
        backed = make_scan("R", rows, metrics, True)
        assert backed.sorted_run(K) is None  # not scanned yet
        backed.rows()
        assert backed.sorted_run(K) == ((1, 0, 0), (2, 0, 0))
        plain = make_scan("S", rows, metrics, False)
        plain.rows()
        assert plain.sorted_run(K) is None
        filtered = FilterOp(backed, [local_predicate("R", "k", Op.GT, 1)], metrics)
        assert filtered.sorted_run(K) is None

    def test_sort_merge_uses_the_run_of_a_bare_scan(self, monkeypatch):
        calls = []
        real = Table.sorted_rows

        def spy(self, column):
            calls.append((self.name, column))
            return real(self, column)

        monkeypatch.setattr(Table, "sorted_rows", spy)
        rows = [(i % 5, i % 2, i) for i in range(20)]
        single, _, _ = run_join(
            SortMergeJoinOp, rows, rows, CONDITIONS["single"][0], True
        )
        assert sorted(calls) == [("L", "k"), ("R", "k")]
        calls.clear()
        multi, _, _ = run_join(SortMergeJoinOp, rows, rows, CONDITIONS["multi"][0], True)
        assert calls == []  # multi-key sides sort per query
        assert single == reference_merge(rows, rows, (K,), None)[0]
