"""Differential tests of the exact frequency-propagation counter.

``true_join_size`` counts alpha-acyclic equi-joins without building a
joined row: per equivalence class of join columns, it multiplies per-value
counts and eliminates ears GYO-style.  Every test here checks that count
against the row engine executing the reference plan, on generated
databases and queries: chains, stars, snowflakes, composite two-column
joins, constant and column-to-column local predicates with all six
operators, Section 6 j-equivalent columns, implied and duplicate
predicates, empty tables, disconnected relations, and string, float and
mixed ``1``/``1.0``/``True`` keys.  Cyclic and non-equi queries must be
declined by the counter and still counted right through the fallback.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_reference_plan, true_join_size
from repro.analysis.truth import _exact_join_size
from repro.catalog.schema import TableSchema
from repro.core.equivalence import EquivalenceClasses
from repro.errors import ExecutionError
from repro.execution import Executor
from repro.sql import ColumnRef, ComparisonPredicate, Literal, Op, Projection, Query
from repro.storage import Database
from repro.workloads import (
    build_database,
    chain_workload,
    cycle_workload,
    snowflake_workload,
    star_workload,
)

COLUMNS = ("a", "b", "c")

#: Per-table value pools; "mixed" holds numerically equal keys of three
#: types, which the hash join (and so the counter) treats as one key.
KINDS = {
    "int": (0, 1, 2, 3),
    "float": (0.0, 0.5, 1.0, 2.0),
    "str": ("a", "b", "c"),
    "mixed": (0, 1, 1.0, True, False, 2, 2.0, 0.0),
}

#: Kinds one example's tables draw from: numbers that join with each
#: other, strings, or all four (so numbers meet strings and never match).
FAMILIES = (("int", "float", "mixed"), ("str",), tuple(sorted(KINDS)))

#: Row counts per table; empty tables are one choice in five.
ROW_COUNTS = (4, 6, 8, 2, 0)

ALL_OPS = tuple(Op)


def row_engine_count(query, database):
    plan = build_reference_plan(query, database)
    return Executor(database, engine="row").count(plan).count


def eq(left, right):
    return ComparisonPredicate(left, Op.EQ, right)


@st.composite
def databases(draw, relations):
    """Tables ``T0..`` with three columns each, values from one kind."""
    database = Database()
    kinds = {}
    family = draw(st.sampled_from(FAMILIES))
    for index in range(relations):
        name = f"T{index}"
        kind = draw(st.sampled_from(family))
        rows = draw(st.sampled_from(ROW_COUNTS))
        pool = st.sampled_from(KINDS[kind])
        columns = {
            c: draw(st.lists(pool, min_size=rows, max_size=rows)) for c in COLUMNS
        }
        database.load_columns(TableSchema.of(name, *COLUMNS), columns)
        kinds[name] = kind
    return database, kinds


@st.composite
def local_predicates(draw, names, kinds):
    """Constant and column-to-column local predicates, any operator."""
    predicates = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        table = draw(st.sampled_from(names))
        left = ColumnRef(table, draw(st.sampled_from(COLUMNS)))
        op = draw(st.sampled_from(ALL_OPS))
        if draw(st.booleans()):
            right = Literal(draw(st.sampled_from(KINDS[kinds[table]])))
        else:
            right = ColumnRef(table, draw(st.sampled_from(COLUMNS)))
        predicates.append(ComparisonPredicate(left, op, right))
    return predicates


@st.composite
def acyclic_queries(draw):
    """A join tree (chain, star or snowflake) plus local predicates.

    Each tree edge joins on one column, on two columns (a composite key),
    or puts two columns of the child in one class (Section 6).  A
    relation may stay disconnected (a cartesian factor).  Classes only
    grow along tree edges, so the hypergraph is alpha-acyclic even after
    an implied predicate links two members of one class.
    """
    relations = draw(st.integers(min_value=1, max_value=5))
    database, kinds = draw(databases(relations))
    names = [f"T{i}" for i in range(relations)]
    predicates = []
    for index in range(1, relations):
        child, parent = names[index], names[draw(st.integers(0, index - 1))]
        shape = draw(st.sampled_from(("single", "composite", "section6", "none")))
        if shape == "none":
            continue
        x, z = draw(st.permutations(COLUMNS))[:2]
        y, w = draw(st.permutations(COLUMNS))[:2]
        predicates.append(eq(ColumnRef(child, x), ColumnRef(parent, y)))
        if shape == "composite":
            predicates.append(eq(ColumnRef(child, z), ColumnRef(parent, w)))
        elif shape == "section6":
            predicates.append(eq(ColumnRef(child, z), ColumnRef(parent, y)))
    if predicates and draw(st.booleans()):
        # An implied predicate: two columns of one class, different tables.
        members = draw(
            st.sampled_from(EquivalenceClasses.from_predicates(predicates).classes())
        )
        left, right = draw(st.permutations(sorted(members)))[:2]
        if left.table != right.table:
            predicates.append(eq(left, right))
    predicates += draw(local_predicates(names, kinds))
    if predicates and draw(st.booleans()):
        # A duplicate, as written or with its operands swapped.
        twin = draw(st.sampled_from(predicates))
        if isinstance(twin.right, ColumnRef) and draw(st.booleans()):
            twin = ComparisonPredicate(twin.right, twin.op.flipped, twin.left)
        predicates.append(twin)
    order = draw(st.permutations(predicates))
    return database, Query(tuple(names), tuple(order), Projection(count_star=True))


@st.composite
def any_queries(draw):
    """Random graphs: extra edges may close cycles or compare with <>.

    ``<>`` never raises across value kinds, unlike ``<`` on ``str``/``int``.
    """
    database, query = draw(acyclic_queries())
    names = list(query.tables)
    extra = []
    if len(names) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            left, right = draw(st.permutations(names))[:2]
            op = draw(st.sampled_from((Op.EQ, Op.EQ, Op.NE)))
            extra.append(
                ComparisonPredicate(
                    ColumnRef(left, draw(st.sampled_from(COLUMNS))),
                    op,
                    ColumnRef(right, draw(st.sampled_from(COLUMNS))),
                )
            )
    predicates = query.predicates + tuple(extra)
    return database, Query(query.tables, predicates, Projection(count_star=True))


class TestExactPathAgainstRowEngine:
    @given(case=acyclic_queries())
    @settings(max_examples=300, deadline=None)
    def test_acyclic_equi_joins_are_counted_exactly(self, case):
        database, query = case
        expected = row_engine_count(query, database)
        assert _exact_join_size(query, database, None) == expected
        assert true_join_size(query, database, cache=None) == expected

    @given(case=any_queries())
    @settings(max_examples=200, deadline=None)
    def test_counter_is_exact_or_declines(self, case):
        database, query = case
        expected = row_engine_count(query, database)
        assert _exact_join_size(query, database, None) in (None, expected)
        assert true_join_size(query, database, cache=None, engine="row") == expected

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: chain_workload(4, rng, 200, 600),
            lambda rng: cycle_workload(5, rng, 200, 600),
            lambda rng: star_workload(4, rng, (500, 900), (50, 200)),
            lambda rng: snowflake_workload(2, 2, rng, (500, 900)),
        ],
        ids=["chain", "cycle", "star", "snowflake"],
    )
    def test_generated_workloads(self, make):
        workload = make(random.Random(7))
        database = build_database(workload.specs, seed=7)
        expected = row_engine_count(workload.query, database)
        assert _exact_join_size(workload.query, database, None) == expected


def _triangle_database():
    database = Database()
    rng = random.Random(3)
    for name in ("R", "S", "T"):
        columns = {c: [rng.randrange(3) for _ in range(12)] for c in ("a", "b")}
        database.load_columns(TableSchema.of(name, "a", "b"), columns)
    return database


class TestFallback:
    def test_three_class_triangle_is_declined(self):
        database = _triangle_database()
        query = Query(
            ("R", "S", "T"),
            (
                eq(ColumnRef("R", "b"), ColumnRef("S", "a")),
                eq(ColumnRef("S", "b"), ColumnRef("T", "a")),
                eq(ColumnRef("T", "b"), ColumnRef("R", "a")),
            ),
            Projection(count_star=True),
        )
        expected = row_engine_count(query, database)
        assert expected > 0
        assert _exact_join_size(query, database, None) is None
        assert true_join_size(query, database, cache=None, engine="row") == expected
        assert true_join_size(query, database, cache=None) == expected

    def test_one_class_cycle_is_counted(self):
        database = _triangle_database()
        query = Query(
            ("R", "S", "T"),
            (
                eq(ColumnRef("R", "a"), ColumnRef("S", "a")),
                eq(ColumnRef("S", "a"), ColumnRef("T", "a")),
                eq(ColumnRef("T", "a"), ColumnRef("R", "a")),
            ),
            Projection(count_star=True),
        )
        assert _exact_join_size(query, database, None) == row_engine_count(
            query, database
        )

    def test_non_equi_join_is_declined(self):
        database = _triangle_database()
        query = Query(
            ("R", "S"),
            (ComparisonPredicate(ColumnRef("R", "a"), Op.LT, ColumnRef("S", "b")),),
            Projection(count_star=True),
        )
        expected = row_engine_count(query, database)
        assert expected > 0
        assert _exact_join_size(query, database, None) is None
        assert true_join_size(query, database, cache=None, engine="row") == expected

    def test_unknown_column_is_declined_and_fails_in_the_engine(self):
        database = _triangle_database()
        query = Query(
            ("R", "S"),
            (eq(ColumnRef("R", "zz"), ColumnRef("S", "a")),),
            Projection(count_star=True),
        )
        assert _exact_join_size(query, database, None) is None
        with pytest.raises(ExecutionError):
            true_join_size(query, database, cache=None)


class TestExactCounts:
    def test_counts_are_exact_python_integers(self):
        """A 2^70-row result stays exact: no float or int64 anywhere."""
        database = Database()
        names = [f"R{i}" for i in range(7)]
        for name in names:
            database.load_columns(TableSchema.of(name, "k"), {"k": [1] * 1024})
        predicates = tuple(
            eq(ColumnRef(names[i], "k"), ColumnRef(names[i + 1], "k"))
            for i in range(len(names) - 1)
        )
        query = Query(tuple(names), predicates, Projection(count_star=True))
        count = true_join_size(query, database, cache=None)
        assert count == 1024**7 == 2**70
        assert type(count) is int

    def test_nan_keys_follow_the_hash_join(self):
        """An identical NaN object matches itself in the hash join's dict."""
        nan = float("nan")
        database = Database()
        database.load_columns(
            TableSchema.of("R", "a", "b"), {"a": [nan, 1.0], "b": [nan, 1.0]}
        )
        database.load_columns(
            TableSchema.of("S", "x"), {"x": [nan, 1.0, float("nan")]}
        )
        query = Query(
            ("R", "S"),
            (
                eq(ColumnRef("R", "a"), ColumnRef("S", "x")),
                eq(ColumnRef("R", "b"), ColumnRef("S", "x")),
            ),
            Projection(count_star=True),
        )
        expected = row_engine_count(query, database)
        assert _exact_join_size(query, database, None) == expected
