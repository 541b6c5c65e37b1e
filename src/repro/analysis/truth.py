"""Exact ground-truth join sizes.

The estimators are judged against exact result sizes, never against each
other.  :func:`true_join_size` counts in two ways, both exact:

* **Frequency propagation** (the first path).  Each equivalence class of
  equi-join columns (:mod:`repro.core.equivalence`) is one variable.  Each
  relation, filtered by its local predicates and by the Section 6
  equality of its own j-equivalent columns, is a count table over its
  class values.  When the relation/variable hypergraph is alpha-acyclic,
  ears are eliminated GYO-style: an ear's counts are summed over the
  variables it shares with a covering relation and multiplied into that
  relation, and the last table's total is the count.  This is
  ELS's per-class reasoning carried out over the full frequency vectors
  instead of ``||R||`` and ``d``, and no joined row is ever built.
* **Reference-plan execution** (the fallback, for cyclic hypergraphs and
  non-equi join predicates).  The reference plan built here is
  deliberately independent of the optimizer: scans with all local
  predicates pushed down, then hash joins (nested loops when no equi-key
  exists) in a size-aware greedy order.  Any correct plan yields the same
  count, so the choice only affects how long the ground truth takes.

Both paths give the hash join's equality semantics (the differential
tests check them against the row engine), and :func:`true_join_size`
consults the **ground-truth cache** (:mod:`repro.analysis.truthcache`)
keyed by database fingerprint and canonical query text before either.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import eq, mul
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.equivalence import EquivalenceClasses
from ..errors import ExecutionError
from ..execution.executor import ExecutionResult, Executor, validate_engine
from ..execution.layout import operator_function
from ..optimizer.plans import JoinMethod, JoinPlan, PlanNode, ScanPlan
from ..resilience.deadline import Deadline
from ..sql.predicates import ColumnRef, ComparisonPredicate, Literal, Op
from ..sql.query import Query
from ..storage.database import Database
from .truthcache import DEFAULT_TRUTH_CACHE, TruthCache

__all__ = ["build_reference_plan", "execute_query", "true_join_size"]


def _resolve_deadline(
    timeout_s: Optional[float], deadline: Optional[Deadline]
) -> Optional[Deadline]:
    """An explicit deadline wins; else a fresh one from ``timeout_s``."""
    if deadline is not None:
        return deadline
    if timeout_s is not None:
        return Deadline(timeout_s)
    return None


def _eligible(
    predicates: Sequence[ComparisonPredicate], joined: FrozenSet[str], table: str
) -> Tuple[ComparisonPredicate, ...]:
    result = []
    for predicate in predicates:
        if predicate.is_join and table in predicate.tables:
            if (predicate.tables - {table}) <= joined:
                result.append(predicate)
    return tuple(result)


def _scan(query: Query, database: Database, relation: str) -> ScanPlan:
    base = query.base_table(relation)
    table = database.table(base)
    local = tuple(
        p for p in query.predicates if p.is_local and p.references(relation)
    )
    return ScanPlan(
        relation=relation,
        base_table=base,
        local_predicates=local,
        estimated_rows=float(table.row_count),
        estimated_cost=0.0,
        row_width=table.schema.row_width_bytes,
    )


def _check_order(query: Query, order: Optional[Sequence[str]]) -> None:
    """Raise unless ``order`` is ``None`` or a permutation of the tables.

    Raises:
        ExecutionError: if ``order`` is not a permutation of the query's
            tables.
    """
    relations = list(query.tables)
    if order is not None and sorted(order) != sorted(relations):
        raise ExecutionError(
            f"order {list(order)} is not a permutation of {relations}"
        )


def build_reference_plan(
    query: Query, database: Database, order: Optional[Sequence[str]] = None
) -> PlanNode:
    """A correct left-deep plan for ground-truth execution.

    Args:
        query: The (possibly closure-rewritten) query.
        database: Stored tables.
        order: Explicit join order; default is a greedy order that starts
            from the smallest table and prefers connected extensions, which
            keeps intermediates small on the library's workloads.

    Raises:
        ExecutionError: if ``order`` is not a permutation of the query's
            tables.
    """
    _check_order(query, order)
    if order is not None:
        sequence = list(order)
    else:
        sequence = _greedy_order(query, database)

    plan: PlanNode = _scan(query, database, sequence[0])
    joined = frozenset((sequence[0],))
    for relation in sequence[1:]:
        eligible = _eligible(query.predicates, joined, relation)
        has_equi = any(p.op is Op.EQ for p in eligible)
        method = JoinMethod.HASH if has_equi else JoinMethod.NESTED_LOOPS
        right = _scan(query, database, relation)
        plan = JoinPlan(
            left=plan,
            right=right,
            method=method,
            predicates=eligible,
            estimated_rows=0.0,
            estimated_cost=0.0,
            row_width=plan.row_width + right.row_width,
        )
        joined = joined | {relation}
    return plan


def _greedy_order(query: Query, database: Database) -> List[str]:
    """Smallest-table-first order preferring connected extensions."""
    sizes = {
        relation: database.table(query.base_table(relation)).row_count
        for relation in query.tables
    }
    rank = lambda r: (sizes[r], r)
    remaining = sorted(query.tables, key=rank)
    order = [remaining.pop(0)]
    joined = frozenset(order)
    while remaining:
        connected = [
            r for r in remaining if _eligible(query.predicates, joined, r)
        ]
        pool = connected or remaining
        chosen = min(pool, key=rank)
        remaining.remove(chosen)
        order.append(chosen)
        joined = joined | {chosen}
    return order


def _compress_all(
    columns: Mapping[Hashable, Sequence[object]], mask: Sequence[bool]
) -> Dict[Hashable, Sequence[object]]:
    """Keep the rows ``mask`` selects in every column."""
    return {name: list(compress(column, mask)) for name, column in columns.items()}


class _CountTable:
    """One relation's counts over its class variables, kept row-aligned.

    ``columns`` holds, per class variable, the value of every live row
    (after local predicates and the Section 6 filter); ``weights`` holds
    each row's multiplicity, ``None`` while every row weighs one.  A
    row-aligned table absorbs a neighbour's marginal with C-level ``map``
    passes over its rows, however many distinct keys it has, so the
    largest relation is never grouped by key in Python.
    """

    __slots__ = ("columns", "weights", "rows")

    def __init__(self, columns: Dict[int, Sequence[object]], rows: int) -> None:
        self.columns = columns
        self.weights: Optional[List[int]] = None
        self.rows = rows

    def keys(self, shared: Tuple[int, ...]) -> Sequence[Hashable]:
        """Each row's values of the ``shared`` variables.

        One value per row for a single variable, else a tuple per row in
        variable order; a marginal and the table absorbing it agree.
        """
        if len(shared) == 1:
            return self.columns[shared[0]]
        return list(zip(*[self.columns[v] for v in shared]))

    def total(self) -> int:
        """The table's count: its number of rows, weighted."""
        return self.rows if self.weights is None else sum(self.weights)

    def keep(self, mask: Sequence[bool]) -> None:
        """Drop the rows ``mask`` rejects (the table has a variable)."""
        self.columns = _compress_all(self.columns, mask)
        if self.weights is not None:
            self.weights = list(compress(self.weights, mask))
        self.rows = len(next(iter(self.columns.values())))

    def marginal(
        self, shared: Tuple[int, ...], parent: "_CountTable"
    ) -> Mapping[Hashable, int]:
        """Positive counts summed over every variable outside ``shared``.

        When ``parent`` has fewer rows, rows whose key it lacks are
        dropped first (a semi-join): one set probe per row is cheaper
        than counting a key no parent row will look up.
        """
        if parent.rows < self.rows:
            wanted = set(parent.keys(shared))
            self.keep(list(map(wanted.__contains__, self.keys(shared))))
        keys = self.keys(shared)
        if self.weights is None:
            return Counter(keys)
        sums: Dict[Hashable, int] = {}
        for (key, weight), times in Counter(zip(keys, self.weights)).items():
            sums[key] = sums.get(key, 0) + weight * times
        return sums

    def absorb(self, shared: Tuple[int, ...], marginal: Mapping[Hashable, int]) -> None:
        """Multiply every row's weight by the marginal at its values.

        Rows whose key the marginal lacks would weigh zero; they are
        dropped first, so every weight stays positive and later passes
        touch only rows that still join.
        """
        live = list(map(marginal.__contains__, self.keys(shared)))
        if not all(live):
            self.keep(live)
        factors = map(marginal.__getitem__, self.keys(shared))
        if self.weights is None:
            self.weights = list(factors)
        else:
            self.weights = list(map(mul, self.weights, factors))


def _count_table(
    query: Query,
    database: Database,
    relation: str,
    variables: Mapping[ColumnRef, int],
) -> Optional[_CountTable]:
    """The relation's count table, or ``None`` when a column is unknown.

    Local predicates run one ``compress`` pass each, in query order, with
    the engines' operator functions, so they keep exactly the rows (and
    raise exactly where) a filter over the reference plan's scan would.
    Columns of the relation that share a class must be equal (Section 6);
    they are compared as 1-tuples, which matches the hash join's key
    equality (identical objects match even when unequal to themselves).
    """
    table = database.table(query.base_table(relation))
    position = {name: i for i, name in enumerate(table.schema.column_names)}
    local = [p for p in query.predicates if p.is_local and p.references(relation)]
    groups: Dict[int, List[str]] = {}
    for column in sorted(c for c in variables if c.table == relation):
        groups.setdefault(variables[column], []).append(column.column)
    needed = {name for names in groups.values() for name in names}
    needed.update(c.column for p in local for c in p.columns)
    if not needed <= position.keys():
        return None
    stored = table.columns()
    data = {name: stored[position[name]] for name in needed}
    for predicate in local:
        func = operator_function(predicate.op)
        left = data[predicate.left.column]
        right = predicate.right
        if isinstance(right, Literal):
            data = _compress_all(data, list(map(func, left, repeat(right.value))))
        else:
            data = _compress_all(data, list(map(func, left, data[right.column])))
    for first, *others in groups.values():
        for other in others:
            mask = list(map(eq, zip(data[first]), zip(data[other])))
            data = _compress_all(data, mask)
    rows = len(next(iter(data.values()))) if data else table.row_count
    return _CountTable({v: data[names[0]] for v, names in groups.items()}, rows)


#: One GYO elimination: the ear, the relation that covers its shared
#: variables (``None`` when it shares none), and those variables.
_Step = Tuple[str, Optional[str], Tuple[int, ...]]


def _find_ear(
    remaining: Mapping[str, FrozenSet[int]],
    rows: Mapping[str, int],
    root: Optional[str],
) -> Optional[_Step]:
    """An ear of the hypergraph other than ``root``, or ``None`` (cyclic).

    Small ears go first and the parent is ``root`` when it covers the
    ear, else the largest covering relation, so the big relations absorb
    marginals instead of being counted.
    """
    ranked = sorted((rows[name], name) for name in remaining if name != root)
    parents = sorted((name != root, -rows[name], name) for name in remaining)
    for _, ear in ranked:
        others = frozenset().union(*(v for n, v in remaining.items() if n != ear))
        shared = remaining[ear] & others
        if not shared:
            return ear, None, ()
        for _, _, parent in parents:
            if parent != ear and shared <= remaining[parent]:
                return ear, parent, tuple(sorted(shared))
    return None


def _acyclic(variables_of: Mapping[str, FrozenSet[int]]) -> bool:
    """Whether GYO reduction leaves a single relation (alpha-acyclicity).

    Ears may be removed in any order, so a successful reduction here
    means every later one, whatever its root and row counts, succeeds.
    """
    remaining = dict(variables_of)
    rows = dict.fromkeys(remaining, 0)
    while len(remaining) > 1:
        step = _find_ear(remaining, rows, None)
        if step is None:
            return False
        del remaining[step[0]]
    return True


def _exact_join_size(
    query: Query, database: Database, deadline: Optional[Deadline]
) -> Optional[int]:
    """The join's exact count by frequency propagation, or ``None``.

    ``None`` (the caller falls back to the reference plan) for a non-equi
    join predicate, a cyclic relation/variable hypergraph, or a relation
    or column the database does not hold.  The relation with the most
    rows is the root that absorbs the others.  Counts are Python integers
    throughout, so they never overflow.

    Raises:
        DeadlineExceededError: when ``deadline`` is spent; it is checked on
            entry, once per relation and once per elimination.
    """
    if deadline is not None:
        deadline.check("exact-count")
    joins = query.join_predicates
    if not query.tables or any(p.op is not Op.EQ for p in joins):
        return None
    if any(query.base_table(r) not in database for r in query.tables):
        return None
    classes = EquivalenceClasses.from_predicates(joins).classes()
    variables = {column: v for v, members in enumerate(classes) for column in members}
    remaining = {
        r: frozenset(v for c, v in variables.items() if c.table == r)
        for r in query.tables
    }
    if not _acyclic(remaining):
        return None
    tables: Dict[str, _CountTable] = {}
    for relation in query.tables:
        if deadline is not None:
            deadline.check(f"count({relation})")
        counted = _count_table(query, database, relation, variables)
        if counted is None:
            return None
        tables[relation] = counted
    root = max((table.rows, name) for name, table in tables.items())[1]
    scalar = 1
    while len(remaining) > 1:
        rows = {name: table.rows for name, table in tables.items()}
        ear, parent, shared = _find_ear(remaining, rows, root)
        if deadline is not None:
            deadline.check(f"eliminate({ear})")
        del remaining[ear]
        table = tables.pop(ear)
        if parent is None:
            scalar *= table.total()
        else:
            tables[parent].absorb(shared, table.marginal(shared, tables[parent]))
    return scalar * tables[root].total()


def execute_query(
    query: Query,
    database: Database,
    order: Optional[Sequence[str]] = None,
    engine: str = "columnar",
    timeout_s: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    morsel_workers: Optional[int] = None,
) -> ExecutionResult:
    """Execute a query via the reference plan, honoring its projection.

    Args:
        query: The query to execute.
        database: Stored tables.
        order: Explicit join order for the reference plan.
        engine: Execution engine (``"row"``, ``"columnar"``, or
            ``"parallel"``).
        timeout_s: Optional wall-clock budget; the executors check it
            cooperatively and raise
            :class:`~repro.errors.DeadlineExceededError` when spent.
        deadline: An already-running :class:`Deadline` to honor instead
            (wins over ``timeout_s``; lets callers share one budget across
            several executions).
        morsel_workers: Fan-out width for the ``"parallel"`` engine
            (``None`` means one per CPU); ignored by the other engines.
    """
    plan = build_reference_plan(query, database, order)
    executor = Executor(
        database,
        engine=engine,
        deadline=_resolve_deadline(timeout_s, deadline),
        morsel_workers=morsel_workers,
    )
    return executor.execute(plan, query.projection)


def true_join_size(
    query: Query,
    database: Database,
    order: Optional[Sequence[str]] = None,
    engine: str = "columnar",
    cache: Optional[TruthCache] = DEFAULT_TRUTH_CACHE,
    timeout_s: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    morsel_workers: Optional[int] = None,
) -> int:
    """The exact result cardinality of the query's join.

    Counts by frequency propagation over the join's equivalence classes
    when the query is an alpha-acyclic equi-join, and otherwise (cyclic
    hypergraph, non-equi join predicate) by executing the reference plan.

    Args:
        query: The query whose join size to count.
        database: Stored tables.
        order: Join order for the reference-plan fallback (does not affect
            the count, only execution time); validated on either path.
        engine: Execution engine for the reference-plan fallback only
            (``"row"``, ``"columnar"`` or ``"parallel"``); validated on
            either path.  Columnar is faster than row on the fallback's
            hash joins.
        cache: Ground-truth cache to consult and fill; defaults to the
            process-wide :data:`~repro.analysis.truthcache.DEFAULT_TRUTH_CACHE`.
            Pass ``None`` to force counting.
        timeout_s: Optional wall-clock budget for the count; cache hits
            never consume it.  When spent, the run aborts with
            :class:`~repro.errors.DeadlineExceededError`.
        deadline: An already-running :class:`Deadline` to honor instead
            (wins over ``timeout_s``).
        morsel_workers: Fan-out width for the ``"parallel"`` engine
            (``None`` means one per CPU); ignored by the other engines
            and deliberately absent from the cache key — worker count
            never changes the count, only how fast it is computed.
    """
    if cache is not None:
        cached = cache.get(database, query)
        if cached is not None:
            return cached
    validate_engine(engine)
    _check_order(query, order)
    budget = _resolve_deadline(timeout_s, deadline)
    count = _exact_join_size(query, database, budget)
    if count is None:
        plan = build_reference_plan(query, database, order)
        executor = Executor(
            database, engine=engine, deadline=budget, morsel_workers=morsel_workers
        )
        count = executor.count(plan).count
    if cache is not None:
        cache.put(database, query, count)
    return int(count)
