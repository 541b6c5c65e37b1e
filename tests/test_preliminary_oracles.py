"""Oracles for the indexed preliminary phase.

``EquivalenceClasses`` answers its partition queries from an index built
lazily and dropped by every ``add`` or ``union`` that changes the
partition; ``transitive_closure`` pairs equalities through a column index
and, after its first pass, only pairs involving a new equality.  Both must
answer exactly as the plain algorithms they replaced, which this file
keeps as references:

* a naive partition (a list of sets) checked after every step of
  hypothesis-generated interleavings of ``add``, ``union`` and queries, so
  a query that reads an index a mutation should have dropped fails;
* the all-pairs fixpoint that rescans every pair of equalities on every
  pass, checked on generated chains, cycles, cliques, same-table
  equalities, constants and non-equalities: the same ``predicates`` and
  ``implied`` (rule and sources), in the same order.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EquivalenceClasses
from repro.core.closure import (
    ClosureRule,
    ImpliedPredicate,
    _classify_equality_derivation,
    _other_column,
    _shared_column,
    transitive_closure,
)
from repro.sql import ColumnRef, Op, join_predicate, local_predicate
from repro.sql.predicates import ComparisonPredicate, Literal, PredicateKind
from repro.sql.query import dedupe_predicates

TABLES = ("R", "S", "T", "U")
COLUMNS = tuple(ColumnRef(t, c) for t in TABLES for c in ("a", "b", "c"))


class _NaivePartition:
    """The partition as a list of disjoint sets, merged by rescanning.

    ``order`` keeps the columns in registration order: ``members`` builds
    its frozenset in that order, as ``EquivalenceClasses`` does, so both
    iterate alike (rule e of the closure iterates it).
    """

    def __init__(self) -> None:
        self.groups: List[Set[ColumnRef]] = []
        self.order: List[ColumnRef] = []

    def group(self, column: ColumnRef) -> Optional[Set[ColumnRef]]:
        for group in self.groups:
            if column in group:
                return group
        return None

    def add(self, column: ColumnRef) -> None:
        if self.group(column) is None:
            self.groups.append({column})
            self.order.append(column)

    def union(self, a: ColumnRef, b: ColumnRef) -> None:
        self.add(a)
        self.add(b)
        first, second = self.group(a), self.group(b)
        if first is not second:
            first |= second
            self.groups = [g for g in self.groups if g is not second]

    def class_id(self, column: ColumnRef) -> ColumnRef:
        group = self.group(column)
        return min(group) if group else column

    def members(self, column: ColumnRef):
        group = self.group(column)
        return frozenset([c for c in self.order if c in group]) if group else frozenset()

    def classes(self):
        return tuple(sorted((frozenset(g) for g in self.groups), key=min))

    def single_table_groups(self, table: str):
        found = []
        for group in self.classes():
            local = frozenset(c for c in group if c.table == table)
            if len(local) > 1:
                found.append(local)
        return tuple(sorted(found, key=min))


def _assert_same_partition(classes: EquivalenceClasses, naive: _NaivePartition):
    for column in COLUMNS:
        assert classes.class_id(column) == naive.class_id(column)
        assert classes.members(column) == naive.members(column)
    assert classes.classes() == naive.classes()
    assert classes.nontrivial_classes() == tuple(
        g for g in naive.classes() if len(g) > 1
    )
    assert len(classes) == len(naive.groups)
    assert classes.columns() == tuple(sorted(c for g in naive.groups for c in g))
    for table in TABLES + ("absent",):
        assert classes.single_table_groups(table) == naive.single_table_groups(table)


_column = st.sampled_from(COLUMNS)
_step = st.one_of(
    st.tuples(st.just("add"), _column),
    st.tuples(st.just("union"), _column, _column),
    st.tuples(st.just("same"), _column, _column),
    st.tuples(st.just("query"), _column),
)


class TestIndexedEquivalenceClasses:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_step, max_size=40))
    def test_every_query_matches_the_naive_partition(self, steps):
        classes, naive = EquivalenceClasses(), _NaivePartition()
        for step in steps:
            kind = step[0]
            if kind == "add":
                classes.add(step[1])
                naive.add(step[1])
            elif kind == "union":
                classes.union(step[1], step[2])
                naive.union(step[1], step[2])
            elif kind == "same":
                # find() compresses paths without changing the partition.
                group = naive.group(step[1])
                expected = step[1] == step[2] or (
                    group is not None and step[2] in group
                )
                assert classes.same(step[1], step[2]) == expected
            else:
                assert classes.members(step[1]) == naive.members(step[1])
            _assert_same_partition(classes, naive)

    def test_union_after_a_query_drops_the_index(self):
        classes = EquivalenceClasses()
        r, s, t = ColumnRef("R", "a"), ColumnRef("R", "b"), ColumnRef("S", "a")
        classes.union(r, t)
        assert classes.single_table_groups("R") == ()
        classes.union(s, t)
        assert classes.single_table_groups("R") == (frozenset({r, s}),)
        assert classes.class_id(s) == r
        classes.add(ColumnRef("A", "z"))
        assert classes.classes()[0] == frozenset({ColumnRef("A", "z")})


def _reference_closure(predicates: Tuple[ComparisonPredicate, ...]):
    """The all-pairs fixpoint: every pass rescans every pair of equalities."""
    given_predicates = dedupe_predicates(predicates)
    known = set(given_predicates)
    ordered = list(given_predicates)
    implied: List[ImpliedPredicate] = []
    changed = True
    while changed:
        changed = False
        equalities = [
            p for p in ordered if p.op is Op.EQ and isinstance(p.right, ColumnRef)
        ]
        for i, first in enumerate(equalities):
            for second in equalities[i + 1 :]:
                shared = _shared_column(first, second)
                if shared is None:
                    continue
                left = _other_column(first, shared)
                right = _other_column(second, shared)
                if left == right:
                    continue
                candidate = ComparisonPredicate(left, Op.EQ, right).canonical()
                if candidate in known:
                    continue
                rule = _classify_equality_derivation(candidate, first, second)
                known.add(candidate)
                ordered.append(candidate)
                implied.append(ImpliedPredicate(candidate, rule, (first, second)))
                changed = True
    partition = _NaivePartition()
    for predicate in ordered:
        for column in predicate.columns:
            partition.add(column)
        if predicate.op is Op.EQ and isinstance(predicate.right, ColumnRef):
            partition.union(predicate.left, predicate.right)
    constants = [p for p in ordered if p.kind is PredicateKind.CONSTANT_LOCAL]
    for constant in constants:
        for member in partition.members(constant.left):
            if member == constant.left:
                continue
            assert isinstance(constant.right, Literal)
            candidate = ComparisonPredicate(member, constant.op, constant.right)
            if candidate in known:
                continue
            target = ComparisonPredicate(constant.left, Op.EQ, member).canonical()
            witness = next((p for p in ordered if p == target), target)
            known.add(candidate)
            ordered.append(candidate)
            implied.append(
                ImpliedPredicate(
                    candidate, ClosureRule.JOIN_LOCAL_TO_CONSTANT, (witness, constant)
                )
            )
    return tuple(ordered), tuple(implied), partition.classes()


@st.composite
def predicate_sets(draw):
    """A join graph shape over column ``a`` plus extra predicates."""
    size = draw(st.integers(min_value=2, max_value=len(TABLES)))
    tables = TABLES[:size]
    shape = draw(st.sampled_from(("chain", "cycle", "clique", "none")))
    predicates: List[ComparisonPredicate] = []
    if shape == "chain" or (shape == "cycle" and size < 3):
        pairs = list(zip(tables, tables[1:]))
    elif shape == "cycle":
        pairs = list(zip(tables, tables[1:] + tables[:1]))
    elif shape == "clique":
        pairs = [(a, b) for i, a in enumerate(tables) for b in tables[i + 1 :]]
    else:
        pairs = []
    predicates.extend(join_predicate(a, "a", b, "a") for a, b in pairs)
    column = st.sampled_from(("a", "b", "c"))
    table = st.sampled_from(tables)
    for kind in draw(st.lists(st.sampled_from(("eq", "local", "const", "ne")), max_size=8)):
        left, right = draw(table), draw(table)
        first, second = draw(column), draw(column)
        if kind == "local":
            right = left
        if kind == "const":
            op = draw(st.sampled_from((Op.EQ, Op.LT, Op.GE)))
            value = draw(st.integers(min_value=0, max_value=5))
            predicates.append(local_predicate(left, first, op, value))
        elif (left, first) == (right, second):
            continue  # a column compared with itself says nothing
        else:
            op = Op.EQ if kind in ("eq", "local") else draw(st.sampled_from((Op.LT, Op.NE)))
            predicates.append(
                ComparisonPredicate(ColumnRef(left, first), op, ColumnRef(right, second))
            )
    return tuple(draw(st.permutations(predicates)))


class TestSemiNaiveClosure:
    @settings(max_examples=200, deadline=None)
    @given(predicates=predicate_sets())
    def test_matches_the_all_pairs_fixpoint(self, predicates):
        result = transitive_closure(predicates)
        ordered, implied, classes = _reference_closure(predicates)
        assert result.predicates == ordered
        assert [(i.predicate, i.rule, i.sources) for i in result.implied] == [
            (i.predicate, i.rule, i.sources) for i in implied
        ]
        assert result.equivalence.classes() == classes

    def test_six_clique_derives_nothing(self):
        tables = [f"T{i}" for i in range(6)]
        predicates = tuple(
            join_predicate(a, "c", b, "c")
            for i, a in enumerate(tables)
            for b in tables[i + 1 :]
        )
        assert transitive_closure(predicates).implied == ()

    def test_long_chain_matches_reference_order(self):
        tables = [f"T{i}" for i in range(7)]
        predicates = tuple(
            join_predicate(a, "c", b, "c") for a, b in zip(tables, tables[1:])
        ) + (local_predicate("T3", "c", Op.LT, 9),)
        result = transitive_closure(predicates)
        ordered, implied, _ = _reference_closure(predicates)
        assert result.predicates == ordered
        assert result.implied == implied
        assert len(result.implied_by_rule(ClosureRule.JOIN_LOCAL_TO_CONSTANT)) == 6
