"""Predicate transitive closure (Algorithm ELS, steps 1–2).

Given the de-duplicated predicate conjunction of a query, this module
derives all implied predicates using the paper's five variations:

a. two join predicates imply another join predicate
   ``(R1.x = R2.y) AND (R2.y = R3.z) => (R1.x = R3.z)``
b. two join predicates imply a local (column-equality) predicate
   ``(R1.x = R2.y) AND (R1.x = R2.w) => (R2.y = R2.w)``
c. two local predicates imply another local predicate
   ``(R1.x = R1.y) AND (R1.y = R1.z) => (R1.x = R1.z)``
d. a join predicate and a local predicate imply another join predicate
   ``(R1.x = R2.y) AND (R1.x = R1.v) => (R2.y = R1.v)``
e. a join predicate and a local predicate imply another local predicate
   ``(R1.x = R2.y) AND (R1.x op c) => (R2.y op c)``

Rules a–d are all instances of transitivity of equality; rule e propagates
constant comparisons across an equality.  The implementation iterates the
rules to a fixpoint and records, for every implied predicate, which rule
produced it — the tests assert each of the five variations individually.

"Performing this predicate transitive closure gives the optimizer maximum
freedom to vary the join order and ensures that the same QEP is generated
for equivalent queries independently of how the queries are specified."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..sql.predicates import (
    ColumnRef,
    ComparisonPredicate,
    Literal,
    Op,
    PredicateKind,
)
from ..sql.query import Query, dedupe_predicates
from .equivalence import EquivalenceClasses

__all__ = ["ClosureRule", "ImpliedPredicate", "ClosureResult", "transitive_closure", "close_query"]


class ClosureRule(enum.Enum):
    """Which of the paper's five derivation rules produced a predicate."""

    JOIN_JOIN_TO_JOIN = "a"
    JOIN_JOIN_TO_LOCAL = "b"
    LOCAL_LOCAL_TO_LOCAL = "c"
    JOIN_LOCAL_TO_JOIN = "d"
    JOIN_LOCAL_TO_CONSTANT = "e"


@dataclass(frozen=True)
class ImpliedPredicate:
    """An implied predicate together with its provenance."""

    predicate: ComparisonPredicate
    rule: ClosureRule
    sources: Tuple[ComparisonPredicate, ComparisonPredicate]

    def __str__(self) -> str:
        return f"{self.predicate}  [rule {self.rule.value}]"


@dataclass(frozen=True)
class ClosureResult:
    """Output of the transitive-closure pass.

    Attributes:
        predicates: The full closed conjunction (given + implied), in
            canonical form with duplicates removed.
        implied: The predicates that were not in the input, with the rule
            that derived each.
        equivalence: Equivalence classes over all columns of the closed
            predicate set.
    """

    predicates: Tuple[ComparisonPredicate, ...]
    implied: Tuple[ImpliedPredicate, ...]
    equivalence: EquivalenceClasses

    @property
    def implied_predicates(self) -> Tuple[ComparisonPredicate, ...]:
        return tuple(ip.predicate for ip in self.implied)

    def implied_by_rule(self, rule: ClosureRule) -> Tuple[ComparisonPredicate, ...]:
        return tuple(ip.predicate for ip in self.implied if ip.rule is rule)


def _classify_equality_derivation(
    new: ComparisonPredicate,
    source_a: ComparisonPredicate,
    source_b: ComparisonPredicate,
) -> ClosureRule:
    """Map an equality derivation to one of rules a–d by operand shapes."""
    a_join = source_a.kind is PredicateKind.JOIN
    b_join = source_b.kind is PredicateKind.JOIN
    new_join = new.kind is PredicateKind.JOIN
    if a_join and b_join:
        return (
            ClosureRule.JOIN_JOIN_TO_JOIN if new_join else ClosureRule.JOIN_JOIN_TO_LOCAL
        )
    if a_join or b_join:
        # One source is a join predicate, the other a local column equality.
        # The paper's rule (d) derives a join predicate from that pair; when
        # both endpoints of the conclusion land in the same table it is the
        # local-conclusion sibling, which the paper folds under rule (c)'s
        # "local" umbrella — we keep rule (d) because a join source exists.
        return ClosureRule.JOIN_LOCAL_TO_JOIN
    return ClosureRule.LOCAL_LOCAL_TO_LOCAL


def transitive_closure(
    predicates: Tuple[ComparisonPredicate, ...],
) -> ClosureResult:
    """Compute the transitive closure of a conjunction of predicates.

    The input is first canonicalized and de-duplicated (step 1).  Equality
    predicates are closed under transitivity; constant predicates are
    propagated to every j-equivalent column (rule e).  Non-equality
    column-column predicates pass through untouched: as the paper notes,
    "equality predicates are the most common and important class of
    predicates that generate implied predicates".
    """
    given = dedupe_predicates(predicates)
    known: Set[ComparisonPredicate] = set(given)
    ordered: List[ComparisonPredicate] = list(given)
    implied: List[ImpliedPredicate] = []

    # -- equality closure (rules a-d), iterated to fixpoint --------------
    # Each pass pairs every equality known at its start with each later one
    # sharing a column, in (i, j) order.  A pair of equalities both known
    # before the previous pass was already tried there, and its conclusion
    # is known now, so a pass only tries pairs whose later member is new.
    equalities = [
        p for p in ordered if p.op is Op.EQ and isinstance(p.right, ColumnRef)
    ]
    by_column: Dict[ColumnRef, List[int]] = {}
    fresh = 0  # index of the first equality the previous pass added
    while fresh < len(equalities):
        for position in range(fresh, len(equalities)):
            for column in dict.fromkeys(equalities[position].columns):
                by_column.setdefault(column, []).append(position)
        derived: List[ComparisonPredicate] = []
        for i, first in enumerate(equalities):
            start = max(i + 1, fresh)
            partners = sorted(
                {j for column in first.columns for j in by_column[column] if j >= start}
            )
            for j in partners:
                second = equalities[j]
                shared = _shared_column(first, second)
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
                derived.append(candidate)
                implied.append(ImpliedPredicate(candidate, rule, (first, second)))
        fresh = len(equalities)
        equalities.extend(derived)

    # -- constant propagation (rule e) ------------------------------------
    equivalence = EquivalenceClasses.from_predicates(ordered)
    constant_preds = [
        p for p in ordered if p.kind is PredicateKind.CONSTANT_LOCAL
    ]
    for constant in constant_preds:
        for member in equivalence.members(constant.left):
            if member == constant.left:
                continue
            assert isinstance(constant.right, Literal)
            candidate = ComparisonPredicate(member, constant.op, constant.right)
            if candidate in known:
                continue
            # Provenance: the constant predicate plus *an* equality that
            # witnesses the class membership.  The closure has made every
            # pairwise equality of a class explicit, so the witness is in
            # ``known`` already.
            witness = ComparisonPredicate(constant.left, Op.EQ, member).canonical()
            known.add(candidate)
            ordered.append(candidate)
            implied.append(
                ImpliedPredicate(
                    candidate, ClosureRule.JOIN_LOCAL_TO_CONSTANT, (witness, constant)
                )
            )

    return ClosureResult(
        predicates=tuple(ordered),
        implied=tuple(implied),
        equivalence=equivalence,
    )


def close_query(query: Query) -> Tuple[Query, ClosureResult]:
    """Apply transitive closure to a query, returning the rewritten query.

    This is the library's equivalent of the Starburst query-rewrite rule the
    paper used ("Predicate transitive closure (PTC) was implemented as a
    query rewrite rule so that we could disable it as necessary") — callers
    that want PTC disabled simply skip this function.
    """
    result = transitive_closure(query.predicates)
    return query.with_predicates(result.predicates), result


def _shared_column(a: ComparisonPredicate, b: ComparisonPredicate):
    """The column reference two equality predicates have in common, if any."""
    for column in a.columns:
        if column in b.columns:
            return column
    return None


def _other_column(predicate: ComparisonPredicate, column: ColumnRef) -> ColumnRef:
    assert isinstance(predicate.right, ColumnRef)
    return predicate.right if predicate.left == column else predicate.left

