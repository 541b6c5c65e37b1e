"""Incremental join-result-size estimation: Algorithm ELS and its baselines.

The estimator follows the two-phase structure of Algorithm ELS (Section 4):

**Preliminary phase** (steps 1–5, done once per query in ``__init__``):

1. De-duplicate predicates (done by :class:`~repro.sql.query.Query`).
2. Generate implied predicates via transitive closure (optional — the
   caller controls PTC exactly as the paper toggled Starburst's rewrite
   rule), and build equivalence classes.
3. Assign selectivities to local predicates (``repro.core.local``).
4. Compute effective table/column cardinalities per table
   (``repro.core.effective``).
5. Compute the join selectivity of every join predicate from the effective
   (or, for the standard algorithm, original) column cardinalities.

**Incremental phase** (step 6): starting from one table, repeatedly join
the next table of the order.  At each step the *eligible* join predicates —
those linking the incoming table to tables already in the intermediate
result — are grouped by equivalence class, the configured rule (M, SS, LS,
or REP) picks the per-class selectivity, classes multiply, and

    ``rows(I ⋈ R) = rows(I) * rows'(R) * combined_selectivity``.

The module also provides the closed form of Equation 3 as an oracle:
under the paper's assumptions (and full transitive closure) the true result
size of a join set is the product of effective table cardinalities divided,
per equivalence class, by every per-table class cardinality except the
smallest.  A property test asserts ELS's incremental estimates agree with
this oracle for every join order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..catalog.statistics import Catalog
from ..errors import EstimationError
from ..sql.predicates import ColumnRef, ComparisonPredicate, Op, PredicateKind
from ..sql.query import Query
from .closure import ClosureResult, close_query
from .config import ELS, EstimatorConfig, SelectivityRule
from .effective import EffectiveTable, compute_effective_table
from .equivalence import EquivalenceClasses
from .rules import combine_class_selectivities, derive_representative, join_selectivity

__all__ = [
    "PreparedJoinPredicate",
    "EstimateState",
    "StepEstimate",
    "IncrementalEstimate",
    "JoinSizeEstimator",
    "two_way_join_size",
]


def two_way_join_size(
    rows1: float, distinct1: float, rows2: float, distinct2: float
) -> float:
    """Equation 1/2: ``||R1 >< R2|| = ||R1|| * ||R2|| / max(d1, d2)``."""
    return rows1 * rows2 * join_selectivity(distinct1, distinct2)


@dataclass(frozen=True)
class PreparedJoinPredicate:
    """A join predicate with its precomputed selectivity (step 5).

    Attributes:
        predicate: The canonical join predicate.
        selectivity: ``S_J`` from Equation 2 (or the default for
            non-equality join predicates).
        class_id: The equivalence-class identifier for equijoin predicates;
            ``None`` for non-equality predicates, which always multiply in.
    """

    predicate: ComparisonPredicate
    selectivity: float
    class_id: Optional[ColumnRef]

    @property
    def tables(self) -> FrozenSet[str]:
        return self.predicate.tables


def _by_selectivity(prepared: PreparedJoinPredicate) -> float:
    """Sort key for Rules SS/LS (module-level: the per-class min/max in
    ``_combine`` runs on the estimation hot path)."""
    return prepared.selectivity


@dataclass(frozen=True)
class EstimateState:
    """An intermediate result during incremental estimation."""

    tables: FrozenSet[str]
    rows: float

    def __post_init__(self) -> None:
        if not self.tables:
            raise EstimationError("an estimate state must contain at least one table")


@dataclass(frozen=True)
class StepEstimate:
    """One incremental step: the table joined and the resulting size."""

    table: str
    rows: float
    applied_selectivity: float = 1.0
    eligible: Tuple[PreparedJoinPredicate, ...] = ()
    used: Tuple[PreparedJoinPredicate, ...] = ()

    @property
    def is_cartesian(self) -> bool:
        """True when no eligible join predicate linked the table in."""
        return not self.eligible


@dataclass(frozen=True)
class IncrementalEstimate:
    """A full join-order estimate with per-step intermediate sizes."""

    order: Tuple[str, ...]
    steps: Tuple[StepEstimate, ...]

    @property
    def rows(self) -> float:
        return self.steps[-1].rows

    @property
    def intermediate_sizes(self) -> Tuple[float, ...]:
        """Result sizes after each join (excluding the initial single table).

        For a four-table order this is the three-element tuple printed in
        the paper's experiment table.
        """
        return tuple(step.rows for step in self.steps[1:])


class JoinSizeEstimator:
    """Join-size estimator configured by an :class:`EstimatorConfig`.

    One instance is bound to one query and one catalog; the preliminary
    phase runs in the constructor and the incremental phase is exposed via
    :meth:`start` / :meth:`join` / :meth:`estimate_order`.

    Args:
        query: The (conjunctive) query.
        catalog: Statistics for every base table the query references.
        config: Feature flags and the selectivity rule; defaults to ELS.
        apply_closure: Run predicate transitive closure first (step 2).
            Both Rule SS and Rule LS "are sensible only when predicate
            transitive closure has been applied", but the flag is
            independent so the paper's first experiment row (original
            query, no PTC) can be reproduced.
    """

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        config: EstimatorConfig = ELS,
        apply_closure: bool = True,
    ) -> None:
        self._original_query = query
        self._catalog = catalog
        self._config = config
        self._closure: Optional[ClosureResult] = None
        if apply_closure:
            query, closure_result = close_query(query)
            self._closure = closure_result
            self._equivalence = closure_result.equivalence
        else:
            self._equivalence = EquivalenceClasses.from_predicates(query.predicates)
        self._query = query

        if config.check_invariants:
            # Lazy import: repro.lint.semantic depends on core.closure, so a
            # top-level import here would be circular during package init.
            from ..lint.semantic import check_estimator_input

            check_estimator_input(
                self._query,
                catalog,
                self._equivalence,
                expect_closure=apply_closure,
            )

        self._effective: Dict[str, EffectiveTable] = {}
        for table in query.tables:
            base = query.base_table(table)
            stats = catalog.stats(base)
            local = [
                p
                for p in query.predicates
                if p.is_local and p.references(table)
            ]
            self._effective[table] = compute_effective_table(
                table, stats, local, self._equivalence, config
            )

        self._prepared: List[PreparedJoinPredicate] = [
            self._prepare(p) for p in query.predicates if p.is_join
        ]
        # Incidence index for step 6: per table, each incident predicate
        # with its position in ``_prepared`` and its *other* tables, kept in
        # ``_prepared`` order so eligible tuples come out in that order.
        self._incident: Dict[
            str, List[Tuple[int, PreparedJoinPredicate, FrozenSet[str]]]
        ] = {table: [] for table in query.tables}
        for position, prepared in enumerate(self._prepared):
            tables = prepared.tables
            for table in tables:
                self._incident[table].append((position, prepared, tables - {table}))
        self._representatives = self._derive_representatives()

    # -- public accessors --------------------------------------------------

    @property
    def query(self) -> Query:
        """The query after the (optional) transitive-closure rewrite."""
        return self._query

    @property
    def config(self) -> EstimatorConfig:
        return self._config

    @property
    def closure(self) -> Optional[ClosureResult]:
        return self._closure

    @property
    def equivalence(self) -> EquivalenceClasses:
        return self._equivalence

    @property
    def prepared_predicates(self) -> Tuple[PreparedJoinPredicate, ...]:
        return tuple(self._prepared)

    @property
    def order_independent(self) -> bool:
        """Whether every join order of a table set gets the same estimate.

        Section 7: after predicate transitive closure every pair of columns
        in an equivalence class is linked by a predicate, so Rule LS divides
        each step by ``max(m_I, m_R)``, the larger of the two sides'
        smallest class cardinalities.  Since ``max(a, b) * min(a, b) =
        a * b`` the divisors telescope to Equation 3's, whatever the order
        or bushy split; non-equality predicates multiply in once each
        either way.  Orders then differ only in float rounding.

        False without closure, under Rule SS and with frequency
        statistics (whose selectivities are not of the form
        ``1 / max(d1, d2)``): each has orders of one set whose estimates
        differ.  Also False, conservatively, under Rules M and REP, whose
        final estimate for a set does not depend on the order either (M
        applies every predicate once; under closure REP applies a class's
        constant once per added table of the class): the DP keeps one
        estimator step per expansion for them, so the baseline
        algorithms' plans stay exactly those of the per-expansion search.
        """
        return (
            self._closure is not None
            and self._config.rule is SelectivityRule.LARGEST
            and not self._config.use_frequency_stats
        )

    def effective_table(self, table: str) -> EffectiveTable:
        if table not in self._effective:
            raise EstimationError(f"table {table!r} is not part of the query")
        return self._effective[table]

    def base_rows(self, table: str) -> float:
        """Effective cardinality ``||R||'`` of a single table."""
        return self.effective_table(table).rows

    def selectivity_of(self, predicate: ComparisonPredicate) -> float:
        """The precomputed selectivity of a join predicate of this query."""
        canonical = predicate.canonical()
        for prepared in self._prepared:
            if prepared.predicate == canonical:
                return prepared.selectivity
        raise EstimationError(f"{predicate} is not a join predicate of this query")

    # -- incremental phase (step 6) -----------------------------------------

    def start(self, table: str) -> EstimateState:
        """Begin incremental estimation from a single table."""
        return EstimateState(frozenset((table,)), self.base_rows(table))

    def eligible(
        self, joined: FrozenSet[str], table: str
    ) -> Tuple[PreparedJoinPredicate, ...]:
        """Eligible join predicates linking ``table`` to the joined set.

        "the query optimizer only needs to consider the predicates that
        link columns in table R with the corresponding columns in a second
        table S that is present in table I."
        """
        return tuple(
            prepared
            for _, prepared, others in self._incident.get(table, ())
            if others <= joined
        )

    def join(self, state: EstimateState, table: str) -> Tuple[EstimateState, StepEstimate]:
        """Join the next table into the intermediate result.

        Raises:
            EstimationError: if the table is unknown or already joined.
        """
        if table in state.tables:
            raise EstimationError(f"table {table!r} is already part of the result")
        if table not in self._effective:
            raise EstimationError(f"table {table!r} is not part of the query")
        eligible = self.eligible(state.tables, table)
        selectivity, used = self._combine(eligible)
        rows = state.rows * self.base_rows(table) * selectivity
        new_state = EstimateState(state.tables | {table}, rows)
        step = StepEstimate(
            table=table,
            rows=rows,
            applied_selectivity=selectivity,
            eligible=eligible,
            used=used,
        )
        return new_state, step

    def eligible_between(
        self, left: FrozenSet[str], right: FrozenSet[str]
    ) -> Tuple[PreparedJoinPredicate, ...]:
        """Join predicates linking two disjoint table sets (bushy joins).

        A linking predicate touches both sides, so walking the smaller
        side's incident predicates finds them all; they are returned in
        ``_prepared`` order.
        """
        small, large = (left, right) if len(left) <= len(right) else (right, left)
        union = left | right
        found: Dict[int, PreparedJoinPredicate] = {}
        for table in small:
            for position, prepared, others in self._incident.get(table, ()):
                if others <= union and (table in large or not others.isdisjoint(large)):
                    found[position] = prepared
        return tuple(found[position] for position in sorted(found))

    def join_states(
        self, left: EstimateState, right: EstimateState
    ) -> Tuple[EstimateState, StepEstimate]:
        """Join two intermediate results (bushy-plan estimation).

        The incremental rule generalizes: the eligible predicates are those
        crossing the two sets, the configured rule combines them per
        equivalence class, and ``rows = rows_L * rows_R * selectivity``.
        Under full transitive closure Rule LS remains exact: within a
        class the largest crossing selectivity is ``1 / max(min_L, min_R)``
        over the two sides' smallest cardinalities, which is precisely the
        divisor Equation 3 still owes after both sides' internal divisors.

        Raises:
            EstimationError: if the two sets overlap.
        """
        if left.tables & right.tables:
            raise EstimationError(
                f"cannot join overlapping sets {sorted(left.tables)} and "
                f"{sorted(right.tables)}"
            )
        eligible = self.eligible_between(left.tables, right.tables)
        selectivity, used = self._combine(eligible)
        rows = left.rows * right.rows * selectivity
        state = EstimateState(left.tables | right.tables, rows)
        step = StepEstimate(
            table=",".join(sorted(right.tables)),
            rows=rows,
            applied_selectivity=selectivity,
            eligible=eligible,
            used=used,
        )
        return state, step

    def estimate_order(self, order: Sequence[str]) -> IncrementalEstimate:
        """Estimate the result size along a specific join order.

        Returns the per-step intermediate sizes — the quantity the paper's
        experiment table prints for each algorithm.
        """
        if len(order) < 1:
            raise EstimationError("a join order needs at least one table")
        if len(set(order)) != len(order):
            raise EstimationError(f"join order repeats a table: {order}")
        state = self.start(order[0])
        steps = [StepEstimate(table=order[0], rows=state.rows)]
        for table in order[1:]:
            state, step = self.join(state, table)
            steps.append(step)
        return IncrementalEstimate(tuple(order), tuple(steps))

    def estimate(self, order: Sequence[str]) -> float:
        """The final estimated size along a join order."""
        return self.estimate_order(order).rows

    # -- closed form (Equation 3) --------------------------------------------

    def closed_form(self, tables: Optional[Iterable[str]] = None) -> float:
        """Equation 3, generalized: the order-independent result size.

        ``prod(||R_i||')`` divided, per equivalence class, by every
        per-table class cardinality except the smallest.  Under the paper's
        assumptions and full transitive closure this is the correct result
        size, and Rule LS's incremental estimates agree with it for every
        join order (the paper's Section 7 induction; asserted by property
        tests here).

        Only meaningful when the join graph restricted to the table subset
        is connected through the equivalence classes (otherwise the missing
        cross products make the closed form an undercount of the Cartesian
        contribution — the incremental API handles that case).
        """
        subset = frozenset(tables) if tables is not None else frozenset(self._query.tables)
        unknown = subset - set(self._query.tables)
        if unknown:
            raise EstimationError(f"tables {sorted(unknown)} are not in the query")
        rows = 1.0
        for table in subset:
            rows *= self.base_rows(table)
        for group in self._equivalence.classes():
            per_table: Dict[str, float] = {}
            for column in group:
                if column.table not in subset:
                    continue
                distinct = self._distinct_for(column)
                # A table contributes one cardinality per class; multiple
                # columns of one table in the class share the group value
                # under ELS (and the minimum is taken when grouping is off).
                previous = per_table.get(column.table)
                per_table[column.table] = (
                    distinct if previous is None else min(previous, distinct)
                )
            if len(per_table) < 2:
                continue
            ds = sorted(per_table.values())
            for d in ds[1:]:
                rows = rows / d if d > 0 else 0.0
        return rows

    # -- internals -------------------------------------------------------

    def _prepare(self, predicate: ComparisonPredicate) -> PreparedJoinPredicate:
        if predicate.op is not Op.EQ:
            return PreparedJoinPredicate(
                predicate, self._config.default_join_selectivity, None
            )
        assert isinstance(predicate.right, ColumnRef)
        class_id = self._equivalence.class_id(predicate.left)
        if self._config.use_frequency_stats:
            frequency = self._frequency_selectivity(predicate.left, predicate.right)
            if frequency is not None:
                return PreparedJoinPredicate(predicate, frequency, class_id)
        left_d = self._distinct_for(predicate.left)
        right_d = self._distinct_for(predicate.right)
        selectivity = join_selectivity(left_d, right_d)
        return PreparedJoinPredicate(predicate, selectivity, class_id)

    def _frequency_selectivity(
        self, left: ColumnRef, right: ColumnRef
    ) -> Optional[float]:
        """Distribution-aware selectivity (the Section 9 extension).

        Preference order: most-common-values lists (skew,
        :mod:`repro.core.skew`), then histogram overlap (partial domains,
        :mod:`repro.core.histjoin`), then ``None`` — letting Equation 2
        handle the predicate as usual when the catalog has no distribution
        information.
        """
        from .histjoin import histogram_join_selectivity
        from .skew import frequency_join_selectivity

        left_stats = self._catalog.column_stats(
            self._query.base_table(left.table), left.column
        )
        right_stats = self._catalog.column_stats(
            self._query.base_table(right.table), right.column
        )
        left_rows = self.base_rows(left.table)
        right_rows = self.base_rows(right.table)
        if left_stats.mcv is not None or right_stats.mcv is not None:
            return frequency_join_selectivity(
                left_rows, left_stats, right_rows, right_stats
            )
        if left_stats.histogram is not None or right_stats.histogram is not None:
            return histogram_join_selectivity(
                left_rows, left_stats, right_rows, right_stats
            )
        return None

    def _distinct_for(self, column: ColumnRef) -> float:
        """The column cardinality entering join selectivities (step 5).

        ELS uses effective, group-aware cardinalities; the standard
        algorithm (``fold_local_into_columns=False``) uses the original
        catalog values — :func:`compute_effective_table` already arranged
        for ``EffectiveTable.distinct`` to answer accordingly, except that
        group handling must also be bypassed here when disabled.
        """
        effective = self._effective.get(column.table)
        if effective is None:
            raise EstimationError(f"table {column.table!r} is not part of the query")
        if not self._config.handle_single_table_jequiv:
            if column.column not in effective.column_distinct:
                raise EstimationError(
                    f"no statistics for column {column}"
                )
            return effective.column_distinct[column.column]
        return effective.distinct(column.column)

    def _combine(
        self, eligible: Sequence[PreparedJoinPredicate]
    ) -> Tuple[float, Tuple[PreparedJoinPredicate, ...]]:
        """Apply the configured rule to the eligible predicates.

        Returns the combined selectivity and the predicates that actually
        contributed to it (all of them under Rule M; one per class under
        Rules SS/LS).
        """
        if not eligible:
            return 1.0, ()
        by_class: Dict[object, List[PreparedJoinPredicate]] = {}
        independent: List[PreparedJoinPredicate] = []
        for prepared in eligible:
            if prepared.class_id is None:
                independent.append(prepared)
            else:
                by_class.setdefault(prepared.class_id, []).append(prepared)

        total = 1.0
        used: List[PreparedJoinPredicate] = []
        for prepared in independent:
            total *= prepared.selectivity
            used.append(prepared)
        for class_id, members in by_class.items():
            selectivities = [m.selectivity for m in members]
            representative = self._representatives.get(class_id)
            combined = combine_class_selectivities(
                selectivities, self._config.rule, representative
            )
            total *= combined
            if self._config.rule is SelectivityRule.MULTIPLICATIVE:
                used.extend(members)
            elif self._config.rule is SelectivityRule.SMALLEST:
                used.append(min(members, key=_by_selectivity))
            elif self._config.rule is SelectivityRule.LARGEST:
                used.append(max(members, key=_by_selectivity))
            else:
                used.extend(members)
        return total, tuple(used)

    def _derive_representatives(self) -> Dict[object, float]:
        """Per-class representative selectivities for Rule REP."""
        if self._config.rule is not SelectivityRule.REPRESENTATIVE:
            return {}
        if self._config.representative_selectivity is not None:
            constant = self._config.representative_selectivity
            return {
                self._equivalence.class_id(next(iter(group))): constant
                for group in self._equivalence.nontrivial_classes()
            }
        by_class: Dict[object, List[float]] = {}
        for prepared in self._prepared:
            if prepared.class_id is not None:
                by_class.setdefault(prepared.class_id, []).append(prepared.selectivity)
        return {
            class_id: derive_representative(values, self._config.representative_choice)
            for class_id, values in by_class.items()
        }
