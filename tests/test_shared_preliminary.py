"""One preliminary phase per query, shared across configurations.

``build_estimators`` runs closure once per closure flag and shares
effective tables and prepared join predicates between configurations that
read the same fields.  Sharing must change no number: this file checks,
by ``repr`` of every float, that

* every ``evaluate_workload`` record over chain, cycle, star, snowflake,
  Zipf and Section 6 workloads (with local predicates, invariant checks
  on and off) equals the record built from four independent public
  ``JoinSizeEstimator`` constructions;
* the shared estimators give the constructor's ``estimate_order`` steps
  for every order of a 4-table query;
* ``run_error_propagation`` gives the same points as with independent
  estimators;

and that the sharing happens and the invariant check still runs for each
estimator.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.analysis import propagation
from repro.analysis.harness import PAPER_ALGORITHMS, AccuracyRecord, evaluate_workload
from repro.analysis.truth import true_join_size
from repro.core import ELS, SM, SRS, SSS, JoinSizeEstimator
from repro.core.estimator import build_estimators
from repro.errors import DiagnosticError
from repro.sql import Projection, Query, join_predicate, local_predicate
from repro.sql.predicates import Op
from repro.workloads import (
    build_database,
    chain_workload,
    cycle_workload,
    snowflake_workload,
    star_workload,
)
from repro.workloads.generator import ColumnSpec, TableSpec
from repro.workloads.queries import GeneratedWorkload


def _section6_workload(rng: random.Random) -> GeneratedWorkload:
    """Two columns of ``T1`` join one class, so closure makes them
    j-equivalent (Section 6); ``T3`` carries a local predicate."""
    specs = (
        TableSpec("T1", rng.randint(200, 400), {
            "c": ColumnSpec(distinct=rng.randint(20, 60)),
            "d": ColumnSpec(distinct=rng.randint(20, 60)),
        }),
        TableSpec("T2", rng.randint(100, 300), {"c": ColumnSpec(distinct=50)}),
        TableSpec("T3", rng.randint(100, 300), {"c": ColumnSpec(distinct=40)}),
        TableSpec("T4", rng.randint(50, 200), {"c": ColumnSpec(distinct=30)}),
    )
    predicates = [
        join_predicate("T1", "c", "T2", "c"),
        join_predicate("T1", "d", "T2", "c"),
        join_predicate("T2", "c", "T3", "c"),
        join_predicate("T3", "c", "T4", "c"),
        local_predicate("T3", "c", Op.LT, 30),
    ]
    query = Query.build(
        [spec.name for spec in specs], predicates, Projection(count_star=True)
    )
    return GeneratedWorkload(specs, query)


WORKLOADS = {
    "chain": lambda rng: chain_workload(
        4, rng, 50, 400, local_predicate_probability=0.6
    ),
    "cycle": lambda rng: cycle_workload(4, rng, 50, 400),
    "star": lambda rng: star_workload(3, rng, (200, 600), (20, 100)),
    "snowflake": lambda rng: snowflake_workload(
        2, 1, rng, (200, 600), (20, 100), (10, 40)
    ),
    "zipf": lambda rng: chain_workload(
        3, rng, 50, 300, local_predicate_probability=0.5, skew=1.0
    ),
    "section6": _section6_workload,
}


def _independent_records(workload, database, check_invariants, actual):
    order = list(workload.query.tables)
    records = []
    for spec in PAPER_ALGORITHMS:
        config = spec.config.but(check_invariants=True) if check_invariants else spec.config
        estimator = JoinSizeEstimator(
            workload.query, database.catalog, config, spec.apply_closure
        )
        records.append(AccuracyRecord(spec.name, estimator.estimate(order), actual))
    return records


class TestEvaluateWorkloadIsBitIdentical:
    @pytest.mark.parametrize("check_invariants", [False, True], ids=["plain", "checked"])
    @pytest.mark.parametrize("shape", sorted(WORKLOADS))
    def test_records_match_independent_estimators(self, shape, check_invariants):
        for seed in range(3):
            workload = WORKLOADS[shape](random.Random(100 * seed + 7))
            database = build_database(workload.specs, seed=seed)
            records = evaluate_workload(
                workload, database=database, check_invariants=check_invariants
            )
            actual = true_join_size(workload.query, database)
            expected = _independent_records(
                workload, database, check_invariants, actual
            )
            assert [repr(r.estimate) for r in records] == [
                repr(r.estimate) for r in expected
            ]
            assert repr(records) == repr(expected)


SETUPS = [(spec.config, spec.apply_closure) for spec in PAPER_ALGORITHMS] + [
    (SRS, True),
    (SRS, False),
    (SSS, False),
    (ELS, False),
    (ELS.but(use_urn_model=False), True),
    (SM.but(rule=ELS.rule), True),
]


class TestSharedBuildMatchesConstructor:
    @pytest.mark.parametrize("shape", ["chain", "section6", "cycle"])
    def test_every_order_gives_the_constructors_steps(self, shape):
        workload = WORKLOADS[shape](random.Random(11))
        catalog = build_database(workload.specs, seed=3).catalog
        shared = build_estimators(workload.query, catalog, SETUPS)
        for (config, closure), estimator in zip(SETUPS, shared):
            alone = JoinSizeEstimator(workload.query, catalog, config, closure)
            assert estimator.query == alone.query
            assert repr(estimator.prepared_predicates) == repr(alone.prepared_predicates)
            assert estimator.equivalence.classes() == alone.equivalence.classes()
            assert estimator.order_independent == alone.order_independent
            for table in alone.query.tables:
                assert repr(estimator.effective_table(table)) == repr(
                    alone.effective_table(table)
                )
            for order in itertools.permutations(workload.query.tables):
                assert repr(estimator.estimate_order(order)) == repr(
                    alone.estimate_order(order)
                )

    def test_setups_reading_the_same_fields_share_their_parts(self):
        workload = _section6_workload(random.Random(5))
        catalog = build_database(workload.specs, seed=1).catalog
        no_ptc, sm, sss, els = build_estimators(
            workload.query,
            catalog,
            [(spec.config, spec.apply_closure) for spec in PAPER_ALGORITHMS],
        )
        assert no_ptc.closure is None
        assert sm.closure is sss.closure is els.closure
        assert sm.equivalence is els.equivalence
        for table in workload.query.tables:
            assert sm.effective_table(table) is sss.effective_table(table)
            assert sm.effective_table(table) is not no_ptc.effective_table(table)
        # SSS reads the same step-5 fields as SM.
        assert sm.prepared_predicates == sss.prepared_predicates
        # ELS folds local predicates into its columns; the T1 group shows.
        assert els.effective_table("T1").groups
        assert not sm.effective_table("T1").groups

    def test_each_setup_runs_its_own_invariant_check(self):
        query = Query.build(
            ["R1", "R2"],
            [
                join_predicate("R1", "x", "R2", "y"),
                local_predicate("R1", "x", Op.EQ, 5),
                local_predicate("R1", "x", Op.EQ, 7),
            ],
            Projection(count_star=True),
        )
        catalog = build_database(
            [
                TableSpec("R1", 100, {"x": ColumnSpec(distinct=10)}),
                TableSpec("R2", 100, {"y": ColumnSpec(distinct=10)}),
            ],
            seed=0,
        ).catalog
        assert len(build_estimators(query, catalog, [(ELS, True), (SM, True)])) == 2
        checked = ELS.but(check_invariants=True)
        with pytest.raises(DiagnosticError):
            build_estimators(query, catalog, [(ELS, True), (checked, True)])
        with pytest.raises(DiagnosticError):
            build_estimators(query, catalog, [(checked, True), (ELS, True)])


def test_error_propagation_matches_independent_estimators(monkeypatch):
    kwargs = dict(max_tables=4, trials=2, seed=3, min_rows=50, max_rows=300)
    shared = propagation.run_error_propagation(**kwargs)

    def independent(query, catalog, setups):
        return [JoinSizeEstimator(query, catalog, c, closure) for c, closure in setups]

    monkeypatch.setattr(propagation, "build_estimators", independent)
    assert repr(propagation.run_error_propagation(**kwargs)) == repr(shared)
