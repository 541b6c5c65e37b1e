"""Pricing DP expansions before estimating them changes no plan.

The enumerators price every expansion from its inputs' cost terms, visit
options cheapest cost floor first and skip the estimator step for an
option whose floor already exceeds the best connected total.  This file
keeps the exhaustive enumerators they replaced — one estimator step and one
plan node per expansion, the cheapest connected (else cartesian) candidate
by ``(cost, leaf order)`` — together with the cost formulas as they were
written before the per-input terms, and checks on seeded chain, star,
snowflake, cycle and clique graphs of 2-7 relations, under every paper
estimator configuration and with and without hash joins, that:

* ``explain()`` and ``repr`` of the estimated cost are identical;
* the plans are equal, except that under an order-independent estimator
  (ELS and SRS with closure, SM with or without it), whose DP estimates
  each table subset once, a node's estimated rows may differ from the
  reference in the last bits (within 1e-12 relative);
* the priced enumerators never call ``join``/``join_states`` more often.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.catalog import Catalog
from repro.core import ELS, SM, SRS, SSS, JoinSizeEstimator
from repro.optimizer import (
    CostModel,
    JoinMethod,
    enumerate_dp,
    enumerate_dp_bushy,
    enumerate_greedy,
)
from repro.optimizer.plans import JoinPlan, ScanPlan, explain, joins_of
from repro.sql import Projection, Query, join_predicate
from repro.sql.predicates import Op
from repro.workloads import (
    chain_workload,
    clique_workload,
    cycle_workload,
    snowflake_workload,
    star_workload,
)

CONFIGS = {"ELS": ELS, "SM": SM, "SRS": SRS, "SSS": SSS}
METHOD_SETS = {
    "NL+SM": (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
    "NL+SM+HJ": (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE, JoinMethod.HASH),
}
_SNOWFLAKE = {2: (1, 0), 3: (1, 1), 4: (1, 2), 5: (2, 1), 6: (1, 4), 7: (2, 2)}


# -- the exhaustive reference ------------------------------------------------


def _pages(model, rows, width):
    if rows <= 0:
        return 0.0
    return math.ceil(rows / max(1.0, model.page_size / max(1, width)))


def _sort_cost(model, rows, width):
    pages = _pages(model, rows, width)
    if pages <= 1:
        return pages
    fan_in = max(2, model.buffer_pages - 1)
    runs = max(1.0, math.ceil(pages / max(1, model.buffer_pages)))
    merge_levels = max(1.0, math.ceil(math.log(runs, fan_in))) if runs > 1 else 1.0
    return 2.0 * pages * merge_levels


def _n_log_n(rows):
    return rows if rows <= 1 else rows * math.log2(rows)


def _join_cost(model, method, outer_rows, outer_width, inner_rows, inner_width):
    outer_pages = _pages(model, outer_rows, outer_width)
    inner_pages = _pages(model, inner_rows, inner_width)
    if method is JoinMethod.SORT_MERGE:
        io = _sort_cost(model, outer_rows, outer_width) + _sort_cost(
            model, inner_rows, inner_width
        )
        io += outer_pages + inner_pages
        cpu = model.cpu_weight * (
            _n_log_n(outer_rows) + _n_log_n(inner_rows) + outer_rows + inner_rows
        )
        return io + cpu
    if inner_pages <= model.buffer_pages:
        io = outer_pages + inner_pages
    elif method is JoinMethod.NESTED_LOOPS:
        passes = max(1.0, math.ceil(outer_pages / max(1, model.buffer_pages - 1)))
        io = outer_pages + passes * inner_pages
    else:
        io = 3.0 * (outer_pages + inner_pages)
    if method is JoinMethod.NESTED_LOOPS:
        return io + model.cpu_weight * outer_rows * inner_rows
    return io + model.cpu_weight * (outer_rows + inner_rows)


def _ref_scans(estimator, model, widths, rows):
    query = estimator.query
    scans = {}
    for relation in query.tables:
        local = tuple(p for p in query.predicates if p.is_local and p.references(relation))
        cost = model.scan_cost(rows[relation], widths[relation], len(local))
        plan = ScanPlan(
            relation,
            query.base_table(relation),
            local,
            estimator.base_rows(relation),
            cost,
            widths[relation],
        )
        scans[relation] = (plan, cost, estimator.start(relation), (relation,))
    return scans


def _ref_join(left, right, new_state, step, model, methods):
    """One estimated expansion, priced and given a plan node."""
    left_plan, left_cost, left_state, left_order = left
    right_plan, right_cost, right_state, right_order = right
    has_equi_key = any(p.predicate.op is Op.EQ for p in step.eligible)
    applicable = [
        m for m in methods if m is JoinMethod.NESTED_LOOPS or has_equi_key
    ]
    if not applicable:
        return None
    width = left_plan.row_width + right_plan.row_width
    output_cost = model.output_cost(new_state.rows, width)
    best_method, best_cost = None, 0.0
    for method in applicable:
        join_cost = _join_cost(
            model, method, left_state.rows, left_plan.row_width,
            right_state.rows, right_plan.row_width,
        )
        total = left_cost + right_cost + join_cost + output_cost
        if best_method is None or total < best_cost:
            best_method, best_cost = method, total
    plan = JoinPlan(
        left_plan,
        right_plan,
        best_method,
        tuple(p.predicate for p in step.eligible),
        new_state.rows,
        best_cost,
        width,
    )
    return (plan, best_cost, new_state, left_order + right_order)


def _ref_pick(candidates):
    connected = [c for c in candidates if not c[0].is_cartesian]
    pool = connected or candidates
    return min(pool, key=lambda c: (c[1], c[3])) if pool else None


def reference_dp(estimator, model, widths, rows, methods):
    scans = _ref_scans(estimator, model, widths, rows)
    relations = list(estimator.query.tables)
    best = {frozenset((r,)): scans[r] for r in relations}
    for size in range(2, len(relations) + 1):
        for subset in map(frozenset, itertools.combinations(relations, size)):
            candidates = []
            for relation in sorted(subset):
                source = best.get(subset - {relation})
                if source is None:
                    continue
                state, step = estimator.join(source[2], relation)
                joined = _ref_join(source, scans[relation], state, step, model, methods)
                if joined is not None:
                    candidates.append(joined)
            winner = _ref_pick(candidates)
            if winner is not None:
                best[subset] = winner
    return best[frozenset(relations)][0]


def reference_bushy(estimator, model, widths, rows, methods):
    scans = _ref_scans(estimator, model, widths, rows)
    relations = list(estimator.query.tables)
    best = {frozenset((r,)): scans[r] for r in relations}
    for size in range(2, len(relations) + 1):
        for subset_tuple in itertools.combinations(sorted(relations), size):
            subset = frozenset(subset_tuple)
            candidates = []
            for left_size in range(1, size):
                for left_tuple in itertools.combinations(subset_tuple, left_size):
                    left = best.get(frozenset(left_tuple))
                    right = best.get(subset - frozenset(left_tuple))
                    if left is None or right is None:
                        continue
                    state, step = estimator.join_states(left[2], right[2])
                    joined = _ref_join(left, right, state, step, model, methods)
                    if joined is not None:
                        candidates.append(joined)
            winner = _ref_pick(candidates)
            if winner is not None:
                best[subset] = winner
    return best[frozenset(relations)][0]


def reference_greedy(estimator, model, widths, rows, methods):
    scans = _ref_scans(estimator, model, widths, rows)
    relations = list(estimator.query.tables)
    best_overall = None
    for start in relations:
        candidate = scans[start]
        remaining = [r for r in relations if r != start]
        while remaining:
            candidates = []
            for relation in remaining:
                state, step = estimator.join(candidate[2], relation)
                joined = _ref_join(candidate, scans[relation], state, step, model, methods)
                if joined is not None:
                    candidates.append(joined)
            candidate = _ref_pick(candidates)
            remaining.remove(candidate[3][-1])
        if best_overall is None or candidate[1] < best_overall[1]:
            best_overall = candidate
    return best_overall[0]


REFERENCES = {
    "dp": (reference_dp, enumerate_dp),
    "dp-bushy": (reference_bushy, enumerate_dp_bushy),
    "greedy": (reference_greedy, enumerate_greedy),
}


# -- harness -------------------------------------------------------------------


class _Counting:
    """Delegates to a :class:`JoinSizeEstimator`, counting estimator steps."""

    def __init__(self, estimator):
        self._estimator = estimator
        self.steps = 0

    def __getattr__(self, name):
        return getattr(self._estimator, name)

    def join(self, state, table):
        self.steps += 1
        return self._estimator.join(state, table)

    def join_states(self, left, right):
        self.steps += 1
        return self._estimator.join_states(left, right)


def _catalog(specs):
    return Catalog.from_stats(
        {
            spec.name: (spec.rows, {n: c.distinct for n, c in spec.columns.items()})
            for spec in specs
        }
    )


def _workload(shape, size, rng):
    if shape == "chain":
        return chain_workload(size, rng, 20, 200, local_predicate_probability=0.5)
    if shape == "cycle":
        return cycle_workload(size, rng, 20, 200)
    if shape == "clique":
        return clique_workload(size, rng, 20, 200)
    if shape == "star":
        return star_workload(size - 1, rng, (200, 1000), (20, 200))
    return snowflake_workload(*_SNOWFLAKE[size], rng, (200, 1000), (20, 200), (10, 50))


def _compare(query, catalog, widths, rows, config, closure, methods, enumerator):
    """Assert identical plans and no extra estimator steps; return the plan."""
    reference, priced = REFERENCES[enumerator]
    model = CostModel()
    expected_counter = _Counting(JoinSizeEstimator(query, catalog, config, closure))
    expected = reference(expected_counter, model, widths, rows, methods)
    counter = _Counting(JoinSizeEstimator(query, catalog, config, closure))
    plan = priced(counter, model, widths, rows, methods)
    assert explain(plan) == explain(expected)
    assert repr(plan.estimated_cost) == repr(expected.estimated_cost)
    if counter.order_independent:
        # One estimate per subset: a node keeps the rows of its subset's
        # first visited option, which may round differently in the last
        # bits from the reference winner's own order.
        nodes, reference_nodes = joins_of(plan), joins_of(expected)
        assert len(nodes) == len(reference_nodes)
        for node, reference_node in zip(nodes, reference_nodes):
            assert node.estimated_rows == pytest.approx(
                reference_node.estimated_rows, rel=1e-12, abs=0.0
            )
    else:
        assert plan == expected
    assert counter.steps <= expected_counter.steps
    return plan, counter.steps, expected_counter.steps


CASES = [
    (shape, size)
    for shape in ("chain", "star", "snowflake", "cycle", "clique")
    for size in range(2, 8)
    if not (shape == "cycle" and size < 3)
]


@pytest.mark.parametrize("shape,size", CASES)
def test_priced_enumerators_match_exhaustive_reference(shape, size):
    saved = 0
    for seed in range(2):
        workload = _workload(shape, size, random.Random(1000 * size + seed))
        catalog = _catalog(workload.specs)
        widths = {spec.name: 8 * len(spec.columns) for spec in workload.specs}
        rows = {spec.name: spec.rows for spec in workload.specs}
        for config_name, config in CONFIGS.items():
            # SM's paper row also runs without transitive closure, which
            # leaves chain subsets like {T1, T3} cartesian.
            closures = (True, False) if config_name == "SM" else (True,)
            for closure, methods, enumerator in itertools.product(
                closures, METHOD_SETS.values(), REFERENCES
            ):
                _, steps, reference_steps = _compare(
                    workload.query, catalog, widths, rows, config, closure,
                    methods, enumerator,
                )
                saved += reference_steps - steps
    if size >= 4:
        # The cut does skip estimator steps on every shape from 4 relations.
        assert saved > 0


def _two_way(rows_a, rows_b):
    query = Query.build(
        ["B", "A"], [join_predicate("A", "k", "B", "k")], Projection(count_star=True)
    )
    catalog = Catalog.from_stats({"A": (rows_a, {"k": 50}), "B": (rows_b, {"k": 50})})
    return query, catalog, {"A": 8, "B": 8}, {"A": rows_a, "B": rows_b}


@pytest.mark.parametrize("enumerator", sorted(REFERENCES))
def test_symmetric_sort_merge_tie_breaks_on_leaf_order(enumerator):
    # Equal inputs make sort-merge's cost formula tie exactly between the
    # two mirror orders, and the tied option's floor equals the best
    # total: the cut must still estimate it, and leaf order decides.
    query, catalog, widths, rows = _two_way(5000, 5000)
    plan, steps, reference_steps = _compare(
        query, catalog, widths, rows, ELS, True, (JoinMethod.SORT_MERGE,), enumerator
    )
    assert plan.method is JoinMethod.SORT_MERGE
    if enumerator != "greedy":  # greedy keeps the first of tied starts
        assert (plan.left.relation, plan.right.relation) == ("A", "B")
        # ELS estimates {A, B} once; the mirror order reuses that estimate.
        assert (steps, reference_steps) == (1, 2)


def test_star_whose_best_plan_starts_with_a_cartesian_product():
    # Two tiny dimensions on separate fact columns share no predicate, so
    # {D1, D2} forms only as a cartesian product; the fact table is large
    # enough that crossing the dimensions first is the cheapest plan.
    query = Query.build(
        ["F", "D1", "D2"],
        [join_predicate("F", "a", "D1", "a"), join_predicate("F", "b", "D2", "b")],
        Projection(count_star=True),
    )
    catalog = Catalog.from_stats(
        {
            "F": (200000, {"a": 4, "b": 4}),
            "D1": (2, {"a": 2}),
            "D2": (2, {"b": 2}),
        }
    )
    widths = {name: catalog.schema(name).row_width_bytes for name in query.tables}
    rows = {name: catalog.stats(name).row_count for name in query.tables}
    for methods, enumerator in itertools.product(METHOD_SETS.values(), ("dp", "dp-bushy")):
        plan, _, _ = _compare(query, catalog, widths, rows, ELS, True, methods, enumerator)
        crossed = [c for c in (plan.left, plan.right) if c.tables == {"D1", "D2"}]
        assert len(crossed) == 1 and crossed[0].is_cartesian


#: The setups the 8- and 9-relation cases run: ELS as ``plan`` runs it, and
#: SM without closure, whose star subsets of dimensions form only as
#: cartesian products, and SSS, an order-dependent rule whose DP runs the
#: estimator for every visited option.
LARGE_SETUPS = {"ELS": (ELS, True), "SM-no-closure": (SM, False), "SSS": (SSS, True)}


@pytest.mark.parametrize("setup", sorted(LARGE_SETUPS))
@pytest.mark.parametrize("enumerator", ["dp", "dp-bushy"])
@pytest.mark.parametrize("shape,size", [(s, n) for s in ("star", "clique") for n in (8, 9)])
def test_priced_dp_matches_exhaustive_reference_at_plan_sizes(shape, size, enumerator, setup):
    # ``plan`` optimizes graphs of up to 9 relations; these are the sizes
    # where each DP level prices hundreds of options in one pass.
    workload = _workload(shape, size, random.Random(1000 * size))
    catalog = _catalog(workload.specs)
    widths = {spec.name: 8 * len(spec.columns) for spec in workload.specs}
    rows = {spec.name: spec.rows for spec in workload.specs}
    config, closure = LARGE_SETUPS[setup]
    _compare(
        workload.query, catalog, widths, rows, config, closure,
        METHOD_SETS["NL+SM"], enumerator,
    )
