"""Error propagation with the number of joins (after Ioannidis &
Christodoulakis [4], which the paper cites for single-equivalence-class
queries).

Chain queries put every join column into one equivalence class — exactly
the setting where Rule M multiplies redundant selectivities and its error
explodes multiplicatively with each added join, while Rule LS tracks the
closed form.  This harness quantifies that: for random chains of increasing
length it records, per algorithm and per prefix length ``k``, the error of
the estimated k-table result size against the executed truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.estimator import build_estimators
from ..workloads.generator import build_database
from ..workloads.queries import chain_workload
from .harness import PAPER_ALGORITHMS, AlgorithmSpec, prefix_query
from .metrics import ErrorSummary, log10_ratio, q_error, summarize_errors
from .truth import true_join_size

__all__ = ["PropagationPoint", "run_error_propagation"]


@dataclass(frozen=True)
class PropagationPoint:
    """Aggregated error for one (algorithm, number of joins) cell."""

    algorithm: str
    num_joins: int
    q_errors: ErrorSummary
    mean_log10_ratio: float


def run_error_propagation(
    max_tables: int = 6,
    trials: int = 10,
    seed: int = 0,
    algorithms: Iterable[AlgorithmSpec] = PAPER_ALGORITHMS,
    min_rows: int = 100,
    max_rows: int = 1000,
    local_predicate_probability: float = 0.3,
) -> List[PropagationPoint]:
    """Measure estimation error as chains grow from 2 to ``max_tables``.

    Each trial draws a fresh random chain (sizes, cardinalities, local
    predicates); every prefix of the chain is executed for its true size
    and estimated by every algorithm.  Errors are aggregated per
    (algorithm, prefix length).

    Returns points ordered by algorithm then join count, ready to print as
    the X-ERR benchmark table.
    """
    algorithm_list = list(algorithms)
    rng = random.Random(seed)
    cells: Dict[Tuple[str, int], List[float]] = {}
    logs: Dict[Tuple[str, int], List[float]] = {}

    for trial in range(trials):
        workload = chain_workload(
            max_tables,
            rng,
            min_rows=min_rows,
            max_rows=max_rows,
            local_predicate_probability=local_predicate_probability,
        )
        database = build_database(workload.specs, seed=seed * 1000 + trial)
        order = list(workload.query.tables)
        built = build_estimators(
            workload.query,
            database.catalog,
            [(spec.config, spec.apply_closure) for spec in algorithm_list],
        )
        estimators = {spec.name: est for spec, est in zip(algorithm_list, built)}
        for k in range(2, max_tables + 1):
            prefix = order[:k]
            actual = true_join_size(prefix_query(workload.query, prefix), database)
            for spec in algorithm_list:
                estimate = estimators[spec.name].estimate(prefix)
                key = (spec.name, k - 1)  # k tables = k-1 joins
                cells.setdefault(key, []).append(q_error(estimate, actual))
                logs.setdefault(key, []).append(log10_ratio(estimate, actual))

    points: List[PropagationPoint] = []
    for spec in algorithm_list:
        for k in range(1, max_tables):
            key = (spec.name, k)
            if key not in cells:
                continue
            points.append(
                PropagationPoint(
                    algorithm=spec.name,
                    num_joins=k,
                    q_errors=summarize_errors(cells[key]),
                    mean_log10_ratio=sum(logs[key]) / len(logs[key]),
                )
            )
    return points
