"""Page-based cost model for scans and the three join methods.

The currency is *page I/Os*, with a small CPU weight per tuple operation to
break ties — the standard System-R-era formulation [13].  Cardinality
estimates flow in from the pluggable join-size estimator; this module turns
(rows, widths) into costs:

* **Scan**: read every page of the base table.
* **Nested loops**: read the outer once; re-read the inner once per
  buffer-full of the outer (block nested loops).
* **Sort merge**: two-pass external sort of both inputs (write + read every
  page, times a log factor for multiway merge levels) plus one merge pass.
* **Hash** (extension): one read of each input plus hashing CPU; assumes
  the build side's hash table fits in memory, else a Grace factor of 3.

The model is deliberately simple.  What the paper's experiment needs from a
cost model is only that *feeding it wrong cardinalities produces bad join
orders and feeding it right cardinalities produces good ones* — absolute
calibration against 1994 hardware is out of scope (see DESIGN.md).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Cost parameters; defaults model a small 1990s buffer pool.

    Attributes:
        page_size: Bytes per page.
        buffer_pages: Pages of buffer available to a join.
        cpu_weight: Page-equivalents charged per tuple comparison/move, the
            ``W`` of Selinger's ``cost = I/O + W * RSI-calls``.
        materialize_output: Charge writing each join's output to a temp
            (and it will be read again by the next join); keeps oversized
            intermediates expensive, which is what bad estimates hide.
    """

    page_size: int = 4096
    buffer_pages: int = 64
    cpu_weight: float = 0.001
    materialize_output: bool = True

    def pages(self, rows: float, row_width: int) -> float:
        """Pages needed to hold ``rows`` tuples of the given width."""
        if rows <= 0:
            return 0.0
        per_page = max(1.0, self.page_size / max(1, row_width))
        return math.ceil(rows / per_page)

    # -- scans -----------------------------------------------------------

    def scan_cost(self, table_rows: float, row_width: int, predicates: int = 0) -> float:
        """Sequential scan plus per-row predicate CPU."""
        io = self.pages(table_rows, row_width)
        cpu = self.cpu_weight * table_rows * max(1, predicates)
        return io + cpu

    # -- joins -------------------------------------------------------------

    def nested_loops_cost(
        self,
        outer_rows: float,
        outer_width: int,
        inner_rows: float,
        inner_width: int,
    ) -> float:
        """Block nested loops over materialized inputs."""
        return self._one(
            CostModel._nested_loops, outer_rows, outer_width, inner_rows, inner_width
        )

    def sort_merge_cost(
        self,
        outer_rows: float,
        outer_width: int,
        inner_rows: float,
        inner_width: int,
    ) -> float:
        """External sort of both inputs plus one merge pass."""
        return self._one(
            CostModel._sort_merge, outer_rows, outer_width, inner_rows, inner_width
        )

    def hash_cost(
        self,
        outer_rows: float,
        outer_width: int,
        inner_rows: float,
        inner_width: int,
    ) -> float:
        """Hash join: in-memory when the build side fits, Grace otherwise."""
        return self._one(
            CostModel._hash, outer_rows, outer_width, inner_rows, inner_width
        )

    def output_cost(self, result_rows: float, result_width: int) -> float:
        """Materializing a join's output (write now, read by the consumer)."""
        if not self.materialize_output:
            return 0.0
        return 2.0 * self.pages(result_rows, result_width) + self.cpu_weight * result_rows

    # -- per-input terms and the batched formulas -------------------------
    #
    # An input's pages, sort I/O, n*log(n) and nested-loops outer passes
    # depend only on its rows and width, so ``_input`` computes them once
    # per input in plain Python; these terms hold every ``ceil``, ``log``
    # and ``log2`` of the model.  ``_nested_loops``, ``_sort_merge`` and
    # ``_hash`` then price joins from columns of such terms, one lane per
    # (outer, inner) pair, with ``+``, ``*``, comparisons and ``where``
    # only, in the association order of the formulas they replaced.  IEEE
    # arithmetic rounds each lane exactly as the same expression over
    # Python numbers would (``_nested_loops`` notes the one integer
    # product that needs care), so a batch of any size gives every lane
    # the double the public ``*_cost`` methods (a batch of one) return.

    def _input(self, rows: float, row_width: int) -> _Input:
        pages = self.pages(rows, row_width)
        passes = max(1.0, math.ceil(pages / max(1, self.buffer_pages - 1)))
        return _Input(rows, pages, self._sort_io(pages), _n_log_n(rows), passes)

    def _sort_io(self, pages: float) -> float:
        if pages <= 1:
            return pages
        fan_in = max(2, self.buffer_pages - 1)
        runs = max(1.0, math.ceil(pages / max(1, self.buffer_pages)))
        merge_levels = max(1.0, math.ceil(math.log(runs, fan_in))) if runs > 1 else 1.0
        return 2.0 * pages * merge_levels

    def _one(
        self,
        formula: Callable[[CostModel, _Input, _Input], np.ndarray],
        outer_rows: float,
        outer_width: int,
        inner_rows: float,
        inner_width: int,
    ) -> float:
        """One join priced by a batched formula over single-lane columns."""
        outer = _Input(*_columns([self._input(outer_rows, outer_width)]))
        inner = _Input(*_columns([self._input(inner_rows, inner_width)]))
        return float(formula(self, outer, inner)[0])

    def _nested_loops(self, outer: _Input, inner: _Input) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            spills = inner.pages > self.buffer_pages
            rereads = outer.passes * inner.pages
            io = np.where(spills, outer.pages + rereads, outer.pages + inner.pages)
            # Page counts are integers, and the scalar model summed
            # ``outer pages + passes * inner pages`` exactly before one
            # rounding.  Below 2**53 the float product is exact too; above,
            # it may round, so those lanes take the sum over Python ints.
            for k in np.flatnonzero(spills & (rereads >= 2.0**53)).tolist():
                io[k] = float(
                    int(outer.pages[k]) + int(outer.passes[k]) * int(inner.pages[k])
                )
            cpu = self.cpu_weight * outer.rows * inner.rows
            return io + cpu

    def _sort_merge(self, outer: _Input, inner: _Input) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            io = outer.sort_io + inner.sort_io + (outer.pages + inner.pages)
            cpu = self.cpu_weight * (
                outer.n_log_n + inner.n_log_n + outer.rows + inner.rows
            )
            return io + cpu

    def _hash(self, outer: _Input, inner: _Input) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            io = np.where(
                inner.pages <= self.buffer_pages,
                outer.pages + inner.pages,
                3.0 * (outer.pages + inner.pages),
            )
            cpu = self.cpu_weight * (outer.rows + inner.rows)
            return io + cpu


class _Input(NamedTuple):
    """One join input's cost terms, or a column of them per field.

    :meth:`CostModel._input` returns the scalar form, ``pages`` being
    :meth:`CostModel.pages`'s value as is; the batched formulas take the
    rows of a :func:`_columns` table, one float64 array per field.
    ``passes`` is how many buffer-fulls the input fills as the outer of a
    nested-loops join, each of which re-reads an inner that spills.
    """

    rows: float
    pages: float
    sort_io: float
    n_log_n: float
    passes: float


def _columns(inputs: Sequence[_Input]) -> np.ndarray:
    """Scalar terms stacked into a float64 table, one row per field."""
    fields = len(_Input._fields)
    flat = np.fromiter(
        itertools.chain.from_iterable(inputs), dtype=float, count=fields * len(inputs)
    )
    return flat.reshape(len(inputs), fields).T


def _n_log_n(rows: float) -> float:
    if rows <= 1:
        return rows
    return rows * math.log2(rows)
