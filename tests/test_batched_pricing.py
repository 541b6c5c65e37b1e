"""The batched join-cost formulas price every lane as the scalar model does.

The DP prices a whole level of options in one numpy pass over
``CostModel._nested_loops``, ``_sort_merge`` and ``_hash``; the public
``nested_loops_cost``, ``sort_merge_cost`` and ``hash_cost`` run the same
formulas over a batch of one.  Hypothesis checks, over cost models and
inputs that reach the branches the ``plan`` pool never does (an inner
larger than the buffer: multi-pass nested loops and Grace hash; a
multi-level merge sort; rows of 0, below 1 and above 1e9), that every lane
of a batch is bit-identical (``repr``) to the public method's result for
that pair and to the scalar formulas written out below, with ``int`` page
counts as ``CostModel.pages`` returns them.  Pages above 2**53 are
included: there an exact integer product and a float product differ.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.optimizer import CostModel
from repro.optimizer.cost import _columns, _Input

# -- the formulas written out over Python numbers ------------------------------


def _pages(model, rows, width):
    # An ``int``, as ``CostModel.pages`` returns it: sums and products of
    # page counts are exact until the formula adds a float.
    if rows <= 0:
        return 0.0
    return math.ceil(rows / max(1.0, model.page_size / max(1, width)))


def _sort_io(model, pages):
    if pages <= 1:
        return pages
    fan_in = max(2, model.buffer_pages - 1)
    runs = max(1.0, math.ceil(pages / max(1, model.buffer_pages)))
    merge_levels = max(1.0, math.ceil(math.log(runs, fan_in))) if runs > 1 else 1.0
    return 2.0 * pages * merge_levels


def _n_log_n(rows):
    return rows if rows <= 1 else rows * math.log2(rows)


def _nested_loops(model, outer_rows, outer_pages, inner_rows, inner_pages):
    if inner_pages <= model.buffer_pages:
        io = outer_pages + inner_pages
    else:
        passes = max(1.0, math.ceil(outer_pages / max(1, model.buffer_pages - 1)))
        io = outer_pages + passes * inner_pages
    return io + model.cpu_weight * outer_rows * inner_rows


def _sort_merge(model, outer_rows, outer_pages, inner_rows, inner_pages):
    io = _sort_io(model, outer_pages) + _sort_io(model, inner_pages)
    io += outer_pages + inner_pages
    cpu = model.cpu_weight * (
        _n_log_n(outer_rows) + _n_log_n(inner_rows) + outer_rows + inner_rows
    )
    return io + cpu


def _hash(model, outer_rows, outer_pages, inner_rows, inner_pages):
    if inner_pages <= model.buffer_pages:
        io = outer_pages + inner_pages
    else:
        io = 3.0 * (outer_pages + inner_pages)
    return io + model.cpu_weight * (outer_rows + inner_rows)


def _written_out(model, formula, outer_rows, outer_width, inner_rows, inner_width):
    return formula(
        model,
        outer_rows,
        _pages(model, outer_rows, outer_width),
        inner_rows,
        _pages(model, inner_rows, inner_width),
    )


METHODS = {
    "nested loops": (CostModel._nested_loops, "nested_loops_cost", _nested_loops),
    "sort merge": (CostModel._sort_merge, "sort_merge_cost", _sort_merge),
    "hash": (CostModel._hash, "hash_cost", _hash),
}

# -- strategies -------------------------------------------------------------------

models = st.builds(
    CostModel,
    page_size=st.sampled_from([512, 4096, 8192]),
    buffer_pages=st.integers(2, 128),
    cpu_weight=st.sampled_from([0.0, 0.001, 0.25]),
)
rows = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=0.999),
    st.integers(1, 10**6).map(float),
    st.floats(min_value=1e9, max_value=1e13),
)
inputs = st.tuples(rows, st.integers(1, 5000))


@settings(max_examples=150, deadline=None)
@given(model=models, pairs=st.lists(st.tuples(inputs, inputs), min_size=1, max_size=12))
# A 2e6-page inner spills the buffer (multi-pass nested loops, Grace hash)
# and needs a multi-level merge sort with 4 buffer pages.
@example(model=CostModel(buffer_pages=4), pairs=[((5e5, 64), (1e9, 8))])
@example(model=CostModel(), pairs=[((0.0, 8), (0.5, 8)), ((2e9, 40), (0.0, 16))])
# ``passes * inner pages`` is about 1.5e20, past float's exact integers.
@example(model=CostModel(), pairs=[((46797809051.78539, 3458), (218521525965.6321, 4323))])
def test_every_lane_matches_the_scalar_methods(model, pairs):
    outer = _Input(*_columns([model._input(r, w) for (r, w), _ in pairs]))
    inner = _Input(*_columns([model._input(r, w) for _, (r, w) in pairs]))
    for batched, public, formula in METHODS.values():
        lanes = batched(model, outer, inner).tolist()
        assert len(lanes) == len(pairs)
        for lane, ((outer_rows, outer_width), (inner_rows, inner_width)) in zip(
            lanes, pairs
        ):
            scalar = getattr(model, public)(outer_rows, outer_width, inner_rows, inner_width)
            assert repr(lane) == repr(scalar)
            assert repr(lane) == repr(
                _written_out(model, formula, outer_rows, outer_width, inner_rows, inner_width)
            )


def test_examples_reach_the_branches_the_plan_pool_does_not():
    model = CostModel(buffer_pages=4)
    outer, inner = model._input(5e5, 64), model._input(1e9, 8)
    assert inner.pages > model.buffer_pages  # multi-pass nested loops, Grace hash
    assert outer.passes > 1
    assert inner.sort_io > 2.0 * inner.pages  # more than one merge level
