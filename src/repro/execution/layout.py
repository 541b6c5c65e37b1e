"""Row layouts and compiled predicate evaluation for the executor.

A :class:`Layout` names the columns of an operator's output rows (as fully
qualified :class:`~repro.sql.predicates.ColumnRef`) and maps them to tuple
positions.  Predicates are compiled once per operator into closures over
those positions, so the per-row evaluation cost is a couple of tuple
indexing operations rather than repeated dictionary lookups.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import ExecutionError
from ..sql.predicates import ColumnRef, ComparisonPredicate, Literal, Op

__all__ = [
    "JoinCondition",
    "Layout",
    "compile_predicate",
    "compile_conjunction",
    "compile_join_condition",
    "operator_function",
    "split_join_condition",
]

Row = Tuple


class Layout:
    """An ordered list of fully qualified columns with O(1) position lookup."""

    def __init__(self, columns: Sequence[ColumnRef]) -> None:
        self._columns = tuple(columns)
        self._index: Dict[ColumnRef, int] = {}
        for position, column in enumerate(self._columns):
            if column in self._index:
                raise ExecutionError(f"duplicate column {column} in layout")
            self._index[column] = position

    @property
    def columns(self) -> Tuple[ColumnRef, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, column: ColumnRef) -> bool:
        return column in self._index

    def position(self, column: ColumnRef) -> int:
        if column not in self._index:
            raise ExecutionError(f"column {column} is not in layout {self._columns}")
        return self._index[column]

    def concat(self, other: "Layout") -> "Layout":
        """The layout of a join output: left columns then right columns."""
        return Layout(self._columns + other.columns)

    def compile_resolver(self) -> Callable[[ColumnRef], int]:
        """A compiled column-index resolver: ``ColumnRef -> position``.

        Binds the position table into a closure once, so hot code (the
        columnar engine resolves every predicate and join-key column
        through this) pays a single dict lookup per resolution with no
        attribute traffic and a uniform error path.
        """
        index = dict(self._index)
        columns = self._columns

        def resolve(column: ColumnRef) -> int:
            try:
                return index[column]
            except KeyError:
                raise ExecutionError(
                    f"column {column} is not in layout {columns}"
                ) from None

        return resolve

    def __repr__(self) -> str:
        return f"Layout({', '.join(str(c) for c in self._columns)})"


_OPERATOR_FUNCS = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}


def operator_function(op: Op) -> Callable[[object, object], bool]:
    """The two-argument comparison function for a predicate operator."""
    return _OPERATOR_FUNCS[op]


def compile_predicate(
    predicate: ComparisonPredicate, layout: Layout
) -> Callable[[Row], bool]:
    """Compile a predicate into a closure over one row layout.

    Both operands must be resolvable in the layout (single-relation rows or
    already-joined rows).
    """
    func = _OPERATOR_FUNCS[predicate.op]
    left_pos = layout.position(predicate.left)
    if isinstance(predicate.right, Literal):
        constant = predicate.right.value
        return lambda row: func(row[left_pos], constant)
    right_pos = layout.position(predicate.right)
    return lambda row: func(row[left_pos], row[right_pos])


def compile_conjunction(
    predicates: Sequence[ComparisonPredicate], layout: Layout
) -> Callable[[Row], bool]:
    """Compile a conjunction of predicates into a single closure."""
    compiled = [compile_predicate(p, layout) for p in predicates]
    if not compiled:
        return lambda row: True
    if len(compiled) == 1:
        return compiled[0]

    def evaluate(row: Row) -> bool:
        return all(check(row) for check in compiled)

    return evaluate


class JoinCondition:
    """A compiled join condition: equi-key positions plus residual check.

    Attributes:
        keys: (left-position, right-position) pairs of cross-input equality
            predicates — the hash/merge keys.
        residual: Evaluates every non-key predicate given the left and
            right rows separately (always-true when ``has_residual`` is
            False).
        has_residual: Whether any non-key predicate exists.  The columnar
            engine uses this to decide between the vectorized hash join
            (pure equi-join) and the row-engine fallback.
    """

    __slots__ = ("keys", "residual", "has_residual")

    def __init__(
        self,
        keys: List[Tuple[int, int]],
        residual: Callable[[Row, Row], bool],
        has_residual: bool,
    ) -> None:
        self.keys = keys
        self.residual = residual
        self.has_residual = has_residual


def compile_join_condition(
    predicates: Sequence[ComparisonPredicate],
    left: Layout,
    right: Layout,
) -> Tuple[
    List[Tuple[int, int]],
    Callable[[Row, Row], bool],
]:
    """Split join predicates into equi-key positions and a residual check.

    Returns:
        A pair ``(keys, residual)``: ``keys`` is a list of (left-position,
        right-position) pairs for equality predicates with one side in each
        input — the hash/merge keys; ``residual`` evaluates every remaining
        predicate given the left row and right row separately (so the
        operators can check it before materializing the concatenated row).

    Raises:
        ExecutionError: if a predicate references columns outside the two
            inputs.
    """
    condition = split_join_condition(predicates, left, right)
    return condition.keys, condition.residual


def split_join_condition(  # els: hot=no
    predicates: Sequence[ComparisonPredicate],
    left: Layout,
    right: Layout,
) -> JoinCondition:
    """Like :func:`compile_join_condition`, exposing residual presence.

    Pinned cold (``hot=no``): this runs once per operator construction to
    *build* the per-predicate row closures; only the closures themselves
    run per row, so the lambda allocations here are intentional.

    Raises:
        ExecutionError: if a predicate references columns outside the two
            inputs.
    """
    keys: List[Tuple[int, int]] = []
    residual_parts: List[Callable[[Row, Row], bool]] = []
    for predicate in predicates:
        right_operand = predicate.right
        if isinstance(right_operand, Literal):
            func = _OPERATOR_FUNCS[predicate.op]
            constant = right_operand.value
            if predicate.left in left:
                pos = left.position(predicate.left)
                residual_parts.append(
                    lambda lr, rr, pos=pos, f=func, c=constant: f(lr[pos], c)
                )
            else:
                pos = right.position(predicate.left)
                residual_parts.append(
                    lambda lr, rr, pos=pos, f=func, c=constant: f(rr[pos], c)
                )
            continue
        left_col, right_col = predicate.left, right_operand
        if left_col in left and right_col in right:
            l_pos, r_pos = left.position(left_col), right.position(right_col)
            swapped = False
        elif left_col in right and right_col in left:
            l_pos, r_pos = left.position(right_col), right.position(left_col)
            swapped = True
        elif left_col in left and right_col in left:
            func = _OPERATOR_FUNCS[predicate.op]
            a, b = left.position(left_col), left.position(right_col)
            residual_parts.append(lambda lr, rr, a=a, b=b, f=func: f(lr[a], lr[b]))
            continue
        elif left_col in right and right_col in right:
            func = _OPERATOR_FUNCS[predicate.op]
            a, b = right.position(left_col), right.position(right_col)
            residual_parts.append(lambda lr, rr, a=a, b=b, f=func: f(rr[a], rr[b]))
            continue
        else:
            raise ExecutionError(
                f"join predicate {predicate} references columns outside its inputs"
            )
        if predicate.op is Op.EQ:
            keys.append((l_pos, r_pos))
        else:
            op = predicate.op.flipped if swapped else predicate.op
            func = _OPERATOR_FUNCS[op]
            residual_parts.append(
                lambda lr, rr, a=l_pos, b=r_pos, f=func: f(lr[a], rr[b])
            )

    if residual_parts:
        def residual(left_row: Row, right_row: Row) -> bool:
            return all(part(left_row, right_row) for part in residual_parts)
    else:
        def residual(left_row: Row, right_row: Row) -> bool:
            return True

    return JoinCondition(keys, residual, bool(residual_parts))
