"""Equivalence classes of columns linked by equality predicates.

Section 2 of the paper: "Initially, each column is an equivalence class by
itself.  When an equality (local or join) predicate is seen during query
optimization, the equivalence classes corresponding to the two columns on
each side of the equality are merged."

The structure is a classic union–find (disjoint-set) over
:class:`~repro.sql.predicates.ColumnRef` with union by size and path
compression.  Estimators use it to

* group eligible join predicates that belong to one class (Rules SS/LS
  operate per group),
* detect single-table j-equivalent column groups (Section 6), and
* drive the equality part of predicate transitive closure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..sql.predicates import ColumnRef, ComparisonPredicate, Op

__all__ = ["EquivalenceClasses"]


class _PartitionIndex:
    """Every partition query answered once: the sorted classes, each
    registered column's class and class identifier, and each table's
    Section 6 groups."""

    __slots__ = ("classes", "class_of", "class_id", "table_groups")

    def __init__(self, parent: Dict[ColumnRef, ColumnRef], find) -> None:
        by_root: Dict[ColumnRef, List[ColumnRef]] = {}
        for column in parent:
            by_root.setdefault(find(column), []).append(column)
        groups = sorted((frozenset(group) for group in by_root.values()), key=min)
        self.classes: Tuple[FrozenSet[ColumnRef], ...] = tuple(groups)
        self.class_of: Dict[ColumnRef, FrozenSet[ColumnRef]] = {}
        self.class_id: Dict[ColumnRef, ColumnRef] = {}
        by_table: Dict[str, List[FrozenSet[ColumnRef]]] = {}
        for group in groups:
            smallest = min(group)
            local: Dict[str, List[ColumnRef]] = {}
            for column in group:
                self.class_of[column] = group
                self.class_id[column] = smallest
                local.setdefault(column.table, []).append(column)
            for table, columns in local.items():
                if len(columns) > 1:
                    by_table.setdefault(table, []).append(frozenset(columns))
        self.table_groups: Dict[str, Tuple[FrozenSet[ColumnRef], ...]] = {
            table: tuple(sorted(table_groups, key=min))
            for table, table_groups in by_table.items()
        }


class EquivalenceClasses:
    """Union–find over column references.

    Columns never seen by :meth:`add` or :meth:`union` are implicitly
    singleton classes; queries against them are well defined.

    The partition queries (:meth:`class_id`, :meth:`members`,
    :meth:`classes`, :meth:`single_table_groups`) read an index built
    lazily on the first such query: the sorted classes, a column → class
    map and every table's Section 6 groups.  An :meth:`add` of a new
    column or a :meth:`union` of two classes drops the index, so the next
    query rebuilds it; :meth:`find`'s path compression leaves the
    partition, and so the index, as it is.
    """

    def __init__(self) -> None:
        self._parent: Dict[ColumnRef, ColumnRef] = {}
        self._size: Dict[ColumnRef, int] = {}
        self._index: Optional[_PartitionIndex] = None

    @classmethod
    def from_predicates(
        cls, predicates: Iterable[ComparisonPredicate]
    ) -> "EquivalenceClasses":
        """Build classes by merging on every column=column equality.

        Non-equality predicates and constant predicates do not merge
        classes (their columns are still registered so that ``columns()``
        reports everything the query touches).
        """
        classes = cls()
        for predicate in predicates:
            for column in predicate.columns:
                classes.add(column)
            if predicate.op is Op.EQ and isinstance(predicate.right, ColumnRef):
                classes.union(predicate.left, predicate.right)
        return classes

    def add(self, column: ColumnRef) -> None:
        """Register a column as (at least) a singleton class."""
        if column not in self._parent:
            self._parent[column] = column
            self._size[column] = 1
            self._index = None

    def union(self, a: ColumnRef, b: ColumnRef) -> None:
        """Merge the classes of two columns (adding them if unseen)."""
        self.add(a)
        self.add(b)
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._index = None

    def find(self, column: ColumnRef) -> ColumnRef:
        """The class representative for a column (path-compressing)."""
        if column not in self._parent:
            return column
        root = column
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[column] != root:
            self._parent[column], column = root, self._parent[column]
        return root

    def same(self, a: ColumnRef, b: ColumnRef) -> bool:
        """True when the two columns are j-equivalent."""
        return self.find(a) == self.find(b)

    def _partition(self) -> _PartitionIndex:
        if self._index is None:
            self._index = _PartitionIndex(self._parent, self.find)
        return self._index

    def class_id(self, column: ColumnRef) -> ColumnRef:
        """A stable identifier for the class of a column.

        The identifier is the lexicographically smallest member, so it does
        not depend on union order — tests and reports can rely on it.
        """
        return self._partition().class_id.get(column, column)

    def members(self, column: ColumnRef) -> FrozenSet[ColumnRef]:
        """All columns in the same class as the argument (empty for a
        column never registered)."""
        return self._partition().class_of.get(column, frozenset())

    def columns(self) -> Tuple[ColumnRef, ...]:
        """All registered columns, sorted."""
        return tuple(sorted(self._parent))

    def classes(self) -> Tuple[FrozenSet[ColumnRef], ...]:
        """All classes (including singletons), deterministically ordered."""
        return self._partition().classes

    def nontrivial_classes(self) -> Tuple[FrozenSet[ColumnRef], ...]:
        """Classes with at least two members (the ones that matter)."""
        return tuple(g for g in self.classes() if len(g) > 1)

    def single_table_groups(self, table: str) -> Tuple[FrozenSet[ColumnRef], ...]:
        """Groups of two or more j-equivalent columns within one table.

        These are exactly the Section 6 special cases: each group triggers
        the effective-cardinality reduction and the urn-model effective
        column cardinality.
        """
        return self._partition().table_groups.get(table, ())

    def __len__(self) -> int:
        return len(self.classes())

    def __repr__(self) -> str:
        parts = [
            "{" + ", ".join(str(c) for c in sorted(group)) + "}"
            for group in self.classes()
        ]
        return f"EquivalenceClasses({', '.join(parts)})"
