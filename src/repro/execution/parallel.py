"""Morsel-driven parallel execution tier.

The columnar engine (:mod:`repro.execution.columnar`) is single-threaded:
one Python loop probes the whole join input.  This module adds the
``"parallel"`` engine on top of the same block model, organised around
*morsels* — fixed-size row ranges that are the unit of scheduling,
deadline accounting, and fault recovery:

* :class:`FusedScanFilterOp` fuses scan → filter (→ project, for
  single-table plans) into one operator that streams morsels through the
  compiled block predicates, with a cooperative
  :class:`~repro.resilience.deadline.Deadline` tick per morsel and no
  intermediate materialization between the fused stages.
* :class:`ParallelHashJoinOp` is a partitioned hash join.  It keeps the
  columnar engine's build-on-smaller policy and stats accounting, then
  picks the cheapest of three probe strategies:

  1. **Index probe** — when the probe side is a bare table scan and the
     build side is much smaller than the probe, walk the storage layer's
     cached :meth:`~repro.storage.table.Table.value_index` once per
     *distinct build key* instead of once per probe row.
  2. **Fan-out probe** — for huge probes on multi-core machines, radix
     partition the build keys (:func:`radix_partition`), ship both key
     columns through one shared-memory segment
     (:mod:`repro.execution.shm`), and fan probe morsels across a
     ``ProcessPoolExecutor``.  Workers build per-partition hash tables
     lazily and return matched index pairs; the parent reassembles them
     in morsel order, so results are byte-identical to the serial path.
     A worker crash breaks the pool, not the query: the parent re-spawns
     the pool and retries up to :data:`MAX_FANOUT_ATTEMPTS` times before
     surfacing :class:`~repro.errors.WorkloadError`.
  3. **Serial morsel kernel** — everything else: an adaptive two-pass
     loop that prefilters each morsel with a C-level membership pass and
     falls back to the classic per-row loop when the first morsel shows
     the prefilter cannot pay for itself.

Every strategy emits matches as (ascending probe index, build matches in
build-insertion order) — exactly the order the columnar probe loop
produces — and charges the columnar engine's stats formulas, so the
differential suite can assert all three engines agree operator by
operator.

Determinism: the fan-out fault hook (:data:`MORSEL_FAULT_ENV`) is driven
by an explicit ``ordinal:attempt`` spec, never by randomness, so chaos
tests replay exactly.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from itertools import compress, count
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ExecutionError, WorkloadError
from ..sql.predicates import ColumnRef, ComparisonPredicate
from ..storage.table import Table
from .columnar import (
    Column,
    ColumnBlock,
    ColumnarHashJoinOp,
    ColumnarOperator,
    GatherBlock,
    JoinBlock,
    MaterializedBlock,
    ProjectBlock,
    compile_block_predicate,
)
from .layout import Layout
from .metrics import ExecutionMetrics
from .shm import ColumnShipment, Descriptor, encode_int64, read_shipment

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "DEFAULT_RADIX_BITS",
    "FANOUT_MIN_PROBE_ROWS",
    "FusedScanFilterOp",
    "INDEX_FANIN",
    "INDEX_MIN_PROBE_ROWS",
    "MAX_FANOUT_ATTEMPTS",
    "MORSEL_FAULT_ENV",
    "ParallelHashJoinOp",
    "radix_partition",
]

#: Rows per morsel: the unit of scheduling, deadline ticks, and fan-out tasks.
DEFAULT_MORSEL_ROWS = 16384

#: Radix bits for partitioned build tables; 4 bits -> 16 partitions.
DEFAULT_RADIX_BITS = 4

#: Probe sizes below this never fan out: pool spawn plus shared-memory
#: round-trips cost more than probing this few rows in-process.
FANOUT_MIN_PROBE_ROWS = 1 << 17

#: Probe sizes below this never use the index path (index walk overhead
#: beats the plain loop only once the probe side dwarfs the build side).
INDEX_MIN_PROBE_ROWS = 4096

#: Index probe requires ``distinct build keys * INDEX_FANIN <= probe rows``:
#: the probe side must be at least this many times wider than the build
#: side's key domain for per-distinct-key lookups to win.
INDEX_FANIN = 16

#: Pool re-spawn attempts after worker crashes before giving up.
MAX_FANOUT_ATTEMPTS = 3

#: Deterministic fault hook: ``"ordinal:attempt[,ordinal:attempt...]"``
#: crashes the worker running that morsel ordinal on that attempt.
MORSEL_FAULT_ENV = "REPRO_MORSEL_FAULT"

#: Prefilter is abandoned when the first morsel's hit rate exceeds this:
#: on high-match probes the membership pre-pass is pure overhead.
PREFILTER_MAX_HIT_RATE = 0.5


def radix_partition(keys: Sequence[int], bits: int) -> Tuple[array, ...]:
    """Partition row indices by the low ``bits`` of their key values.

    Returns ``2**bits`` index arrays; row ``i`` lands in partition
    ``keys[i] & (2**bits - 1)``.  Partitioning on value bits (not
    ``hash()``) keeps the assignment identical across worker processes
    regardless of ``PYTHONHASHSEED``; Python's ``&`` on negative ints is
    arithmetic modulo ``2**bits``, so negative keys partition fine.

    Raises:
        ExecutionError: if ``bits`` is negative.
    """
    if bits < 0:
        raise ExecutionError(f"radix bits must be non-negative, got {bits}")
    mask = (1 << bits) - 1
    buckets = tuple(array("q") for _ in range(1 << bits))
    for index, value in enumerate(keys):
        buckets[value & mask].append(index)
    return buckets


# ---------------------------------------------------------------------------
# Fused scan -> filter -> project.
# ---------------------------------------------------------------------------


class FusedScanFilterOp(ColumnarOperator):
    """One operator running a scan, its conjunction filter, and (for
    single-table plans) the final projection, morsel at a time.

    The fused stages share one pass: each morsel's candidate indices flow
    straight through the compiled block predicates with a deadline tick
    per morsel, and only the surviving index vector is kept — no
    intermediate block is materialized between scan and filter.  Stats
    parity with the unfused engines is preserved by registering one
    :class:`~repro.execution.metrics.OperatorStats` per *logical*
    operator (``scan(R)``, ``filter``, ``project``) and charging each the
    exact formula its standalone counterpart uses.

    The operator also backs the parallel join's index-probe path: when it
    wraps a bare table scan (no predicates, no projection), it can hand
    out the storage layer's cached value index (:meth:`probe_index`).
    """

    def __init__(
        self,
        relation: str,
        table: Table,
        metrics: ExecutionMetrics,
        pages: float = 0.0,
        predicates: Sequence[ComparisonPredicate] = (),
        project_columns: Optional[Sequence[ColumnRef]] = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ) -> None:
        self._column_names = table.schema.column_names
        scan_layout = Layout([ColumnRef(relation, c) for c in self._column_names])
        scan_stats = metrics.register(f"scan({relation})")
        super().__init__(scan_layout, scan_stats)
        self._table = table
        self._pages = pages
        self._predicates = tuple(predicates)
        self._checks = [
            compile_block_predicate(p, scan_layout) for p in self._predicates
        ]
        self._filter_stats = (
            metrics.register("filter") if self._predicates else None
        )
        self._project_positions: Optional[List[int]] = None
        self._project_layout: Optional[Layout] = None
        self._project_stats = None
        if project_columns is not None:
            resolve = scan_layout.compile_resolver()
            self._project_positions = [resolve(c) for c in project_columns]
            self._project_layout = Layout(project_columns)
            self._project_stats = metrics.register("project")
        self._morsel_rows = max(1, morsel_rows)
        self._deadline = metrics.deadline

    def probe_index(self, position: int) -> Optional[Mapping[object, Tuple[int, ...]]]:
        """The table's value index for one column, or ``None``.

        Only a *bare* scan may hand out the index: with predicates or a
        projection fused in, table row numbers no longer equal block row
        numbers and an index probe would resurrect filtered rows.
        """
        if self._predicates or self._project_positions is not None:
            return None
        return self._table.value_index(self._column_names[position])

    def _execute(self) -> ColumnBlock:
        source = MaterializedBlock(self._layout, self._table.columns())
        n = source.num_rows
        deadline = self._deadline
        if deadline is not None:
            deadline.check(self._stats.label)
        self._stats.rows_in += n
        self._stats.rows_out += n
        self._stats.pages_read += self._pages
        block: ColumnBlock = source
        if self._filter_stats is not None:
            self._filter_stats.rows_in += n
            self._filter_stats.comparisons += n * max(1, len(self._predicates))
            selected: List[int] = []
            extend = selected.extend
            morsel = self._morsel_rows
            label = self._filter_stats.label
            for start in range(0, n, morsel):
                end = min(start + morsel, n)
                if deadline is not None:
                    deadline.tick(end - start, label)
                candidates: List[int] = list(range(start, end))
                for check in self._checks:
                    candidates = check(source, candidates)
                extend(candidates)
            self._filter_stats.rows_out += len(selected)
            block = GatherBlock(source, selected)
        elif deadline is not None:
            deadline.tick(n, self._stats.label)
        if self._project_positions is not None:
            self._project_stats.rows_in += block.num_rows
            self._project_stats.rows_out += block.num_rows
            block = ProjectBlock(block, self._project_positions, self._project_layout)
        return block


# ---------------------------------------------------------------------------
# Worker-side fan-out machinery (module level: must be picklable by the
# pool and importable after fork/spawn).
# ---------------------------------------------------------------------------


def _maybe_injected_crash(ordinal: int, attempt: int) -> None:
    """Deterministic chaos hook: die hard if this morsel is marked.

    ``REPRO_MORSEL_FAULT="2:1,5:2"`` kills the worker running morsel 2 on
    attempt 1 and morsel 5 on attempt 2 with ``os._exit`` — an abrupt
    death the pool sees as a lost process, exactly like an OOM kill.
    """
    spec = os.environ.get(MORSEL_FAULT_ENV, "")
    if not spec:
        return
    for item in spec.split(","):
        head, _, tail = item.strip().partition(":")
        try:
            if int(head) == ordinal and int(tail) == attempt:
                os._exit(3)
        except ValueError:
            continue


@lru_cache(maxsize=1)
def _shipment_state(descriptor: Descriptor, radix_bits: int) -> Dict[str, object]:
    """Attach to (or reuse) the shipment and its radix partitioning.

    The one-slot ``lru_cache`` is deliberately worker-local: each worker
    attaches the shipment once and reuses it for every morsel it runs,
    while a new shipment (new segment name in the descriptor) evicts the
    old copy so long-lived workers never accumulate dead shipments.  The
    parent never reads this state — results travel via return values.
    """
    sections = read_shipment(descriptor)
    build = sections["build"]
    return {
        "build": build,
        "probe": sections["probe"],
        "partition_rows": radix_partition(build, radix_bits),
        "partition_tables": {},
    }


def _partition_table(state: Dict[str, object], partition: int) -> Dict[int, List[int]]:
    """Build (lazily, once per worker) one partition's hash table."""
    tables: Dict[int, Dict[int, List[int]]] = state["partition_tables"]
    table = tables.get(partition)
    if table is None:
        build: array = state["build"]
        table = {}
        setdefault = table.setdefault
        for j in state["partition_rows"][partition]:
            setdefault(build[j], []).append(j)
        tables[partition] = table
    return table


def _probe_morsel(
    task: Tuple[Descriptor, int, int, int, int, int],
) -> Tuple[int, bytes, bytes]:
    """Probe one morsel inside a pool worker.

    Returns ``(ordinal, probe_indices, build_indices)`` with the index
    vectors packed as int64 bytes — compact on the result pipe and
    order-preserving, so the parent's ordinal-sorted concatenation is
    byte-identical to a serial probe.
    """
    descriptor, start, end, ordinal, radix_bits, attempt = task
    _maybe_injected_crash(ordinal, attempt)
    state = _shipment_state(descriptor, radix_bits)
    probe: array = state["probe"]
    mask = (1 << radix_bits) - 1
    probe_out = array("q")
    build_out = array("q")
    for i in range(start, end):
        value = probe[i]
        matches = _partition_table(state, value & mask).get(value)
        if matches:
            probe_out.extend([i] * len(matches))
            build_out.extend(matches)
    return ordinal, probe_out.tobytes(), build_out.tobytes()


def _pool_context():
    """The pool's start method: ``fork`` where available (cheap, inherits
    the fault-hook environment), the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# The partitioned parallel hash join.
# ---------------------------------------------------------------------------


class ParallelHashJoinOp(ColumnarHashJoinOp):
    """Partitioned morsel-parallel equi hash join.

    Inherits the columnar join's validation (equi keys only, residuals
    rejected), build-on-smaller policy, stats formulas, and late-
    materializing :class:`~repro.execution.columnar.JoinBlock` output;
    only the probe strategy differs (see the module docstring for the
    three paths).  All paths produce the identical match ordering, so the
    engine can switch strategies per join without changing results.
    """

    def __init__(
        self,
        left: ColumnarOperator,
        right: ColumnarOperator,
        predicates: Sequence[ComparisonPredicate],
        metrics: ExecutionMetrics,
        morsel_workers: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        radix_bits: int = DEFAULT_RADIX_BITS,
    ) -> None:
        super().__init__(left, right, predicates, metrics)
        if morsel_workers < 1:
            raise ExecutionError(
                f"morsel_workers must be at least 1, got {morsel_workers}"
            )
        self._morsel_workers = morsel_workers
        self._morsel_rows = max(1, morsel_rows)
        self._radix_bits = radix_bits
        self._last_pool_error: Optional[BaseException] = None

    def _execute(self) -> ColumnBlock:
        left_block = self._left.block()
        right_block = self._right.block()
        n_left = left_block.num_rows
        n_right = right_block.num_rows
        self._stats.rows_in += n_left + n_right
        left_keys, right_keys = self._key_columns(left_block, right_block)
        if n_right <= n_left:
            # Build on the right (smaller), probe from the left.
            left_indices, right_indices = self._dispatch_probe(
                right_keys, left_keys, self._left
            )
        else:
            # Build on the left (smaller), probe from the right.
            right_indices, left_indices = self._dispatch_probe(
                left_keys, right_keys, self._right
            )
        matched = len(left_indices)
        self._stats.comparisons += n_left + matched
        self._stats.rows_out += matched
        return JoinBlock(
            left_block, left_indices, right_block, right_indices, self._layout
        )

    # -- probe strategy selection ---------------------------------------

    def _dispatch_probe(
        self,
        build_keys: Column,
        probe_keys: Column,
        probe_child: ColumnarOperator,
    ) -> Tuple[List[int], List[int]]:
        """Build the hash table, then probe via the cheapest strategy."""
        label = self._stats.label
        deadline = self._deadline
        table: Dict[object, List[int]] = {}
        setdefault = table.setdefault
        for j, value in enumerate(build_keys):
            setdefault(value, []).append(j)
        if deadline is not None:
            deadline.check(label)
            deadline.tick(len(build_keys), label)
        n_probe = len(probe_keys)
        if (
            len(self._keys) == 1
            and n_probe >= INDEX_MIN_PROBE_ROWS
            and len(table) * INDEX_FANIN <= n_probe
        ):
            index = self._probe_side_index(probe_child)
            if index is not None:
                return self._index_probe(table, index)
        if self._fanout_eligible(n_probe):
            build_packed = encode_int64(build_keys)
            probe_packed = (
                encode_int64(probe_keys) if build_packed is not None else None
            )
            if build_packed is not None and probe_packed is not None:
                return self._fanout_probe(build_packed, probe_packed, n_probe)
        return self._serial_probe(table, probe_keys)

    def _probe_side_index(
        self, probe_child: ColumnarOperator
    ) -> Optional[Mapping[object, Tuple[int, ...]]]:
        """The probe side's value index, when it is a bare table scan."""
        supplier = getattr(probe_child, "probe_index", None)
        if supplier is None:
            return None
        if probe_child is self._left:
            position = self._keys[0][0]
        else:
            position = self._keys[0][1]
        return supplier(position)

    def _fanout_eligible(self, n_probe: int) -> bool:
        if self._morsel_workers <= 1 or n_probe < FANOUT_MIN_PROBE_ROWS:
            return False
        # Daemonic processes (e.g. a caller's multiprocessing.Pool
        # workers) cannot spawn children; stay in-process there.
        return not multiprocessing.current_process().daemon

    # -- probe strategies ------------------------------------------------

    def _index_probe(
        self,
        build_table: Dict[object, List[int]],
        index: Mapping[object, Tuple[int, ...]],
    ) -> Tuple[List[int], List[int]]:
        """Probe by walking distinct build keys through the table index.

        O(distinct build keys) index lookups replace O(probe rows) hash
        probes.  Pair lists are re-sorted by probe index before
        expansion; each probe row maps to exactly one key, so first
        elements are unique and the sort never compares the match lists.
        """
        deadline = self._deadline
        label = self._stats.label
        get = index.get
        pairs: List[Tuple[int, List[int]]] = []
        append = pairs.append
        for value, matches in build_table.items():
            if deadline is not None:
                deadline.tick(1, label)
            hits = get(value)
            if hits:
                for i in hits:
                    append((i, matches))
        pairs.sort()
        probe_indices: List[int] = []
        build_indices: List[int] = []
        for i, matches in pairs:
            probe_indices += [i] * len(matches)
            build_indices += matches
        return probe_indices, build_indices

    def _serial_probe(
        self, table: Dict[object, List[int]], probe_keys: Column
    ) -> Tuple[List[int], List[int]]:
        """Adaptive in-process morsel kernel.

        Each morsel is first prefiltered with a C-level membership pass
        (``map(table.__contains__, segment)``), so the Python loop only
        touches matching rows — a big win on selective probes.  If the
        first morsel's hit rate shows most rows match, the prefilter is
        pure overhead and the remaining morsels use the classic per-row
        loop instead.
        """
        deadline = self._deadline
        label = self._stats.label
        get = table.get
        contains = table.__contains__
        probe_indices: List[int] = []
        build_indices: List[int] = []
        n = len(probe_keys)
        morsel = self._morsel_rows
        prefilter = True
        for start in range(0, n, morsel):
            end = min(start + morsel, n)
            if deadline is not None:
                deadline.check(label)
                deadline.tick(end - start, label)
            segment = probe_keys[start:end]
            if prefilter:
                hits = list(compress(count(start), map(contains, segment)))
                for i in hits:
                    matches = get(probe_keys[i])
                    probe_indices += [i] * len(matches)
                    build_indices += matches
                if start == 0 and len(hits) > (end - start) * PREFILTER_MAX_HIT_RATE:
                    prefilter = False
            else:
                for offset, value in enumerate(segment):
                    matches = get(value)
                    if matches:
                        i = start + offset
                        probe_indices += [i] * len(matches)
                        build_indices += matches
        return probe_indices, build_indices

    def _fanout_probe(
        self, build_packed: array, probe_packed: array, n_probe: int
    ) -> Tuple[List[int], List[int]]:
        """Fan probe morsels across a process pool over shared memory.

        The shipment is created once and destroyed in the outer
        ``finally`` (close + unlink on every path); each attempt gets a
        fresh pool that is shut down in its own ``finally``.  A
        ``BrokenProcessPool`` (worker death) retries the whole probe on a
        new pool; persistent crashes surface as
        :class:`~repro.errors.WorkloadError` after
        :data:`MAX_FANOUT_ATTEMPTS` attempts — never a hang.
        """
        label = self._stats.label
        deadline = self._deadline
        morsel = self._morsel_rows
        tasks = [
            (start, min(start + morsel, n_probe), ordinal)
            for ordinal, start in enumerate(range(0, n_probe, morsel))
        ]
        shipment = ColumnShipment.create(
            {"build": build_packed, "probe": probe_packed}
        )
        last_error: Optional[BaseException] = None
        try:
            for attempt in range(1, MAX_FANOUT_ATTEMPTS + 1):
                if deadline is not None:
                    deadline.check(label)
                results = self._run_pool_attempt(shipment, tasks, attempt)
                if results is None:
                    last_error = self._last_pool_error
                    continue
                probe_indices: List[int] = []
                build_indices: List[int] = []
                for ordinal in range(len(tasks)):
                    probe_bytes, build_bytes = results[ordinal]
                    chunk = array("q")
                    chunk.frombytes(probe_bytes)
                    probe_indices.extend(chunk)
                    chunk = array("q")
                    chunk.frombytes(build_bytes)
                    build_indices.extend(chunk)
                return probe_indices, build_indices
        finally:
            shipment.destroy()
        raise WorkloadError(
            f"parallel probe worker crashed in all {MAX_FANOUT_ATTEMPTS} "
            f"pool attempts: {last_error}"
        )

    def _run_pool_attempt(
        self,
        shipment: ColumnShipment,
        tasks: List[Tuple[int, int, int]],
        attempt: int,
    ) -> Optional[Dict[int, Tuple[bytes, bytes]]]:
        """One pool attempt: all morsels, or ``None`` if the pool broke."""
        label = self._stats.label
        deadline = self._deadline
        descriptor = shipment.descriptor
        self._last_pool_error = None
        pool = ProcessPoolExecutor(
            max_workers=self._morsel_workers, mp_context=_pool_context()
        )
        try:
            futures = {
                pool.submit(
                    _probe_morsel,
                    (descriptor, start, end, ordinal, self._radix_bits, attempt),
                ): (ordinal, end - start)
                for start, end, ordinal in tasks
            }
            results: Dict[int, Tuple[bytes, bytes]] = {}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in done:
                    ordinal, rows = futures[future]
                    returned_ordinal, probe_bytes, build_bytes = future.result()
                    results[returned_ordinal] = (probe_bytes, build_bytes)
                    if deadline is not None:
                        deadline.tick(rows, label)
                if deadline is not None:
                    deadline.check(label)
            return results
        except BrokenProcessPool as exc:
            self._last_pool_error = exc
            return None
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
