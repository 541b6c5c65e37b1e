"""Cooperative deadlines for bounded-latency ground truth.

:mod:`~repro.resilience.deadline` holds :class:`Deadline`, a wall-clock
budget the executors and the exact counter check per row/block, raising a
structured :class:`~repro.errors.DeadlineExceededError` once it is spent.
The evaluation harness turns that error into degraded, estimate-only
records instead of aborting a sweep.
"""

from .deadline import DEFAULT_TICK_INTERVAL, Deadline

__all__ = [
    "DEFAULT_TICK_INTERVAL",
    "Deadline",
]
