"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors from catalog errors and so on.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "ParseError",
    "ResolutionError",
    "CatalogError",
    "StorageError",
    "PlanError",
    "EstimationError",
    "OptimizationError",
    "ExecutionError",
    "InvalidEngineError",
    "WorkloadError",
    "LintError",
    "DiagnosticError",
    "ResilienceError",
    "DeadlineExceededError",
    "RetryExhaustedError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(ReproError):
    """Raised when SQL text cannot be tokenized or parsed.

    Attributes:
        message: Human-readable description of the failure.
        position: Character offset into the source text, when known.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        self.message = message
        self.position = position
        if position >= 0:
            super().__init__(f"{message} (at offset {position})")
        else:
            super().__init__(message)


class ResolutionError(ReproError):
    """Raised when a column reference cannot be resolved against a schema."""


class CatalogError(ReproError):
    """Raised for unknown tables/columns or inconsistent statistics."""


class StorageError(ReproError):
    """Raised by the in-memory storage engine (schema mismatch, bad load)."""


class PlanError(ReproError):
    """Raised when a physical plan is malformed or cannot be constructed."""


class EstimationError(ReproError):
    """Raised when a cardinality estimate cannot be computed.

    Typical causes are referencing a table that is not part of the query or
    asking for an incremental step whose prerequisites were never joined.
    """


class OptimizationError(ReproError):
    """Raised when the join-order optimizer cannot produce a plan."""


class ExecutionError(ReproError):
    """Raised by the execution engine when an operator fails at run time."""


class InvalidEngineError(ExecutionError):
    """Raised when an unknown execution engine name is requested.

    Carried structurally so callers (CLI, benchmark harness, evaluation
    sweeps) can report the valid choices without string-parsing, and so
    the failure happens at configuration time rather than deep inside
    operator construction.

    Attributes:
        engine: The rejected engine name.
        valid_engines: The accepted engine names, in documentation order.
    """

    def __init__(self, engine: str, valid_engines: tuple) -> None:
        self.engine = engine
        self.valid_engines = tuple(valid_engines)
        choices = ", ".join(repr(name) for name in self.valid_engines)
        super().__init__(
            f"unknown execution engine {engine!r}; valid engines are: {choices}"
        )


class WorkloadError(ReproError):
    """Raised for invalid workload parameters or failed workload payloads.

    The generators raise it with a bare message for bad parameter choices.
    The parallel harness additionally attaches *which* payload failed, so a
    sweep that dies after hours names the workload instead of surfacing a
    raw remote traceback.

    Attributes:
        message: Human-readable description of the failure.
        index: Zero-based payload index in the sweep, when known.
        description: Short workload description (joined table names).
    """

    def __init__(
        self,
        message: str,
        index: Optional[int] = None,
        description: Optional[str] = None,
    ) -> None:
        self.message = message
        self.index = index
        self.description = description
        if index is not None:
            where = f"workload[{index}]"
            if description:
                where += f" ({description})"
            super().__init__(f"{where}: {message}")
        else:
            super().__init__(message)


class LintError(ReproError):
    """Raised by the static-analysis engine for unusable inputs.

    Bad lint paths, unreadable files, malformed ``--select`` lists and
    duplicate rule registrations — the *tooling* failures, as opposed to
    the findings themselves, which are reported as diagnostics.  CLI
    subcommands map this to exit code 2 (usage error).
    """


class DiagnosticError(ReproError):
    """Raised when invariant checking finds error-severity diagnostics.

    Carried by the :class:`~repro.core.estimator.JoinSizeEstimator` hook
    (``EstimatorConfig.check_invariants``) and
    :func:`repro.lint.semantic.check_estimator_input`.

    Attributes:
        diagnostics: Every finding of the failed check (warnings included),
            as :class:`repro.lint.diagnostics.Diagnostic` objects.
    """

    def __init__(self, diagnostics: tuple = ()) -> None:
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in self.diagnostics if getattr(d, "severity", None) is not None
                  and d.severity.value == "error"]
        summary = "; ".join(f"{d.code}: {d.message}" for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... ({len(errors) - 3} more)"
        super().__init__(
            f"invariant check failed with {len(errors)} error(s): {summary}"
            if errors
            else "invariant check failed"
        )


class ResilienceError(ReproError):
    """Base class for fault-tolerance failures (:mod:`repro.resilience`).

    Groups deadline, retry, and checkpoint errors so callers can treat
    "the runtime degraded" separately from "the computation is wrong".
    """


class DeadlineExceededError(ResilienceError):
    """Raised by a cooperative cancellation check once a deadline expires.

    Attributes:
        budget_s: The deadline's total budget in seconds.
        elapsed_s: Seconds elapsed when the check fired.
        label: Where the check fired (operator label or call site), when known.
    """

    def __init__(self, budget_s: float, elapsed_s: float, label: str = "") -> None:
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        self.label = label
        where = f" in {label}" if label else ""
        super().__init__(
            f"deadline of {budget_s:.3f}s exceeded after {elapsed_s:.3f}s{where}"
        )


class RetryExhaustedError(ResilienceError):
    """Raised when every attempt allowed by a retry policy has failed.

    Attributes:
        attempts: How many attempts were made.
        last_error: The error of the final attempt, when available.
    """

    def __init__(
        self,
        message: str,
        attempts: int = 0,
        last_error: Optional[BaseException] = None,
    ) -> None:
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"{message} (after {attempts} attempt(s))" if attempts else message
        )


class CheckpointError(ResilienceError):
    """Raised for unreadable or structurally invalid checkpoint files."""
