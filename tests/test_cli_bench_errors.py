"""Exit contract of the CLI, and the sweep's partial-failure behaviours.

The CLI promises three exit codes: ``0`` clean, ``1`` runtime failure
(:class:`~repro.errors.ReproError`), ``2`` usage error.  The sweep's
partial-failure behaviours (degraded records under a deadline, one
checkpoint line per payload that a rerun skips) have no CLI caller, so
they are pinned here on :func:`~repro.analysis.harness.evaluate_workloads`
directly.
"""

import json
import random

import pytest

from repro.analysis.harness import PAPER_ALGORITHMS, evaluate_workloads
from repro.analysis.truthcache import DEFAULT_TRUTH_CACHE
from repro.cli import main
from repro.resilience import RetryPolicy
from repro.workloads import chain_workload

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0)


def _sweep_workloads(count=2):
    return [
        chain_workload(3, random.Random(400 + i), max_rows=600)
        for i in range(count)
    ]


@pytest.fixture
def cold_truth_cache():
    """A warm shared cache would answer before any deadline."""
    DEFAULT_TRUTH_CACHE.clear()
    yield
    DEFAULT_TRUTH_CACHE.clear()


class TestExitContract:
    def test_invalid_repeats_is_runtime_error_one(self, tmp_path, capsys):
        # A count that parses but is invalid fails at run time, not in argparse.
        stats = tmp_path / "stats.json"
        stats.write_text(
            json.dumps(
                {
                    "R1": {"rows": -5, "columns": {"x": 10}},
                    "R2": {"rows": 1000, "columns": {"y": 100}},
                }
            )
        )
        query = "SELECT * FROM R1, R2 WHERE R1.x = R2.y"
        code = main(["estimate", "--stats", str(stats), "--query", query])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_lint_usage_error_is_exit_two(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "does-not-exist.py")])
        captured = capsys.readouterr()
        assert code == 2
        assert "usage error" in captured.err


@pytest.mark.usefixtures("cold_truth_cache")
class TestPartialFailureExitThree:
    """Exit code 3 is gone; the partial-failure behaviours it reported stay."""

    def test_degraded_sweep_exits_three_with_partial_notice(self):
        workloads = _sweep_workloads(2)
        results = evaluate_workloads(
            workloads, seed=7, workers=2, retry=FAST_RETRY, timeout_s=1e-9
        )
        assert len(results) == len(workloads)
        for records in results:
            assert len(records) == len(PAPER_ALGORITHMS)
            assert all(record.degraded for record in records)
            assert all(record.failure.kind == "deadline" for record in records)

    def test_generous_timeout_keeps_the_sweep_clean(self):
        results = evaluate_workloads(
            _sweep_workloads(2), seed=7, workers=2, retry=FAST_RETRY, timeout_s=120.0
        )
        assert not any(record.degraded for records in results for record in records)

    def test_checkpoint_file_records_every_sweep_payload(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        workloads = _sweep_workloads(3)
        first = evaluate_workloads(
            workloads,
            seed=7,
            workers=2,
            retry=FAST_RETRY,
            checkpoint_path=str(checkpoint),
        )
        lines = [line for line in checkpoint.read_text().splitlines() if line.strip()]
        assert len(lines) == len(workloads)
        # A restart skips the completed payloads: no new lines appear.
        again = evaluate_workloads(
            workloads,
            seed=7,
            workers=2,
            retry=FAST_RETRY,
            checkpoint_path=str(checkpoint),
        )
        assert repr(again) == repr(first)
        rerun_lines = [
            line for line in checkpoint.read_text().splitlines() if line.strip()
        ]
        assert rerun_lines == lines
