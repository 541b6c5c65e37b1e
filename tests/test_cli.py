"""CLI tests: every subcommand against a statistics file on disk."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def stats_file(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(
        json.dumps(
            {
                "R1": {"rows": 100, "columns": {"x": 10}},
                "R2": {"rows": 1000, "columns": {"y": 100}},
                "R3": {"rows": 1000, "columns": {"z": 1000}},
            }
        )
    )
    return str(path)


QUERY = "SELECT * FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z"


class TestEstimate:
    def test_els_default(self, stats_file, capsys):
        code = main(["estimate", "--stats", stats_file, "--query", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "final estimate: 1000" in out

    def test_explicit_order(self, stats_file, capsys):
        code = main(
            [
                "estimate",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--order",
                "R2,R3,R1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "R1" in out and "final estimate: 1000" in out

    def test_rule_m_underestimates(self, stats_file, capsys):
        code = main(
            [
                "estimate",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--algorithm",
                "sm",
                "--order",
                "R2,R3,R1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "final estimate: 1" in out.splitlines()[-1]

    def test_no_ptc_flag(self, stats_file, capsys):
        code = main(
            [
                "estimate",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--no-ptc",
                "--order",
                "R1,R3,R2",  # R1 >< R3 is a cartesian product without PTC
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "100000" in out  # 100 * 1000 cartesian intermediate

    def test_unqualified_columns_resolved_from_stats(self, stats_file, capsys):
        code = main(
            [
                "estimate",
                "--stats",
                stats_file,
                "--query",
                "SELECT * FROM R1, R2 WHERE x = y",
            ]
        )
        assert code == 0

    def test_bad_stats_path_is_error_exit(self, capsys):
        code = main(["estimate", "--stats", "/nonexistent.json", "--query", QUERY])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOptimize:
    def test_plan_printed(self, stats_file, capsys):
        code = main(["optimize", "--stats", stats_file, "--query", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "Join" in out and "join order:" in out and "estimated cost:" in out

    def test_greedy_enumerator(self, stats_file, capsys):
        code = main(
            [
                "optimize",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--enumerator",
                "greedy",
            ]
        )
        assert code == 0


class TestClosure:
    def test_implied_predicates_listed(self, stats_file, capsys):
        code = main(["closure", "--stats", stats_file, "--query", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "R1.x = R3.z" in out
        assert "[rule a]" in out

    def test_no_implied(self, stats_file, capsys):
        code = main(
            [
                "closure",
                "--stats",
                stats_file,
                "--query",
                "SELECT * FROM R1, R2 WHERE R1.x = R2.y",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no implied predicates" in out


class TestDemo:
    def test_demo_runs_small(self, capsys):
        code = main(["demo", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ELS" in out and "SM (no PTC)" in out

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_engine_flag(self, capsys, engine):
        code = main(["demo", "--scale", "0.02", "--engine", engine])
        assert code == 0
        assert "ELS" in capsys.readouterr().out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_flag_value_is_exit_two(self, stats_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--stats", stats_file, "--query"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2

    def test_unknown_algorithm_exits(self, stats_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "estimate",
                    "--stats",
                    stats_file,
                    "--query",
                    QUERY,
                    "--algorithm",
                    "magic",
                ]
            )


class TestLint:
    """Exit-code contract: 0 clean, 1 diagnostics, 2 usage error."""

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text('"""Docstring."""\n\nX = 1\n')
        code = main(["lint", str(path)])
        assert code == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_violation_exits_one_with_its_code(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(xs=[]):\n    return xs\n\nif __name__ == '__main__':\n    f()\n")
        code = main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "ELS104" in out and "found 1 diagnostic(s)" in out

    def test_missing_path_is_usage_error(self, capsys):
        code = main(["lint", "/nonexistent/tree"])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    def test_json_format_is_parseable(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(xs=[]):\n    return xs\n\nif __name__ == '__main__':\n    f()\n")
        code = main(["lint", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["total"] == 1
        assert payload["diagnostics"][0]["code"] == "ELS104"

    def test_ignore_filters_to_clean(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(xs=[]):\n    return xs\n\nif __name__ == '__main__':\n    f()\n")
        code = main(["lint", str(path), "--ignore", "ELS104"])
        assert code == 0

    def test_empty_select_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        code = main(["lint", str(path), "--select", " , "])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    def test_repo_sources_are_clean(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).parent.parent
        assert main(["lint", str(root / "src")]) == 0

    def test_warnings_only_exits_zero(self, tmp_path, capsys):
        # ELS105 (missing __all__) is warning severity: reported, exit 0.
        path = tmp_path / "warn.py"
        path.write_text('"""Docstring."""\n\n\ndef helper():\n    return 1\n')
        code = main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ELS105" in out

    def test_unknown_select_prefix_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        code = main(["lint", str(path), "--select", "ELS9"])
        assert code == 2
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_unknown_ignore_prefix_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        code = main(["lint", str(path), "--ignore", "ESL104"])
        assert code == 2
        assert "usage error:" in capsys.readouterr().err

    def test_dataflow_flag_enables_els3xx(self, tmp_path, capsys):
        path = tmp_path / "quantities.py"
        path.write_text(
            "def _estimate(sel_join, n_rows):\n"
            "    return sel_join + n_rows\n"
        )
        assert main(["lint", str(path)]) == 0
        code = main(["lint", str(path), "--dataflow"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ELS301" in out

    def test_no_dataflow_flag_wins_over_dataflow(self, tmp_path, capsys):
        path = tmp_path / "quantities.py"
        path.write_text(
            "def _estimate(sel_join, n_rows):\n"
            "    return sel_join + n_rows\n"
        )
        assert main(["lint", str(path), "--dataflow", "--no-dataflow"]) == 0

    def test_effects_flag_enables_els4xx(self, tmp_path, capsys):
        path = tmp_path / "effects.py"
        path.write_text(
            "import random\n"
            "\n"
            "\n"
            "def evaluate_workloads(workloads):\n"
            "    return [random.random() for _ in workloads]\n"
        )
        assert main(["lint", str(path)]) == 0
        code = main(["lint", str(path), "--effects"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ELS402" in out

    def test_no_effects_flag_wins_over_effects(self, tmp_path, capsys):
        path = tmp_path / "effects.py"
        path.write_text(
            "import random\n"
            "\n"
            "\n"
            "def evaluate_workloads(workloads):\n"
            "    return [random.random() for _ in workloads]\n"
        )
        assert main(["lint", str(path), "--effects", "--no-effects"]) == 0

    def test_concurrency_flag_enables_els5xx(self, tmp_path, capsys):
        path = tmp_path / "asyncmod.py"
        path.write_text(
            "import time\n"
            "\n"
            "\n"
            "async def serve():\n"
            "    time.sleep(1)\n"
        )
        assert main(["lint", str(path)]) == 0
        code = main(["lint", str(path), "--concurrency"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ELS503" in out

    def test_no_concurrency_flag_wins_over_concurrency(self, tmp_path, capsys):
        path = tmp_path / "asyncmod.py"
        path.write_text(
            "import time\n"
            "\n"
            "\n"
            "async def serve():\n"
            "    time.sleep(1)\n"
        )
        assert (
            main(["lint", str(path), "--concurrency", "--no-concurrency"]) == 0
        )

    def test_statistics_flag_prints_per_rule_counts_to_stderr(
        self, tmp_path, capsys
    ):
        path = tmp_path / "dirty.py"
        path.write_text(
            "def f(xs=[]):\n    return xs\n\nif __name__ == '__main__':\n    f()\n"
        )
        code = main(["lint", str(path), "--format", "json", "--statistics"])
        captured = capsys.readouterr()
        assert code == 1
        json.loads(captured.out)  # stdout stays machine-parseable
        assert "per-rule statistics:" in captured.err
        assert "ELS104: 1" in captured.err

    def test_statistics_on_clean_tree(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text('"""Docstring."""\n\nX = 1\n')
        code = main(["lint", str(path), "--statistics"])
        captured = capsys.readouterr()
        assert code == 0
        assert "(no findings)" in captured.err

    def test_jobs_flag_output_matches_serial(self, tmp_path, capsys):
        for name, body in [
            ("dirty_a.py", "def f(xs=[]):\n    return xs\n"),
            ("dirty_b.py", "def g(ys=[]):\n    return ys\n"),
            ("clean_c.py", "X = 1\n"),
        ]:
            (tmp_path / name).write_text(body)
        serial_code = main(["lint", str(tmp_path)])
        serial_out = capsys.readouterr().out
        parallel_code = main(["lint", str(tmp_path), "--jobs", "4"])
        parallel_out = capsys.readouterr().out
        assert serial_code == parallel_code == 1
        assert serial_out == parallel_out

    def test_jobs_zero_means_one_worker_per_cpu(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        code = main(["lint", str(path), "--jobs", "0"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_negative_jobs_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        code = main(["lint", str(path), "--jobs", "-1"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_sarif_format_is_parseable(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(xs=[]):\n    return xs\n\nif __name__ == '__main__':\n    f()\n")
        code = main(["lint", str(path), "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "ELS104"

    def test_repo_sources_are_dataflow_clean(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).parent.parent
        assert main(["lint", str(root / "src"), "--dataflow"]) == 0

    def test_repo_sources_are_concurrency_clean(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).parent.parent
        assert main(["lint", str(root / "src"), "--concurrency"]) == 0


class TestCheck:
    def test_closed_paper_shape_is_clean(self, stats_file, capsys):
        code = main(["check", "--stats", stats_file, "--query", QUERY])
        assert code == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_no_ptc_flags_incomplete_closure(self, stats_file, capsys):
        code = main(["check", "--stats", stats_file, "--query", QUERY, "--no-ptc"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ELS201" in out and "R1.x = R3.z" in out

    def test_contradiction_exits_one(self, stats_file, capsys):
        code = main(
            [
                "check",
                "--stats",
                stats_file,
                "--query",
                "SELECT * FROM R1, R2 WHERE R1.x = R2.y AND R1.x = 5 AND R1.x = 7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "ELS203" in out

    def test_cartesian_warning_exits_zero(self, stats_file, capsys):
        # ELS207 is a warning; warnings-only runs must not fail the build.
        code = main(
            [
                "check",
                "--stats",
                stats_file,
                "--query",
                "SELECT * FROM R1, R2 WHERE R1.x = 5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ELS207" in out

    def test_bad_stats_path_is_error_exit(self, capsys):
        code = main(["check", "--stats", "/nonexistent.json", "--query", QUERY])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, stats_file, capsys):
        code = main(
            [
                "check",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--no-ptc",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["error"] >= 1


class TestStandaloneLintEntryPoint:
    """The dedicated ``repro-els-lint`` console script shares the contract."""

    def test_clean_exit(self, tmp_path, capsys):
        from repro.lint.cli import main as lint_main

        path = tmp_path / "clean.py"
        path.write_text("X = 1\n")
        assert lint_main([str(path)]) == 0

    def test_usage_error_exit(self, capsys):
        from repro.lint.cli import main as lint_main

        assert lint_main(["/nonexistent/tree"]) == 2
        assert "usage error:" in capsys.readouterr().err

    def test_findings_exit(self, tmp_path, capsys):
        from repro.lint.cli import main as lint_main

        path = tmp_path / "dirty.py"
        path.write_text("try:\n    x = 1\nexcept:\n    pass\n")
        assert lint_main([str(path)]) == 1
        assert "ELS106" in capsys.readouterr().out


class TestNewEnumerators:
    @pytest.mark.parametrize("enumerator", ["dp-bushy", "random", "annealing"])
    def test_optimize_with_enumerator(self, stats_file, capsys, enumerator):
        code = main(
            [
                "optimize",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--enumerator",
                enumerator,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "join order:" in out

    def test_frequency_stats_flag_accepted(self, stats_file, capsys):
        code = main(
            [
                "estimate",
                "--stats",
                stats_file,
                "--query",
                QUERY,
                "--frequency-stats",
            ]
        )
        assert code == 0
        # Stats-JSON files carry no MCVs/histograms, so the flag is inert.
        assert "final estimate: 1000" in capsys.readouterr().out
