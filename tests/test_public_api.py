"""Public API surface tests: exports resolve, docstrings exist, no leaks.

An open-source release lives or dies by its import surface.  These tests
pin it: every name in every ``__all__`` must resolve, every public module,
class, and function must carry a docstring, and the package's documented
quickstart must actually run.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.catalog",
    "repro.core",
    "repro.execution",
    "repro.lint",
    "repro.optimizer",
    "repro.resilience",
    "repro.sql",
    "repro.storage",
    "repro.workloads",
]

MODULES = PACKAGES + [
    "repro.analysis.bench",
    "repro.analysis.explain_analyze",
    "repro.analysis.graphs",
    "repro.analysis.harness",
    "repro.analysis.metrics",
    "repro.analysis.propagation",
    "repro.analysis.report",
    "repro.analysis.sensitivity",
    "repro.analysis.truth",
    "repro.analysis.truthcache",
    "repro.catalog.collector",
    "repro.catalog.histogram",
    "repro.catalog.sampling",
    "repro.catalog.schema",
    "repro.catalog.statistics",
    "repro.cli",
    "repro.core.closure",
    "repro.core.config",
    "repro.core.effective",
    "repro.core.equivalence",
    "repro.core.estimator",
    "repro.core.histjoin",
    "repro.core.local",
    "repro.core.protocols",
    "repro.core.rules",
    "repro.core.skew",
    "repro.core.urn",
    "repro.errors",
    "repro.execution.aggregate",
    "repro.execution.executor",
    "repro.execution.layout",
    "repro.execution.metrics",
    "repro.execution.operators",
    "repro.execution.parallel",
    "repro.execution.shm",
    "repro.lint.cli",
    "repro.lint.contracts",
    "repro.lint.contracts.analysis",
    "repro.lint.contracts.architecture",
    "repro.lint.contracts.baseline",
    "repro.lint.contracts.exceptions",
    "repro.lint.contracts.protocols",
    "repro.lint.diagnostics",
    "repro.lint.engine",
    "repro.lint.render",
    "repro.lint.rules_code",
    "repro.lint.semantic",
    "repro.optimizer.cost",
    "repro.optimizer.enumerate",
    "repro.optimizer.optimizer",
    "repro.optimizer.plans",
    "repro.optimizer.random_search",
    "repro.resilience.deadline",
    "repro.sql.lexer",
    "repro.sql.parser",
    "repro.sql.predicates",
    "repro.sql.query",
    "repro.storage.database",
    "repro.storage.loader",
    "repro.storage.table",
    "repro.workloads.distributions",
    "repro.workloads.generator",
    "repro.workloads.paper",
    "repro.workloads.queries",
    "repro.workloads.tpch_lite",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} does not resolve"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    """Every public class and function defined by a module has a docstring."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its definition site
        if not inspect.getdoc(obj):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_version_exposed():
    import repro

    assert repro.__version__


def test_package_quickstart_runs():
    """The docstring quickstart in ``repro/__init__`` must stay true."""
    from repro import Catalog, ELS, JoinSizeEstimator, parse_query

    catalog = Catalog.from_stats(
        {
            "R1": (100, {"x": 10}),
            "R2": (1000, {"y": 100}),
            "R3": (1000, {"z": 1000}),
        }
    )
    query = parse_query(
        "SELECT * FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z"
    )
    estimator = JoinSizeEstimator(query, catalog, ELS)
    assert estimator.estimate(["R2", "R3", "R1"]) == pytest.approx(1000.0)


class TestDocumentationConsistency:
    """DESIGN.md's experiment index must point at real bench files."""

    def test_every_bench_target_exists(self):
        import pathlib
        import re

        design = pathlib.Path(__file__).parent.parent / "DESIGN.md"
        text = design.read_text()
        targets = set(re.findall(r"`(benchmarks/bench_[a-z0-9_]+\.py)`", text))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (design.parent / target).exists(), f"{target} missing"

    def test_every_bench_file_is_indexed(self):
        import pathlib
        import re

        root = pathlib.Path(__file__).parent.parent
        design_text = (root / "DESIGN.md").read_text()
        indexed = set(re.findall(r"`benchmarks/(bench_[a-z0-9_]+\.py)`", design_text))
        on_disk = {p.name for p in (root / "benchmarks").glob("bench_*.py")}
        assert on_disk == indexed, (
            f"unindexed benches: {on_disk - indexed}; stale index: {indexed - on_disk}"
        )

    def test_experiments_md_covers_every_experiment_id(self):
        import pathlib
        import re

        root = pathlib.Path(__file__).parent.parent
        design_ids = set(
            re.findall(r"^\| ([TEX][0-9A-Za-z-]*) \|", (root / "DESIGN.md").read_text(), re.M)
        )
        experiments_text = (root / "EXPERIMENTS.md").read_text()
        missing = [i for i in design_ids if i not in experiments_text]
        assert not missing, f"EXPERIMENTS.md lacks sections for {missing}"

    def test_examples_referenced_in_readme_exist(self):
        import pathlib
        import re

        root = pathlib.Path(__file__).parent.parent
        readme = (root / "README.md").read_text()
        for match in re.findall(r"examples/([a-z_]+\.py)", readme):
            assert (root / "examples" / match).exists(), match


class TestPerfbenchContract:
    """perfbench imports from the package; each import must resolve.

    perfbench sits outside the package and its files change only with the
    benchmark, so a deleted or renamed name it uses would surface only as
    a failed run.  This reads its sources without importing them.
    """

    @staticmethod
    def _repo_root():
        import pathlib

        return pathlib.Path(__file__).parent.parent

    def _repro_imports(self):
        import ast

        found = []
        for path in sorted((self._repo_root() / "perfbench").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):  # function-level imports too
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    module = node.module or ""
                    if module == "repro" or module.startswith("repro."):
                        for alias in node.names:
                            found.append((path.name, module, alias.name))
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "repro" or alias.name.startswith("repro."):
                            found.append((path.name, alias.name, None))
        return found

    def test_every_repro_import_resolves(self):
        imports = self._repro_imports()
        assert any(
            module == "repro.analysis.bench" and name == "machine_metadata"
            for _, module, name in imports
        ), "perfbench no longer stamps machine metadata?"
        unresolved = []
        for filename, module, name in imports:
            imported = importlib.import_module(module)
            if name is not None and not hasattr(imported, name):
                unresolved.append(f"{filename}: from {module} import {name}")
        assert not unresolved, unresolved

    def test_engine_panel_matches_benchmark_json(self):
        import json

        from repro.execution import ENGINES

        declared = json.loads(
            (self._repo_root() / "BENCHMARK.json").read_text(encoding="utf-8")
        )
        prefix = "execution.engine_ms."
        named = {
            metric["name"]
            for metric in declared["per_layer"]
            if metric["name"].startswith(prefix)
        }
        assert {f"{prefix}{engine}" for engine in ENGINES} == named
