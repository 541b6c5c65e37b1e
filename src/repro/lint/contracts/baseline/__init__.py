"""The committed public-API baseline behind ELS707.

``api-baseline.json`` (shipped next to this package) records, for every
package module that declares ``__all__``, the exported names and a
canonical signature string per name.  The contract layer recomputes the
same record from the analyzed ASTs and reports any *unacknowledged*
drift — a deleted public function, a renamed parameter, a new export —
as ELS707.  Acknowledging an intentional change is one command::

    python -m repro.lint.contracts.baseline

which regenerates the file from the current tree (``--check`` verifies
it instead, for CI).  The baseline is part of the lint rule-set
fingerprint, so editing it invalidates the incremental cache exactly
like editing a rule would.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ....errors import LintError

__all__ = [
    "ApiEntry",
    "BaselineError",
    "DEFAULT_BASELINE_PATH",
    "compare_module",
    "entry_payload",
    "extract_api",
    "generate_baseline",
    "load_baseline",
    "main",
    "render_baseline",
]

#: The committed baseline, shipped as package data.
DEFAULT_BASELINE_PATH = Path(__file__).resolve().parents[1] / "api-baseline.json"

#: Signature recorded for an ``__all__`` name not defined in the module.
_REEXPORT = "re-export"

#: Signature recorded for a module-level constant export.
_CONSTANT = "constant"


class BaselineError(LintError):
    """An unusable baseline file (surfaced as ELS700 by the driver)."""


@dataclass(frozen=True)
class ApiEntry:
    """The statically extracted public surface of one module.

    Attributes:
        all_names: Sorted ``__all__`` contents.
        signatures: Name -> canonical signature string.
        all_line: Line of the ``__all__`` assignment (diagnostic anchor).
    """

    all_names: Tuple[str, ...]
    signatures: Dict[str, str]
    all_line: int


def _static_all(tree: ast.Module) -> Optional[Tuple[int, List[str]]]:
    """The literal ``__all__`` list of a module, or ``None`` if absent.

    Only a single module-level assignment of a list/tuple of string
    constants counts; a module computing ``__all__`` dynamically is
    skipped entirely (by the generator *and* the checker, so the two
    always agree).
    """
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if not isinstance(value, (ast.List, ast.Tuple)):
                    return None
                names = []
                for element in value.elts:
                    if not (
                        isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ):
                        return None
                    names.append(element.value)
                return node.lineno, names
    return None


def _unparse(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    return ast.unparse(node)


def _format_signature(node: ast.AST) -> str:
    """Canonical one-line signature of a function definition."""
    args = node.args
    parts: List[str] = []

    def piece(arg: ast.arg, default: Optional[ast.expr]) -> str:
        text = arg.arg
        annotation = _unparse(arg.annotation)
        if annotation is not None:
            text += f": {annotation}"
        if default is not None:
            text += f"={ast.unparse(default)}"
        return text

    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for index, arg in enumerate(positional):
        parts.append(piece(arg, defaults[index]))
        if args.posonlyargs and index == len(args.posonlyargs) - 1:
            parts.append("/")
    if args.vararg is not None:
        parts.append("*" + args.vararg.arg)
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(piece(arg, default))
    if args.kwarg is not None:
        parts.append("**" + args.kwarg.arg)
    prefix = "async def" if isinstance(node, ast.AsyncFunctionDef) else "def"
    signature = f"{prefix}({', '.join(parts)})"
    returns = _unparse(node.returns)
    if returns is not None:
        signature += f" -> {returns}"
    return signature


def _drop_self(signature: str) -> str:
    for marker in ("(self, ", "(self)"):
        if marker in signature:
            return signature.replace(marker, "(" + marker[len("(self, "):], 1)
    return signature


def _class_signature(node: ast.ClassDef) -> str:
    for child in node.body:
        if (
            isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child.name == "__init__"
        ):
            inner = _drop_self(_format_signature(child))
            return "class" + inner[len("def"):]
    return "class()"


def extract_api(tree: ast.Module) -> Optional[ApiEntry]:
    """The public surface of one parsed module, or ``None`` without one."""
    found = _static_all(tree)
    if found is None:
        return None
    all_line, names = found
    definitions: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions[node.name] = _format_signature(node)
        elif isinstance(node, ast.ClassDef):
            definitions[node.name] = _class_signature(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    definitions.setdefault(target.id, _CONSTANT)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            definitions.setdefault(node.target.id, _CONSTANT)
    signatures = {
        name: definitions.get(name, _REEXPORT) for name in names
    }
    return ApiEntry(
        all_names=tuple(sorted(names)),
        signatures=signatures,
        all_line=all_line,
    )


# ---------------------------------------------------------------------------
# Baseline IO
# ---------------------------------------------------------------------------


def load_baseline(path: Optional[str] = None) -> Dict[str, Dict[str, object]]:
    """Load the committed baseline.

    Raises:
        BaselineError: when the file is unreadable, not JSON, or not the
            expected module -> {"all", "signatures"} mapping.
    """
    baseline_path = Path(path) if path is not None else DEFAULT_BASELINE_PATH
    try:
        raw = baseline_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BaselineError(f"cannot read baseline: {exc}") from exc
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise BaselineError(f"baseline is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BaselineError("baseline must be a JSON object of modules")
    for module, entry in data.items():
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("all"), list)
            or not isinstance(entry.get("signatures"), dict)
        ):
            raise BaselineError(
                f"baseline entry for {module!r} must have 'all' (list) "
                "and 'signatures' (object)"
            )
    return data


def entry_payload(entry: ApiEntry) -> Dict[str, object]:
    """The JSON shape of one module's extracted surface."""
    return {
        "all": list(entry.all_names),
        "signatures": {
            name: entry.signatures[name] for name in sorted(entry.signatures)
        },
    }


def generate_baseline(package_root: Path) -> Dict[str, Dict[str, object]]:
    """Recompute the full baseline from a package source tree."""
    from ..architecture import module_name_of

    baseline: Dict[str, Dict[str, object]] = {}
    for source in sorted(package_root.rglob("*.py")):
        module = module_name_of(str(source))
        if module is None:
            continue
        try:
            tree = ast.parse(source.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        entry = extract_api(tree)
        if entry is not None:
            baseline[module] = entry_payload(entry)
    return baseline


def render_baseline(baseline: Dict[str, Dict[str, object]]) -> str:
    """The canonical on-disk text of a baseline (stable, newline-final)."""
    return json.dumps(baseline, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Per-module comparison (the ELS707 core)
# ---------------------------------------------------------------------------


def compare_module(
    module: str,
    entry: Optional[ApiEntry],
    baseline: Dict[str, Dict[str, object]],
) -> List[str]:
    """Drift messages for one module against the committed baseline."""
    recorded = baseline.get(module)
    if entry is None:
        if recorded is None:
            return []
        return [
            f"baseline records a public API for '{module}' but the module "
            "no longer declares a static '__all__'"
        ]
    if recorded is None:
        return [
            f"module '{module}' exports a public API that api-baseline.json "
            "does not record"
        ]
    drifts: List[str] = []
    recorded_names = sorted(str(n) for n in recorded["all"])
    current_names = list(entry.all_names)
    for name in sorted(set(current_names) - set(recorded_names)):
        drifts.append(f"unacknowledged new public name '{name}'")
    for name in sorted(set(recorded_names) - set(current_names)):
        drifts.append(f"public name '{name}' removed from '__all__'")
    recorded_signatures = recorded["signatures"]
    for name in sorted(set(current_names) & set(recorded_names)):
        old = recorded_signatures.get(name)
        new = entry.signatures.get(name)
        if old is not None and new is not None and old != new:
            drifts.append(
                f"signature of '{name}' changed: recorded {old!r}, "
                f"now {new!r}"
            )
    return drifts


# ---------------------------------------------------------------------------
# Console entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate (default) or verify (``--check``) the baseline.

    The generator walks the installed ``repro`` package sources, so it
    reflects exactly what the linter will see.  Returns 0 on success or
    an up-to-date check, 1 when ``--check`` finds drift.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.contracts.baseline",
        description="Regenerate or verify the committed public-API baseline.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        default=False,
        help="verify the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file to write/verify (default: the committed one)",
    )
    args = parser.parse_args(argv)
    package_root = Path(__file__).resolve().parents[3]
    generated = generate_baseline(package_root)
    text = render_baseline(generated)
    target = Path(args.baseline) if args.baseline else DEFAULT_BASELINE_PATH
    if args.check:
        try:
            committed = target.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"cannot read {target}: {exc}", file=sys.stderr)
            return 1
        if committed != text:
            print(
                f"{target} is stale; regenerate with "
                "'python -m repro.lint.contracts.baseline'",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date ({len(generated)} modules)")
        return 0
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target} ({len(generated)} modules)")
    return 0
