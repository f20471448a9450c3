"""Checks on the package as a whole: its source and the bundled demos."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_no_assert_statements_in_package():
    """Runtime invariants raise explicit errors; ``assert`` vanishes
    under ``python -O``."""
    found = []
    for path in sorted((SRC / "surveil").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_package():
    """Every name a module imports is used in it; ``__init__`` only
    re-exports."""
    found = []
    for path in sorted((SRC / "surveil").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert found == []


def test_no_unreferenced_private_helpers():
    """Every private function or class defined in the package is used
    somewhere in it; a helper that only tests call belongs in the tests."""
    paths = sorted((SRC / "surveil").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert found == []


def test_runner_has_one_input_path():
    """``surveil.simulate`` imports nothing from ``surveil.solver``: a
    runner plays only an exported controller, read by ``load_runner``,
    and never the solver's in-process objects."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / "surveil" / "simulate.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import is resolved against the package
            base = ".".join(filter(None, ["surveil" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert "surveil.solver" not in imported


# exported names that no module of the package uses: the benchmark's
# oracle and its output checks use them
UNUSED_EXPORTS = {"belief_successors", "invisible_count"}


def test_exports_unused_by_the_package_are_listed():
    """A name that ``surveil`` exports but none of its modules uses is
    there only for callers outside the package, and is named in
    ``UNUSED_EXPORTS``, so a new test-only or benchmark-only export fails
    here until it is justified."""
    init = ast.parse((SRC / "surveil" / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in sorted((SRC / "surveil").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert exported - used == UNUSED_EXPORTS


def test_no_runtime_dependencies():
    """The package runs on the standard library alone."""
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("dependencies")] == ["dependencies = []"]


def test_package_leaves_the_garbage_collector_alone():
    """Memory is saved by making fewer objects, not by switching the
    cyclic collector off or retuning it."""
    switches = {"disable", "freeze", "set_threshold"}
    found = []
    for path in sorted((SRC / "surveil").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # names the gc module is imported under
        gc_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "gc"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                hit = any(alias.name in switches | {"*"} for alias in node.names)
            else:
                hit = (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in gc_names
                    and node.attr in switches
                )
            if hit:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_imports_resolve(demo):
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("surveil"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
