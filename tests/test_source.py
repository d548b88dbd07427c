"""Checks on the package source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import chx

SRC = Path(chx.__file__).parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements; library checks must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_global_statements_in_library():
    # module state rebound from a function is shared by every caller in the process
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def _relative_imports(nodes) -> list[ast.ImportFrom]:
    """The `from .x import ...` statements among `nodes`."""
    return [n for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module]


def test_deferred_imports_only_break_cycles():
    # a function-level `from .x import` is allowed only where x imports this
    # module back at module level; anywhere else it belongs at the top
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    imported_at_top = {
        name: {node.module for node in _relative_imports(tree.body)} for name, tree in trees.items()
    }
    found = [
        f"{name}.{fn.name}: from .{node.module}"
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _relative_imports(ast.walk(fn))
        if name not in imported_at_top.get(node.module, set())
    ]
    assert found == []


def test_import_loads_no_scipy():
    # the special functions are numpy kernels (chx._special): no scipy at import
    code = "import chx, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
