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


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The names bound by `tree`'s imports, with their line numbers, less
    `from __future__` and the lines marked `# noqa: F401`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_no_unused_imports_in_library():
    # the package's __init__ imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}"
                  for name, line in _imported_names(tree, text.splitlines()).items() if name not in used]
    assert found == []


_NUMPY_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _blas_products(fn) -> bool:
    """Whether the body of `fn` (not of the functions nested in it) has a
    matrix product: `@`, `@=`, `np.dot` and its kin, or a `.dot(` method."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            if attr == "dot" or (attr in _NUMPY_PRODUCTS and isinstance(owner, ast.Name) and owner.id == "np"):
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _functions(body, prefix: str):
    """(qualified name, node) of every function in `body`, nested ones too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")


def test_blas_call_sites_are_listed():
    # BLAS products may thread and round by their blocking: each one is a
    # choice, so a new one is added here on purpose (an einsum is not BLAS)
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, fn in _functions(ast.parse(path.read_text()).body, "")
        if _blas_products(fn)
    }
    assert found == {
        "lfunction._tau",
        "lfunction._FiniteScan.add",
        "lfunction._afe_sums",
        "moments._orderk_prime_sums",
        "verify._quad_moment_oracle_r1",
    }
