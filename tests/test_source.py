"""Checks on the package source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def _python(code: str) -> str:
    """The last line `code` prints, run in a fresh interpreter on this chx."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # the special functions are numpy kernels (chx._special): no scipy at import
    assert _python("import chx, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random (~6 MB) on the first np.random access; only
    # random_l1_baseline and verify's pair witness draw
    assert _python("import chx, sys; print('numpy.random' in sys.modules)") == "False"


def test_eval_and_search_load_no_numpy_random(tmp_path):
    code = (
        "import sys\n"
        "from chx.cli import main\n"
        "assert main(['eval', '--q', '13', '--t', '4']) == 0\n"
        f"assert main(['search', '--mode', 'orderk', '--Q', '1e4', '--k', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _python(code) == "False"


def test_random_baseline_drawn_on_first_use():
    # the first draw loads numpy.random; the values are those drawn with it loaded first
    code = (
        "import sys\n"
        "from chx.families import random_l1_baseline\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "print(loaded, random_l1_baseline(1e3, 20, seed=7).tobytes().hex())\n"
    )
    fresh, first = _python(code).split(), _python("import numpy.random\n" + code).split()
    assert fresh[0] == "False" and first[0] == "True"
    values = [np.frombuffer(bytes.fromhex(run[1])) for run in (fresh, first)]
    assert len(values[0]) == 20 and np.array_equal(*values)


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
        "moments._orderk_prime_sums",
        "verify._quad_moment_oracle_r1",
    }
