"""Checks on the package source itself."""

from __future__ import annotations

import ast
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
