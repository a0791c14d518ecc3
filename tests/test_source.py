"""Guards over the package source itself."""

import ast
from pathlib import Path

import grrdecomp


def test_package_has_no_assert_statements():
    # python -O strips assert: a budget or an invariant must be checked
    # before the work starts, by a test that raises
    root = Path(grrdecomp.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
