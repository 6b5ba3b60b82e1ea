"""Properties of the package source itself."""

import ast
from pathlib import Path

import densitypack

PACKAGE = Path(densitypack.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so a result guard must be an explicit check.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"
