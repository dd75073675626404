"""Properties of the source tree itself."""

import ast
import pathlib

import dkpfields


def test_no_assert_statements_in_src():
    """Invariants must raise explicitly: python -O strips assert statements."""
    src = pathlib.Path(dkpfields.__file__).parent
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
