"""Properties of the source itself."""

import ast
import pathlib

import tamestrata


def test_no_assert_statements():
    # `python -O` strips assert statements, so mathematical checks raise
    # VerificationFailed explicitly instead
    root = pathlib.Path(tamestrata.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
