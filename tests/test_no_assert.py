"""Lint: library code must not rely on ``assert`` for its checks.

Certificate checks raise ``LiftFailedError`` (or another ``GraphError``) so
that they still run under ``python -O``, which strips assertions.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hamconn"


def test_no_assert_statements_in_library():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert not offenders, "assert statements in src/hamconn: " + ", ".join(offenders)
