"""Lint: library functions must not call themselves.

A search whose recursion depth an admitted input can drive past the
interpreter's recursion limit ends in ``RecursionError`` instead of an
answer, so the exponential searches run as loops over explicit stacks.
Only the functions listed in ``ALLOWED`` recurse, each with the reason its
depth stays small; the list must stay exact, so an entry whose function
stops recursing fails too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hamconn"

ALLOWED = {
    "multigraph.py:_labeling.search": (
        "one level per individualized vertex, and canonical_labeling, its one "
        "caller, refuses graphs above ISOMORPHISM_SIZE_GUARD (64) vertices"
    ),
    "linegraph.py:_krausz_cover.solve": (
        "one level per clique, at most one per vertex (each joins at most two "
        "cliques of two or more), and preimage labels its input first, which "
        "ISOMORPHISM_SIZE_GUARD caps at 64 vertices"
    ),
}


def _calls_itself(func: ast.AST, name: str) -> bool:
    """Whether ``func`` calls ``name`` bare, or as ``self.name`` or
    ``cls.name``, anywhere in its body (nested functions included)."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name) and target.id == name:
            return True
        if (
            isinstance(target, ast.Attribute)
            and target.attr == name
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            return True
    return False


def _recursive_functions(node: ast.AST, prefix: str, found: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualified = prefix + child.name
            if _calls_itself(child, child.name):
                found.append(qualified)
            _recursive_functions(child, qualified + ".", found)
        elif isinstance(child, ast.ClassDef):
            _recursive_functions(child, prefix + child.name + ".", found)
        else:
            _recursive_functions(child, prefix, found)


def test_only_allowed_functions_recurse():
    found = []
    for path in sorted(SRC.glob("*.py")):
        names: list[str] = []
        _recursive_functions(ast.parse(path.read_text(), filename=str(path)), "", names)
        found.extend(f"{path.name}:{name}" for name in names)
    unexpected = sorted(set(found) - ALLOWED.keys())
    assert not unexpected, "recursive functions in src/hamconn: " + ", ".join(unexpected)
    stale = sorted(ALLOWED.keys() - set(found))
    assert not stale, "allowed but no longer recursive: " + ", ".join(stale)
