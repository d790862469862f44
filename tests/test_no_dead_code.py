"""Every top-level function or class in src/deepauto, and every method of
such a class, is referenced by name somewhere in src/, tests/ or
perfbench/. Dunder methods are exempt: Python calls them by protocol.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deepauto"
SEARCHED = ("src", "tests", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """(qualified name, name) of the module's functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{node.name}.{item.name}", item.name


def references(tree):
    """Names used as variables or attributes, and identifier-like strings
    (getattr, monkeypatching and tracing look attributes up by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_definition_is_referenced():
    used = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used.update(references(_parse(path)))
    unused = [f"{path.name}: {qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in definitions(_parse(path))
              if not (name.startswith("__") and name.endswith("__")) and name not in used]
    assert not unused, f"defined but referenced nowhere: {unused}"
