"""Every top-level function or class in src/deepauto, and every method of
such a class, is referenced by name somewhere in src/, tests/ or
perfbench/. Dunder methods are exempt: Python calls them by protocol.

Every defaulted parameter of those functions is set, by keyword or by
position, by some call in the same trees; a default no call overrides is a
constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deepauto"
SEARCHED = ("src", "tests", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _trees():
    return [_parse(path) for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]


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
    for tree in _trees():
        used.update(references(tree))
    unused = [f"{path.name}: {qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in definitions(_parse(path))
              if not (name.startswith("__") and name.endswith("__")) and name not in used]
    assert not unused, f"defined but referenced nowhere: {unused}"


def _functions(tree):
    """(qualified name, call name, node, leading parameters a call does not
    pass) of the module's functions and methods. A class is called by its
    name to run __init__; self and cls are not passed."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    call_name = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", call_name, item, 0 if static else 1


def defaulted_parameters(tree):
    """(qualified name, call name, positional index in a call or None,
    parameter) of every parameter with a default."""
    for qualified, call_name, func, skip in _functions(tree):
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield qualified, call_name, k - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, call_name, None, arg.arg


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_default_is_overridden_somewhere():
    calls = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node):
                calls.setdefault(_call_name(node), []).append(node)

    def is_set(call, index, param):
        if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return index is not None and len(call.args) > index

    never = [f"{path.name}: {qualified}({param})"
             for path in sorted(PACKAGE.glob("*.py"))
             for qualified, call_name, index, param in defaulted_parameters(_parse(path))
             if not any(is_set(c, index, param) for c in calls.get(call_name, []))]
    assert not never, f"defaults that no call overrides: {never}"
