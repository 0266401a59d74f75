"""Source hygiene: no module-level import of the package goes unused, and
no function assigns a local it never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsadyn"


def _module_imports(tree):
    """(bound name, line) of each import at module level, also inside a
    module-level if/try block."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((name, node.lineno))
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse
                         + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
    return found


def _exported(tree):
    """The string entries of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def test_no_unused_module_imports():
    # a deletion that leaves its import behind fails here; names in
    # __all__ are the package's public re-exports, and _kernels' CLASS_*
    # re-exports are read as _kernels.CLASS_* by probes and the benchmark
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exempt = _exported(tree)
        for name, line in _module_imports(tree):
            if name in used or name in exempt:
                continue
            if path.name == "_kernels.py" and name.startswith("CLASS_"):
                continue
            unused.append("%s:%d %s" % (path.name, line, name))
    assert unused == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _unread_locals(func):
    """(line, name) of each name the function assigns in its own scope and
    never reads, its nested functions' reads included; names starting with
    `_` and names declared global or nonlocal are exempt."""
    stores, declared = {}, set()
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    read = {node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in stores.items()
                  if name not in read and name not in declared
                  and not name.startswith("_"))


def test_no_unread_locals():
    # a deletion that leaves the local feeding it behind fails here
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unread += ["%s:%d %s in %s" % (path.name, line, name,
                                               func.name)
                           for line, name in _unread_locals(func)]
    assert unread == []
