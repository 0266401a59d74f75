"""Source hygiene: no module-level import of the package goes unused, no
function assigns a local it never reads, and no module-level definition
goes unreferenced."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rsadyn"


def _module_statements(tree):
    """Each statement at module level, also inside a module-level if/try
    block."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse
                         + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _module_imports(tree):
    """(bound name, line) of each import at module level."""
    return [(alias.asname or alias.name.split(".")[0], node.lineno)
            for node in _module_statements(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


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


def _module_definitions(tree):
    """(name, line) of each function, class and assigned name defined at
    module level."""
    found = []
    for node in _module_statements(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            found += [(n.id, n.lineno) for target in node.targets
                      for n in ast.walk(target) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            found.append((node.target.id, node.lineno))
    return found


def _references(tree):
    """Every name the tree loads, reads as an attribute, imports by name or
    spells in a string constant (each dotted part of it)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def test_no_dead_definitions():
    # a deletion that leaves a helper behind fails here: every module-level
    # definition of the package is referenced somewhere in the package,
    # its tests or the benchmark (perfbench/tracer.py names its targets in
    # strings); dunder names are exempt
    refs = set()
    for folder in ("src/rsadyn", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs |= _references(ast.parse(path.read_text(),
                                          filename=str(path)))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        dead += ["%s:%d %s" % (path.name, line, name)
                 for name, line in sorted(_module_definitions(tree),
                                          key=lambda d: d[1])
                 if name not in refs
                 and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
