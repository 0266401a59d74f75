"""Source hygiene: no module-level import of the package goes unused."""

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
