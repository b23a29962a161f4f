"""Every module-level name in ``src/depthreg`` is used somewhere in ``src/``,
and every name a module imports is used in that module.

A name that only tests call is surface the package carries for nothing; an
import nothing reads is a leftover of code that has gone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "depthreg"

ALLOWED = {
    # the package version, read by packaging tools and users, not by code
    "__version__",
}


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def used_names(tree, skip=frozenset()):
    """Names loaded and attributes read anywhere in ``tree`` outside the nodes in ``skip``."""
    used = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_module_level_name_is_used_in_src():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            own = set(ast.walk(node))
            for name in defined_names(node):
                if name in ALLOWED:
                    continue
                if not any(name in used_names(t, own if p == path else frozenset())
                           for p, t in trees.items()):
                    unused.append(f"{path.relative_to(SRC.parent)}: {name}")
    assert not unused, unused


def imported_names(tree):
    """``(name, line)`` of each name an import statement anywhere in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        # names only: ``x.take`` must not count as a use of an imported ``take``
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert not unused, unused
