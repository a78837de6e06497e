"""No unused imports and no unused definitions in the source tree.

An import is unused when its name is never read in its file; the imports of
an __init__.py are its re-exports, so they count as used.  A module-level
function, class or constant under src/ is unused when no file under src/,
tests/ or bench/ names it (reads it, takes it as an attribute or imports
it); dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROOTS = ("src", "tests", "bench")


def _trees():
    return {path.relative_to(ROOT): ast.parse(path.read_text(), str(path))
            for root in ROOTS
            for path in sorted((ROOT / root).rglob("*.py"))}


def _unused_imports(trees):
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in read:
                        unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def _unused_definitions(trees):
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.add(n.name.split(".")[-1])
    unused = []
    for path, tree in trees.items():
        if path.parts[0] != "src":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defs:
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in named:
                    unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    assert _unused_imports(_trees()) == []


def test_no_unused_definitions():
    assert _unused_definitions(_trees()) == []
