"""Every module-level name the package defines is used somewhere.

Parses `src/geoagent` and the non-test files of `perfbench/` and fails for
any module-level function, class or assigned name in the package that is
never loaded there, as a bare name or as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays although nothing in the package or benchmark loads it
ALLOWED: dict[str, str] = {}


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _loaded(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_unreferenced_module_level_names():
    package = {p: ast.parse(p.read_text()) for p in (ROOT / "src" / "geoagent").rglob("*.py")}
    bench = [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_")]
    loaded = {name for tree in [*package.values(), *bench] for name in _loaded(tree)}
    unused = {(name, str(path.relative_to(ROOT))) for path, tree in package.items()
              for name in _defined(tree)
              if name not in loaded and not name.startswith("__")}
    assert sorted(u for u in unused if u[0] not in ALLOWED) == []
    assert {name for name, _ in unused} == set(ALLOWED), "stale allowlist entry"
