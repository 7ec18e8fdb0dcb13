"""Every name the benchmark takes from the package resolves.

`perfbench/` runs outside tier-1 and reaches into the package by name, so a
refactor that moves or renames one of those names would break the benchmark
with every tier-1 test passing. This parses the non-test files of
`perfbench/` and resolves, for each file:
- each name of a `from geoagent... import` statement;
- each attribute read from a name such a statement bound, such as
  `cli.load_suite` or `policies._urllib_transport`;
- each attribute the tracer patches by name, `_patch(owner, "attr", ...)`,
  where the owner is such a name or an attribute of one.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _import_from(module: str, name: str):
    """What `from module import name` binds, or AttributeError."""
    owner = importlib.import_module(module)
    try:
        return getattr(owner, name)
    except AttributeError:
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            raise AttributeError(f"{module} has no {name}") from None


def _stored(tree: ast.Module) -> set[str]:
    """Names the file binds other than by import: such a name may not hold
    what an import bound, so its attributes are not checked."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, (ast.Store, ast.Del))}
    return names | {a.arg for n in ast.walk(tree) if isinstance(n, ast.arguments)
                    for a in [*n.posonlyargs, *n.args, *n.kwonlyargs]}


def _uses(path: Path) -> tuple[set[str], list[str]]:
    """(the uses checked, the uses that did not resolve) in one file, each
    as `module.name`."""
    tree = ast.parse(path.read_text())
    bound, checked, missing = {}, set(), []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "geoagent"):
            for alias in node.names:
                use = f"{node.module}.{alias.name}"
                checked.add(use)
                try:
                    bound[alias.asname or alias.name] = _import_from(node.module, alias.name)
                except AttributeError:
                    missing.append(f"line {node.lineno}: {use}")
    imported = set(bound) - _stored(tree)

    def owner(expr):
        if isinstance(expr, ast.Name):
            return bound[expr.id] if expr.id in imported else None
        if isinstance(expr, ast.Attribute):
            return getattr(owner(expr.value), expr.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in imported:
            held, attr = bound[node.value.id], node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_patch" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and owner(node.args[0]) is not None):
            held, attr = owner(node.args[0]), node.args[1].value
        else:
            continue
        name = held.__name__ if isinstance(held, types.ModuleType) \
            else f"{held.__module__}.{held.__qualname__}"
        use = f"{name}.{attr}"
        checked.add(use)
        if not hasattr(held, attr):
            missing.append(f"line {node.lineno}: {use}")
    return checked, missing


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_every_package_name_the_benchmark_uses_resolves(path):
    assert _uses(path)[1] == []


def test_the_names_a_refactor_could_lose_are_checked():
    """The probe's `cli` calls, the chat transport and the tracer's patch of
    the runner's scoring are among the uses checked."""
    checked = set().union(*(_uses(path)[0] for path in FILES))
    assert {"geoagent.cli.make_context", "geoagent.cli.build_registry",
            "geoagent.cli.load_suite", "geoagent.agent.policies._urllib_transport",
            "geoagent.bench.runner.score_trajectory",
            "geoagent.tools.registry.ToolRegistry.call_tool"} <= checked
