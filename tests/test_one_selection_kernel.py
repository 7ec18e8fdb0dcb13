"""One kernel selects every median and percentile of the kits.

Parses `src/geoagent/kits` and fails for any selection made outside
`common.order_statistic`: a call of a `partition` or `argpartition` method
or function, or of numpy's `median`, `percentile` or `quantile` (or their
`nan` forms), by attribute or by bare name. `ALLOWED` names the other
functions that may select, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

KITS = Path(__file__).resolve().parent.parent / "src" / "geoagent" / "kits"

PARTITIONS = {"partition", "argpartition"}
NUMPY_SELECTIONS = {"median", "percentile", "quantile",
                    "nanmedian", "nanpercentile", "nanquantile"}
KERNEL = ("common", "order_statistic")

# (module, function, call) -> why it selects outside the kernel
ALLOWED: dict[tuple[str, str, str], str] = {
    ("analysis", "stl_decompose", "median"):
        "STL's robustness scale, np.median(np.abs(resid)): numpy's own "
        "selection over at most MAX_STL_VALUES residuals, where the kernel "
        "would add code and save nothing",
    ("analysis", "_loess", "argpartition"):
        "finds the span nearest neighbours of each point, whose index order "
        "the fit's sums follow: not an order statistic",
}


def _called_name(call: ast.Call) -> str | None:
    """The selection a call makes, or None."""
    f = call.func
    if isinstance(f, ast.Attribute):
        if f.attr in PARTITIONS:
            return f.attr
        if (f.attr in NUMPY_SELECTIONS and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy")):
            return f.attr
    elif isinstance(f, ast.Name) and f.id in PARTITIONS | NUMPY_SELECTIONS:
        return f.id
    return None


def _selections(tree: ast.Module, module: str):
    """(module, innermost enclosing function, selection) of each selection."""
    def visit(node: ast.AST, function: str):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and (name := _called_name(child)):
                yield module, inner, name
            yield from visit(child, inner)

    yield from visit(tree, "<module>")


def _all_selections() -> set[tuple[str, str, str]]:
    return {found for path in KITS.glob("*.py")
            for found in _selections(ast.parse(path.read_text()), path.stem)}


def test_only_the_kernel_selects():
    found = _all_selections()
    outside = sorted(f for f in found if f[:2] != KERNEL and f not in ALLOWED)
    assert outside == []
    assert {name for *where, name in found if tuple(where) == KERNEL} >= {"partition"}
    assert set(ALLOWED) <= found, "stale allowlist entry"


def test_the_scan_sees_each_form():
    source = """
def f(a, b):
    a.partition(3)
    np.argpartition(b, 2)
    numpy.quantile(a, 0.5)
    median(b)
    g = lambda x: np.nanpercentile(x, 5)
    np.mean(a), "k=v".split("=")
"""
    assert sorted(_selections(ast.parse(source), "m")) == [
        ("m", "f", "argpartition"), ("m", "f", "median"), ("m", "f", "nanpercentile"),
        ("m", "f", "partition"), ("m", "f", "quantile")]
