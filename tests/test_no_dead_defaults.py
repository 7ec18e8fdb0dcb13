"""Every default of a kit function that a catalog row calls can be set,
and is a value the registry can hand it.

For each row whose `fn` is a kit function, bare or wrapped in
`functools.partial`, every parameter with a default that the partial does
not bind must be an optional parameter of that row. A default no row
exposes is a constant under another name; write it as one. The default of
an enum parameter must be one of the values of the row's enum table.
Rows whose `fn` is a lambda or a function local to the catalog are skipped.
"""

from __future__ import annotations

import inspect
from functools import partial

from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import ToolContext
from geoagent.tools.catalog import catalog_rows
from geoagent.workspace import Workspace

# "kit function.parameter" -> why it keeps a default that its rows do not expose
ALLOWED = {
    "statistics.hotspot_percentages.comparator":
        "threshold_ratio and the ratio tools pass it; the batch row uses the default",
}


def _kit_function(fn):
    """(function, names a partial binds) for a kit function, else None."""
    bound = set()
    if isinstance(fn, partial):
        bound = set(fn.keywords)
        fn = fn.func
    if inspect.isfunction(fn) and fn.__module__.startswith("geoagent.kits."):
        return fn, bound
    return None


def _kit_rows(tmp_path):
    """(row, kit function, names its partial binds) for each catalog row
    whose `fn` is a kit function."""
    workspace = Workspace(tmp_path)
    for row in catalog_rows(ToolContext(workspace, MockExpertBackend([], workspace))):
        found = _kit_function(row.fn)
        if found is not None:
            yield (row, *found)


def _defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def test_every_kit_default_is_an_optional_row_parameter(tmp_path):
    unexposed = set()
    for row, fn, bound in _kit_rows(tmp_path):
        optional = {p.name for p in row.params if not p.required}
        kit = fn.__module__.rsplit(".", 1)[1]
        unexposed |= {f"{kit}.{fn.__name__}.{name}" for name in _defaults(fn)
                      if name not in bound and name not in optional}
    assert sorted(unexposed - set(ALLOWED)) == []
    assert unexposed >= set(ALLOWED), "stale allowlist entry"


def test_every_enum_default_is_a_table_value(tmp_path):
    """A kit default for an enum parameter is a value the registry hands the
    kit for some name, not a name the kit would look up again."""
    checked, strays = 0, []
    for row, fn, _ in _kit_rows(tmp_path):
        defaults = _defaults(fn)
        for p in row.params:
            if p.enum is not None and p.name in defaults:
                checked += 1
                if not any(defaults[p.name] is v for v in p.enum.values()):
                    strays.append(f"{row.name}.{p.name} = {defaults[p.name]!r}")
    assert strays == []
    assert checked > 0
