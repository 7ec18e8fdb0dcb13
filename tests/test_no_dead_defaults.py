"""Every default of a kit function that a catalog row calls can be set.

For each row whose `fn` is a kit function, bare or wrapped in
`functools.partial`, every parameter with a default that the partial does
not bind must be an optional parameter of that row. A default no row
exposes is a constant under another name; write it as one. Rows whose `fn`
is a lambda or a function local to the catalog are skipped.
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


def test_every_kit_default_is_an_optional_row_parameter(tmp_path):
    workspace = Workspace(tmp_path)
    rows = catalog_rows(ToolContext(workspace, MockExpertBackend([], workspace)))
    unexposed = set()
    for row in rows:
        found = _kit_function(row.fn)
        if found is None:
            continue
        fn, bound = found
        optional = {p.name for p in row.params if not p.required}
        kit = fn.__module__.rsplit(".", 1)[1]
        unexposed |= {f"{kit}.{fn.__name__}.{name}"
                      for name, p in inspect.signature(fn).parameters.items()
                      if p.default is not p.empty and name not in bound
                      and name not in optional}
    assert sorted(unexposed - set(ALLOWED)) == []
    assert unexposed >= set(ALLOWED), "stale allowlist entry"
