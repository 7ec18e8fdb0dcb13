"""Every `like` row of the catalog says whether its kernel is per pixel.

A `like` row that sets `per_pixel` runs its `fn` over blocks of rows
(`raster.map_rows`), which gives the whole-array result only when each output
pixel depends on the input pixels at the same place alone. So every `like`
row either declares itself per pixel or is listed here with the reason it is
not: a neighbourhood, edges fitted over the whole image, or an iteration
that stops on a whole-array test. A per-pixel row takes rasters only, so that
`map_rows` can hand each of its inputs over by rows.
"""

from __future__ import annotations

from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import ToolContext
from geoagent.tools.catalog import catalog_rows
from geoagent.workspace import Workspace

# `like` row -> why its kernel is evaluated on whole arrays
WHOLE_ARRAY = {
    "compute_tvdi": "fitted edges: the dry and wet edges are fitted over the whole image",
    "getis_ord_gi_star": "neighbourhood: each z-score sums a square window around its pixel",
    "temperature_emissivity_separation":
        "iteration: the loop stops when the largest change over the whole image is small",
}


def _rows(tmp_path):
    workspace = Workspace(tmp_path)
    return catalog_rows(ToolContext(workspace, MockExpertBackend([], workspace)))


def test_every_like_row_is_per_pixel_or_says_why_not(tmp_path):
    rows = _rows(tmp_path)
    like_rows = {row.name for row in rows if row.like is not None}
    undeclared = {row.name for row in rows
                  if row.like is not None and not row.per_pixel} - set(WHOLE_ARRAY)
    assert sorted(undeclared) == []
    assert set(WHOLE_ARRAY) <= like_rows, "stale allowlist entry"
    assert not {row.name for row in rows if row.per_pixel} & set(WHOLE_ARRAY)


def test_per_pixel_rows_take_rasters_only(tmp_path):
    for row in _rows(tmp_path):
        if row.per_pixel:
            assert row.like is not None and row.handler is None and row.prefix is None
            required = {p.kind for p in row.params if p.required}
            assert required <= {"file", "files", "out_file"}, row.name
