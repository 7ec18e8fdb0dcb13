"""Every catalog row that takes a list of files holds one item at a time, or
says why it needs the whole stack.

A batch of Earth-Bench's length (about 55 images) must not need memory in
proportion to its length. A row with a `files` parameter and no `like` or
`handler` gets its lists as sequences that load each raster when the kit
reaches it (a `prefix` row, one item per kit call from `_batch_handler`),
and every such row is run here: each load of item i must find every raster
loaded for an earlier item gone. The rows that are not run are listed with
the reason their kernel needs every item at once.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np

from geoagent.kits.perception import MockExpertBackend
from geoagent.raster import Raster, from_array, save_raster
from geoagent.tools import ToolContext, build_registry, catalog
from geoagent.tools.catalog import catalog_rows
from geoagent.workspace import Workspace

# `files` row -> why its kernel needs every item at once
WHOLE_STACK = {
    "temperature_emissivity_separation":
        "each pixel is solved from the same pixel of all three thermal bands",
    "ttm_lst": "each pixel is solved from the same pixel of all three thermal bands",
    "multi_freq_bt": "each output pixel combines the same pixel of every band",
}

ITEMS = 3


def _rows(tmp_path):
    workspace = Workspace(tmp_path)
    return catalog_rows(ToolContext(workspace, MockExpertBackend([], workspace)))


def _takes_files(row) -> bool:
    return any(p.kind == "files" for p in row.params)


def _arguments(row, root) -> dict:
    """Required arguments for a row: `ITEMS` small rasters per
    list, named <list>_<item>.tif, 0.5 for every number."""
    rng = np.random.default_rng(3)
    args = {}
    for p in row.params:
        if not p.required:
            continue
        if p.kind == "files":
            args[p.name] = []
            for k in range(ITEMS):
                name = f"{p.name}_{k}.tif"
                save_raster(from_array(rng.uniform(0.1, 1.0, (8, 8))), root / name)
                args[p.name].append(name)
        elif p.kind == "out_dir":
            args[p.name] = "out"
        else:
            assert p.type == "number", (row.name, p.name)
            args[p.name] = 0.5
    return args


def test_every_files_row_holds_one_item_at_a_time(tmp_path, monkeypatch):
    """Each loaded raster's samples are watched by a weak reference, which
    every view of them (a plane, the valid samples) keeps alive too. The
    cycle collector is off, so samples kept by a reference cycle count as
    held."""
    load = catalog.load_raster
    loaded: list[tuple[int, weakref.ref]] = []
    held: list[str] = []

    def watched(path):
        item = int(path.stem.rsplit("_", 1)[1])
        if any(k < item and ref() is not None for k, ref in loaded):
            held.append(f"{path.name} loaded while an earlier item is held")
        r = load(path)
        samples = r.data.copy()
        loaded.append((item, weakref.ref(samples)))
        return Raster(samples, r.nodata, r.geo)

    rows = [row for row in _rows(tmp_path) if _takes_files(row)]
    assert set(WHOLE_STACK) <= {row.name for row in rows}, "stale allowlist entry"
    monkeypatch.setattr(catalog, "load_raster", watched)
    gc.disable()
    try:
        for row in rows:
            if row.name not in WHOLE_STACK:
                loaded.clear()
                _run(row, tmp_path / row.name)
                assert len({k for k, _ in loaded}) == ITEMS, row.name
                assert held == [], (row.name, held)
    finally:
        gc.enable()


def _run(row, root) -> None:
    root.mkdir()
    workspace = Workspace(root)
    registry = build_registry(ToolContext(workspace, MockExpertBackend([], workspace)))
    result = registry.call_tool(row.name, _arguments(row, root))
    assert result.error_class is None, (row.name, result.text)
