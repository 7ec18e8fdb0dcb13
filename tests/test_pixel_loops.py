"""No raster row does per-pixel Python work: its Python line count stays
flat as its pixels grow.

Each catalog row with a `file` or `files` input makes the catalog sweep's
call (required arguments only) on inputs 8 and then 16 pixels on a side,
under `sys.settrace`, counting the line events of `geoagent` code alone. A
vectorised row runs about the same lines at either size (16 x 16 is one
`map_rows` block). A row whose count grows more than 1.5 times while its
pixels grow 4 times loops over pixels in Python, and fails unless
`PIXEL_LOOPS` lists it with its reason. A listed row that stops growing
fails too, so the list shrinks as its loops are vectorised. Nothing is
timed.

The sweep's random binary mask erodes to nothing, which would leave the
skeleton rows nothing to walk, so here `mask.tif` is solid.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import geoagent
from conftest import make_georef, write_raster
from test_catalog_sweep import build_args, make_sweep_registry

PACKAGE = str(Path(geoagent.__file__).parent)
SIDES = (8, 16)
GROWTH = 1.5  # the largest line-count ratio of a row that loops over no pixel

# row -> the Python loop over pixels it still runs
PIXEL_LOOPS = {
    "ttm_lst": "a damped Newton solve in Python once per pixel (`inversion._ttm_pixel`)",
}


def package_lines(call) -> int:
    """The line events of `geoagent` code while `call()` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):  # frames outside the package are not traced
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


@pytest.fixture(scope="module")
def line_counts(tmp_path_factory) -> dict[str, tuple[int, ...]]:
    """Row -> its line count at each of `SIDES`."""
    counts: dict[str, list[int]] = {}
    for side in SIDES:
        tmp = tmp_path_factory.mktemp(f"side{side}")
        registry, _root = make_sweep_registry(tmp, side)
        write_raster(tmp / "src" / "mask.tif", np.ones((side, side)), dtype="u8",
                     geo=make_georef())
        for spec in registry.list_specs():
            if not any(p.kind in ("file", "files") for p in spec.params):
                continue
            args = build_args(registry, spec.name)
            results = []
            n = package_lines(lambda: results.append(registry.call_tool(spec.name, args)))
            assert results[0].error_class is None, (spec.name, side, results[0].text)
            counts.setdefault(spec.name, []).append(n)
    return {name: tuple(n) for name, n in counts.items()}


def test_no_row_loops_over_pixels_in_python(line_counts):
    growing = {name: n for name, n in line_counts.items() if n[1] > GROWTH * n[0]}
    assert sorted(set(growing) - set(PIXEL_LOOPS)) == [], growing


def test_every_listed_row_still_loops(line_counts):
    assert set(PIXEL_LOOPS) <= set(line_counts), "listed row without a raster input"
    stopped = {name: line_counts[name] for name in PIXEL_LOOPS
               if line_counts[name][1] <= GROWTH * line_counts[name][0]}
    assert stopped == {}, "stale entry: the row's line count no longer grows"
