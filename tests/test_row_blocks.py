"""Per-pixel kernels over blocks of rows give the whole-array result bit for bit.

`raster.map_rows` evaluates a per-pixel function over blocks of whole rows.
Each case here shrinks `BLOCK_SAMPLES` to one to three rows, so that a small
raster spans many blocks, and compares the result with the whole-array
evaluation it replaces: `like(reference, fn(*bands))`, bit for bit and in
its nodata marking. Inputs are u8, u16 and f32, with no nodata, NaN nodata,
a finite float nodata or an integer one, and values that hit the kernels'
edges (zero denominators, zeros of both signs, infinities, NaN samples).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent.kits import index as ix
from geoagent.kits import statistics as stats
from geoagent.kits.perception import MockExpertBackend
from geoagent.raster import from_array, like, map_rows, model
from geoagent.tools import ToolContext, catalog
from geoagent.workspace import Workspace

from conftest import make_georef

# values at the kernels' edges: zeros of both signs, zero denominators,
# overflow, infinities and NaNs of both signs, besides ordinary ones
SPECIAL_FLOATS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 0.04, 0.2, 290.0, 300.5, 1e30, -1e30,
                           3.4e38, np.inf, -np.inf, np.nan, -np.nan])


@st.composite
def grids(draw):
    """(height, width, rows per block before `map_rows` rounds them up to
    whole runs of samples): enough rows that most grids span several blocks."""
    width = draw(st.sampled_from([1, 2, 3, 5, 6, 7, 16, 24, 64]))
    return draw(st.integers(1, 4096 // width)), width, draw(st.integers(1, 3))


@st.composite
def rasters(draw, height, width, dtype=None):
    """A one-band raster of the given grid with a drawn dtype and nodata."""
    dtype = dtype or draw(st.sampled_from(["u8", "u16", "f32"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (height, width)
    if dtype == "f32":
        values = np.where(rng.random(shape) < 0.3, rng.choice(SPECIAL_FLOATS, shape),
                          rng.uniform(-2.0, 400.0, shape))
        nodata = draw(st.sampled_from([None, float("nan"), 0.0, 300.5, -1e30]))
    else:
        top = 255 if dtype == "u8" else 65535
        values = np.where(rng.random(shape) < 0.3, rng.choice([0, 1, 2, top], shape),
                          rng.integers(0, top + 1, shape))
        nodata = draw(st.sampled_from([None, float("nan"), 0.0, 2.0, 2.5, -9999.0,
                                       float(top)]))
    with np.errstate(over="ignore"):
        return from_array(values, dtype, nodata=nodata, geo=make_georef())


def assert_same_raster(got, want):
    assert got.data.dtype == want.data.dtype == np.float32
    assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))
    assert (got.nodata is None) == (want.nodata is None)
    assert got.geo == want.geo


def per_pixel_rows() -> list[catalog.Tool]:
    ws = Workspace(".")
    return [row for row in catalog.catalog_rows(ToolContext(ws, MockExpertBackend([], ws)))
            if row.per_pixel]


PER_PIXEL = {row.name: row for row in per_pixel_rows()}


class TestCatalogRows:
    """Every row declared per pixel, through `_call`, against the
    whole-array `like` evaluation of its `fn` on the same rasters."""

    @pytest.mark.parametrize("name", sorted(PER_PIXEL))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_blocked_equals_whole(self, name, data):
        row = PER_PIXEL[name]
        height, width, rows = data.draw(grids())
        loaded, args, given_kw = {}, {}, {}
        for p in row.params:
            if p.kind == "file":
                args[p.name] = p.name
                loaded[p.name] = data.draw(rasters(height, width))
            elif p.kind == "files":
                count = data.draw(st.integers(1, 3))
                args[p.name] = [f"{p.name}{i}" for i in range(count)]
                for key in args[p.name]:
                    loaded[key] = data.draw(rasters(height, width))
            elif p.kind == "out_file":
                continue
            elif not p.required and p.type == "number" and data.draw(st.booleans()):
                given_kw[p.name] = args[p.name] = data.draw(st.floats(0.1, 3.0))
        if "coefficients" in {p.name for p in row.params} and data.draw(st.booleans()):
            given_kw["coefficients"] = args["coefficients"] = np.array(
                data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(args["band_paths"]),
                                   max_size=len(args["band_paths"]))))

        def bands(value):
            return ([loaded[k].band() for k in value] if isinstance(value, list)
                    else loaded[value].band())

        inputs = [bands(args[p.name]) for p in row.params
                  if p.kind in ("file", "files")]
        template = loaded[args[row.like][0] if isinstance(args[row.like], list)
                          else args[row.like]]
        with np.errstate(all="ignore"):
            want = like(template, row.fn(*inputs, **given_kw))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(catalog, "load_raster", loaded.__getitem__)
                mp.setattr(model, "BLOCK_SAMPLES", rows * width)
                got = catalog._call(row, args)
        assert_same_raster(got, want)

    def test_the_scene_rows_are_per_pixel(self):
        assert {"lst_multi_channel", "calculate_tif_difference", "subtract"} <= set(PER_PIXEL)


class TestKitSites:
    """The kit functions that call `map_rows` themselves, against the
    whole-array code each replaced."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(ix.INDICES)))
    def test_compute_index(self, data, kind):
        roles, formula = ix.INDICES[kind]
        height, width, rows = data.draw(grids())
        rs = [data.draw(rasters(height, width)) for _ in roles]
        with np.errstate(all="ignore"):
            want = like(rs[0], formula(*(r.band() for r in rs)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model, "BLOCK_SAMPLES", rows * width)
                got = ix.compute_index(formula, *rs)
        assert_same_raster(got, want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_compute_fvc(self, data):
        height, width, rows = data.draw(grids())
        ndvi = data.draw(rasters(height, width))
        lo, hi = ix.FVC_NDVI_MIN, ix.FVC_NDVI_MAX
        with np.errstate(all="ignore"):
            frac = np.clip((ndvi.band() - lo) / (hi - lo), 0.0, 1.0)
            want = like(ndvi, frac * frac)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model, "BLOCK_SAMPLES", rows * width)
                got = ix.compute_fvc(ndvi)
        assert_same_raster(got, want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_radiometric_correction_sr(self, data):
        height, width, rows = data.draw(grids())
        dn = data.draw(rasters(height, width, "u16"))
        want = like(dn, np.clip(stats.SR_SCALE * dn.band() + stats.SR_OFFSET, 0.0, 1.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_SAMPLES", rows * width)
            got = stats.radiometric_correction_sr(dn)
        assert_same_raster(got, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_apply_cloud_mask(self, data):
        height, width, rows = data.draw(grids())
        band = data.draw(rasters(height, width))
        qa = data.draw(rasters(height, width, "u16"))  # its nodata is not read
        flagged = np.zeros((height, width), dtype=bool)
        for bit in stats.QA_MASK_BITS:
            flagged |= (qa.plane(1) >> bit) & 1 == 1
        want = like(band, np.where(flagged, np.nan, band.band()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_SAMPLES", rows * width)
            got = stats.apply_cloud_mask(band, qa)
        assert_same_raster(got, want)


class TestMapRows:
    def test_one_call_for_a_raster_within_one_block(self):
        r = from_array(np.arange(12.0).reshape(3, 4))
        calls = []

        def fn(b):
            calls.append(b.shape)
            return b * 2

        assert_same_raster(map_rows(fn, [r], r), like(r, r.band() * 2))
        assert calls == [(3, 4)]

    @pytest.mark.parametrize("width, height, blocks", [
        (64, 5, [2, 2, 1]),  # a run is one row
        (16, 9, [9]),  # 8-row blocks of 4-row runs; the last row alone joins the first
        (7, 130, [64, 66]),  # a run is 64 rows
    ])
    def test_blocks_are_whole_runs_of_rows(self, monkeypatch, width, height, blocks):
        monkeypatch.setattr(model, "BLOCK_SAMPLES", 128)
        r = from_array(np.arange(float(height * width)).reshape(height, width))
        calls = []

        def fn(b):
            calls.append(b.shape)
            return b

        assert_same_raster(map_rows(fn, [r], r), like(r, r.band()))
        assert calls == [(rows, width) for rows in blocks]

    def test_nodata_only_where_a_nan_is(self):
        r = from_array([[1.0, 2.0], [3.0, 4.0]])
        assert map_rows(lambda b: b, [r], r).nodata is None
        assert np.isnan(map_rows(lambda b: np.where(b > 3, np.nan, b), [r], r).nodata)

    def test_an_array_passes_its_rows_as_stored(self, monkeypatch):
        monkeypatch.setattr(model, "BLOCK_SAMPLES", 64)
        r = from_array(np.ones((3, 64)), nodata=1.0)
        flags = np.arange(3 * 64, dtype=np.uint16).reshape(3, 64)
        seen = []

        def fn(band, rows):
            seen.append(rows.dtype)
            return np.where(np.isnan(band), rows, 0.0)

        out = map_rows(fn, [r, flags], r)
        assert seen == [np.uint16] * 3
        assert np.array_equal(out.data[0], flags)
