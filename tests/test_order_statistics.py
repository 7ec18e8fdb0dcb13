"""Medians and percentiles selected on the stored samples are numpy's, bit for bit.

`percentile_value`, `fire_prone_areas` and the per-image median select on a
copy of the band's valid samples in their stored dtype. The oracle is
`np.percentile` and `np.median` on the band's valid values, compared by
`repr`, over u8, u16 and f32 bands with ties, zeros of both signs,
+-3.4e38, NaN samples and every kind of nodata. `TestVectors` runs the
kernel on f32 and f64 vectors with NaN and infinities, as Sen's slope
gives them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoagent.errors import InvalidInputError
from geoagent.kits import statistics as stats
from geoagent.kits.common import order_statistic
from geoagent.raster import from_array, mask_like

F32_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, 3.4e38, -3.4e38, 1e-38, float("inf"),
              float("-inf"), float("nan")]


@st.composite
def bands(draw, max_size=300):
    """A two-band raster; its second band holds the drawn samples."""
    dtype = draw(st.sampled_from(["u8", "u16", "f32"]))
    n = draw(st.integers(1, max_size))
    if dtype == "f32":
        # few distinct values, so ties and zeros of both signs are common
        pool = draw(st.lists(st.one_of(st.sampled_from(F32_VALUES),
                                       st.floats(-1e6, 1e6, width=32)),
                             min_size=1, max_size=8))
        nodata = draw(st.sampled_from([None, float("nan"), 0.0, -0.0, 2.5, 3.4e38]))
    else:
        top = 255 if dtype == "u8" else 65535
        pool = draw(st.lists(st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top)),
                             min_size=1, max_size=8))
        nodata = draw(st.sampled_from([None, float("nan"), 0.0, 1.0, 1.5, -9999.0,
                                       float(top)]))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    width = draw(st.integers(1, n))
    height = -(-n // width)
    grid = np.full(height * width, pool[0], dtype=np.float64)
    grid[:n] = values
    stack = np.stack([np.zeros((height, width)), grid.reshape(height, width)])
    with np.errstate(over="ignore"):
        return from_array(stack, dtype, nodata=nodata)


percentiles = st.one_of(st.sampled_from([0.0, 100.0, 0, 100, 50, 25.0, 75.0, 90.0]),
                        st.floats(0.0, 100.0), st.integers(0, 100))


def valid_values(r, band=1) -> np.ndarray:
    """The band's valid values in float64: its pixels that are not NaN."""
    b = r.band(band)
    return b[~np.isnan(b)]


def numpy_percentile(r, q, band=2) -> float:
    return float(np.percentile(valid_values(r, band), q))


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(r=bands(), q=percentiles)
    @example(r=from_array([[[0.0]], [[-0.0]]]), q=50.0)
    @example(r=from_array([[[0.0, 0.0]], [[-0.0, 0.0]]]), q=50.0)
    @example(r=from_array([[[0.0, 0.0]], [[3.4e38, 3.4e38]]]), q=50.0)
    @example(r=from_array([[[0.0, 0.0]], [[-3.4e38, 3.4e38]]]), q=30.0)
    @example(r=from_array([[[0.0, 0.0]], [[float("inf"), float("inf")]]]), q=100.0)
    # at a weight of exactly one half numpy lerps back from the upper value
    @example(r=from_array([[[0.0, 0.0]], [[-4.6042656e26, -9.180529e12]]]), q=50.0)
    def test_percentile_value(self, r, q):
        with np.errstate(all="ignore"):
            if valid_values(r, 2).size == 0:
                return
            want = numpy_percentile(r, q)
            assert repr(stats.percentile_value(r, q, band=2)) == repr(want)

    @settings(max_examples=200, deadline=None)
    @given(r=bands())
    @example(r=from_array([[[0.0, 0.0]], [[-0.0, 0.0]]]))
    @example(r=from_array([[[0.0, 0.0]], [[3.4e38, 3.4e38]]]))
    @example(r=from_array([[[0.0]], [[7.0]]], "u8"))
    def test_median(self, r):
        with np.errstate(all="ignore"):
            if valid_values(r, 2).size == 0:
                return
            want = float(np.median(valid_values(r, 2)))
            got = stats.batch_image_stat([r], stats.IMAGE_STATS["median"], band=2)
        assert [repr(v) for v in got] == [repr(want)]

    @settings(max_examples=150, deadline=None)
    @given(r=bands(), q=percentiles)
    def test_fire_prone_areas(self, r, q):
        hotspot = from_array(r.plane(2), r.dtype_name, nodata=r.nodata)
        with np.errstate(all="ignore"):
            if valid_values(hotspot).size == 0:
                return
            want = mask_like(hotspot, hotspot.band() >= np.percentile(valid_values(hotspot), q))
            got = stats.fire_prone_areas(hotspot, q)
        assert np.array_equal(got.data, want.data)

    def test_a_long_band(self):
        rng = np.random.default_rng(7)
        for dtype, values in (("u16", rng.integers(0, 65536, (300, 301))),
                              ("f32", rng.normal(size=(300, 301)))):
            r = from_array(values, dtype)
            for q in (0.0, 12.5, 50, 99.9, 100.0):
                assert repr(stats.percentile_value(r, q)) == repr(numpy_percentile(r, q, 1))
            assert stats.IMAGE_STATS["median"](r, 1) == float(np.median(valid_values(r)))


vector_values = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]),
    st.floats(allow_nan=False))


class TestVectors:
    """The kernel on float vectors, as Sen's slope gives them: NaN and
    infinities among the samples, not only at the picked ranks."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(vector_values, min_size=1, max_size=300),
           q=st.none() | percentiles, dtype=st.sampled_from(["f4", "f8"]))
    @example(values=[-0.0], q=None, dtype="f8")  # np.median: +0.0
    @example(values=[-0.0, -0.0], q=50.0, dtype="f8")  # np.percentile: -0.0
    @example(values=[-0.0, -0.0, -0.0], q=30.0, dtype="f4")
    # the vectorised partition can drop the one +0 among the -0s
    @example(values=[-0.0] * 112 + [0.0] + [-0.0] * 277, q=91, dtype="f4")
    def test_matches_numpy(self, values, q, dtype):
        with np.errstate(all="ignore"):
            a = np.asarray(values).astype(dtype)
            wide = a.astype(np.float64)
            want = np.median(wide) if q is None else np.percentile(wide, q)
            got = order_statistic(a.copy(), q, values=lambda: a.astype(np.float64))
        assert repr(got) == repr(float(want))

    def test_read_only_samples_are_copied(self):
        a = np.array([3.0, 1.0, 2.0])
        a.setflags(write=False)
        assert order_statistic(a, values=lambda: a.copy()) == 2.0
        assert a.tolist() == [3.0, 1.0, 2.0]


class TestNoValidPixels:
    @pytest.mark.parametrize("dtype, nodata", [("u8", 3.0), ("u16", 3.0), ("f32", 3.0),
                                               ("f32", float("nan"))])
    def test_error_texts_kept(self, dtype, nodata):
        r = from_array(np.full((2, 3), 3.0 if nodata == 3.0 else np.nan), dtype, nodata=nodata)
        with pytest.raises(InvalidInputError, match="^image: no valid pixels to aggregate$"):
            stats.percentile_value(r, 50.0)
        with pytest.raises(InvalidInputError, match="^image: no valid pixels to aggregate$"):
            stats.batch_image_stat([r], stats.IMAGE_STATS["median"])
        with pytest.raises(InvalidInputError,
                           match="^hotspot map: no valid pixels to aggregate$"):
            stats.fire_prone_areas(r, 50.0)

    def test_no_valid_pixels_is_reported_before_the_percentile_range(self):
        r = from_array(np.full((1, 2), 3.0), "u8", nodata=3.0)
        with pytest.raises(InvalidInputError, match="no valid pixels"):
            stats.percentile_value(r, 150.0)
