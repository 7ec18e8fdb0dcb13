"""Per-image means, sums, moments, extremes and pixel counts on the stored
samples are the results on the band's valid values, bit for bit.

The statistics reduce a band's valid samples in their stored dtype and widen
one leaf of at most `BLOCK_SAMPLES` samples to float64 at a time, following
numpy's pairwise summation tree. The oracle is the code that reduced the
whole float64 vector of valid values, kept here and compared by `repr`. Each case
shrinks `BLOCK_SAMPLES` to 8-64 samples, so a band of a few thousand
samples makes a tree of many levels with leaves of odd lengths, over u8,
u16 and f32 bands with NaN samples, zeros of both signs, +-3.4e38 and every
kind of nodata.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoagent.errors import InvalidInputError
from geoagent.kits import perception
from geoagent.kits import statistics as stats
from geoagent.kits.common import nonempty, pairwise_sums
from geoagent.raster import from_array, model

F32_SPECIALS = [0.0, -0.0, 1.0, -1.0, 2.5, 0.1, 3.4e38, -3.4e38, 1e-38, float("inf"),
                float("-inf"), float("nan")]


# ---------------------------------------------------------------------------
# the reductions over the whole float64 vector of valid values
# ---------------------------------------------------------------------------


def old_skewness(data) -> float:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size < 3:
        raise InvalidInputError("skewness needs at least 3 values")
    m = arr.mean()
    m2 = np.mean((arr - m) ** 2)
    if m2 == 0.0:
        raise InvalidInputError("skewness undefined at zero variance")
    return float(np.mean((arr - m) ** 3) / m2 ** 1.5)


def old_kurtosis(data) -> float:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size < 4:
        raise InvalidInputError("kurtosis needs at least 4 values")
    m = arr.mean()
    m2 = np.mean((arr - m) ** 2)
    if m2 == 0.0:
        raise InvalidInputError("kurtosis undefined at zero variance")
    return float(np.mean((arr - m) ** 4) / (m2 * m2) - 3.0)


def valid_values(r, band=1) -> np.ndarray:
    """The band's valid values in float64: its pixels that are not NaN."""
    b = r.band(band)
    return b[~np.isnan(b)]


def of_values(reduce):
    return lambda r, band: reduce(nonempty(valid_values(r, band), "image"))


OLD_STATS = {
    "mean": of_values(np.mean),
    "std": of_values(np.std),
    "median": of_values(np.median),
    "min": of_values(np.min),
    "max": of_values(np.max),
    "skewness": of_values(old_skewness),
    "kurtosis": of_values(old_kurtosis),
    "sum": of_values(np.sum),
}


def old_percent(r, comparator, threshold, band):
    vals = nonempty(valid_values(r, band), "image")
    return float(100.0 * np.count_nonzero(comparator(vals, threshold)) / vals.size)


def old_mean_max_min(rasters, band):
    def of(outer, inner):
        return float(outer([float(OLD_STATS[inner](r, band)) for r in rasters]))
    return of(np.mean, "mean"), of(np.max, "max"), of(np.min, "min")


def outcome(fn, *args) -> str:
    """`fn(*args)` as the float(s) a tool reports, by `repr`, or the text of
    its refusal."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except InvalidInputError as exc:
        return f"refused: {exc}"
    return repr(tuple(map(float, value)) if isinstance(value, tuple) else float(value))


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------


@st.composite
def bands(draw, max_size=3000):
    """A two-band raster; its second band holds the drawn samples: a few
    drawn values, special ones among them, mixed with noise of a drawn
    scale, so that the order of a sum shows in its last bits."""
    dtype = draw(st.sampled_from(["u8", "u16", "f32"]))
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == "f32":
        pool = draw(st.lists(st.one_of(st.sampled_from(F32_SPECIALS),
                                       st.floats(-1e6, 1e6, width=32)),
                             min_size=1, max_size=6))
        noise = rng.standard_normal(n) * 10.0 ** draw(st.integers(-6, 30))
        nodata = draw(st.sampled_from([None, float("nan"), 0.0, -0.0, 2.5, 0.1, 3.4e38,
                                       -9999.0, 1e39]))
    else:
        top = 255 if dtype == "u8" else 65535
        pool = draw(st.lists(st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top)),
                             min_size=1, max_size=6))
        noise = rng.integers(0, top + 1, n)
        nodata = draw(st.sampled_from([None, float("nan"), 0.0, 1.0, 1.5, -9999.0,
                                       float(top), 70000.0]))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))  # of pool values
    values = np.where(rng.uniform(size=n) < share, rng.choice(np.array(pool, np.float64), n),
                      noise)
    width = draw(st.integers(1, min(n, 97)))
    height = -(-n // width)
    grid = np.full(height * width, values[0], dtype=np.float64)
    grid[:n] = values
    stack = np.stack([np.zeros((height, width)), grid.reshape(height, width)])
    with np.errstate(over="ignore", invalid="ignore"):
        return from_array(stack, dtype, nodata=nodata)


block_samples = st.integers(8, 64)
thresholds = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.5, 1, 2.5, 255, 3.4e38, -1e300]),
                       st.floats(-1e6, 1e6), st.integers(-10, 70000))


class TestOracle:
    @settings(max_examples=250, deadline=None)
    @given(r=bands(), block=block_samples)
    @example(r=from_array([[[0.0, 0.0]], [[-0.0, 0.0]]]), block=8)
    @example(r=from_array([[[0.0, 0.0, 0.0]], [[-0.0, -0.0, -0.0]]]), block=8)
    @example(r=from_array([[[0.0, 0.0]], [[3.4e38, 3.4e38]]]), block=8)
    @example(r=from_array([[[0.0, 0.0]], [[float("inf"), float("-inf")]]]), block=8)
    @example(r=from_array(np.stack([np.zeros((3, 67)), np.full((3, 67), 0.1)])), block=8)
    def test_image_stats(self, r, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_SAMPLES", block)
            for name, stat in stats.IMAGE_STATS.items():
                assert outcome(stat, r, 2) == outcome(OLD_STATS[name], r, 2), name

    @settings(max_examples=200, deadline=None)
    @given(r=bands(), threshold=thresholds,
           comparator=st.sampled_from(list(stats.COMPARATORS.values())), block=block_samples)
    @example(r=from_array([[[0.0]], [[0.1]]]), threshold=0.1, comparator=np.greater, block=8)
    def test_pixel_counts(self, r, threshold, comparator, block):
        single = from_array(r.plane(2), r.dtype_name, nodata=r.nodata)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_SAMPLES", block)
            assert outcome(stats.percent_satisfying, r, comparator, threshold, 2) \
                == outcome(old_percent, r, comparator, threshold, 2)
            with np.errstate(all="ignore"):  # a nodata of 1e39 overflows f32
                values = valid_values(r, 2)
                assert stats.fire_pixel_counts([r], threshold, 2) == \
                    [int(np.count_nonzero(values > threshold))]
                assert stats.area_nonzero(r, 2) == int(np.count_nonzero(values != 0.0))
                assert perception.count_above_threshold(single, threshold) == \
                    int(np.count_nonzero(valid_values(single) > threshold))

    @settings(max_examples=100, deadline=None)
    @given(rasters=st.lists(bands(max_size=600), min_size=1, max_size=4), block=block_samples)
    def test_mean_max_min(self, rasters, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_SAMPLES", block)
            assert outcome(stats.batch_mean_max_min, rasters, 2) \
                == outcome(old_mean_max_min, rasters, 2)

    def test_zeros_of_both_signs(self):
        # numpy's vector loops pick among -0.0 and 0.0 by lane, and f32 and
        # f64 run different lanes, so the stored pick is not numpy's pick
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 300))
            zeros = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0)
            for name, other in (("min", 1.0), ("max", -1.0)):
                values = np.where(rng.uniform(size=n) < 0.3, other, zeros)
                r = from_array(values.reshape(1, n))
                assert outcome(stats.IMAGE_STATS[name], r, 1) == \
                    outcome(OLD_STATS[name], r, 1)

    def test_a_large_band_crosses_many_leaves(self):
        rng = np.random.default_rng(23)
        for dtype, values in (("u16", rng.integers(0, 65536, (517, 389))),
                              ("f32", rng.standard_normal((517, 389)) * 1e4)):
            r = from_array(np.stack([values, values]), dtype)
            for name, stat in stats.IMAGE_STATS.items():
                assert outcome(stat, r, 2) == outcome(OLD_STATS[name], r, 2), name


class TestPairwiseTree:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 5000), block=block_samples, seed=st.integers(0, 2**32 - 1))
    def test_sum_is_numpys(self, n, block, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)).astype(np.float32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_SAMPLES", block)
            (total,) = pairwise_sums(x, lambda leaf: (np.add.reduce(leaf),))
        assert repr(total) == repr(np.add.reduce(x.astype(np.float64)))

    def test_one_leaf_is_widened_at_a_time(self, monkeypatch):
        monkeypatch.setattr(model, "BLOCK_SAMPLES", 256)
        sizes = []
        pairwise_sums(np.ones(10_000, np.uint16),
                      lambda leaf: (sizes.append(leaf.size) or np.add.reduce(leaf),))
        assert max(sizes) <= 256 and sum(sizes) == 10_000


class TestRefusals:
    @pytest.mark.parametrize("name", list(stats.IMAGE_STATS))
    def test_no_valid_pixels(self, name):
        r = from_array(np.full((2, 3), 3.0), "u16", nodata=3.0)
        with pytest.raises(InvalidInputError, match="^image: no valid pixels to aggregate$"):
            stats.IMAGE_STATS[name](r, 1)

    def test_the_first_failing_image_in_order_is_reported(self):
        fine = from_array(np.ones((2, 2)))
        empty = from_array(np.full((2, 2), np.nan))
        one_band = from_array(np.ones((2, 2)))
        with pytest.raises(InvalidInputError, match="no valid pixels"):
            stats.batch_image_stat([fine, empty, one_band], stats.IMAGE_STATS["mean"], band=1)
        with pytest.raises(InvalidInputError, match="band 2 out of range"):
            stats.batch_image_stat([fine, one_band, empty], stats.IMAGE_STATS["mean"], band=2)
