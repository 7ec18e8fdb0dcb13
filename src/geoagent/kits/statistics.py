"""Descriptive statistics, batch image statistics, threshold queries,
scalar utilities, and the Landsat surface-reflectance preprocessing pair.

Moments are population (biased) estimators and kurtosis is reported as
excess, so a normal distribution scores 0. Comparators are strict unless a
tool explicitly asks otherwise. A comparator, a direction or a count mode
arrives as the value of its table (`COMPARATORS`, `DIRECTIONS`,
`COUNT_MODES`), never as its name.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..errors import InvalidInputError, MissingFileError
from ..finite_json import is_finite_number
from ..raster import Raster, map_rows, mask_like, require_same_grid
from .common import (
    count_beyond,
    deviation_means,
    nonempty,
    order_statistic,
    sample_mean,
    sample_sum,
)

COMPARATORS = {
    ">": np.greater,
    "<": np.less,
    ">=": np.greater_equal,
    "<=": np.less_equal,
}

# side of a threshold -> the strict comparison that selects it
DIRECTIONS = {
    "above": np.greater,
    "below": np.less,
}

# how a count of hits among n images is reported
COUNT_MODES = {
    "count": lambda hits, n: float(hits),
    "percentage": lambda hits, n: float(100.0 * hits / n),
}

KELVIN_OFFSET = 273.15

# Landsat Collection-2 surface reflectance scale pair
SR_SCALE = 2.75e-5
SR_OFFSET = -0.2

# QA bit positions treated as cloud-contaminated
QA_MASK_BITS = (1, 2, 3, 4)  # dilated cloud, cirrus, cloud, shadow
_QA_MASK = sum(1 << bit for bit in QA_MASK_BITS)


# ---------------------------------------------------------------------------
# scalar statistics over inline datasets
# ---------------------------------------------------------------------------


def mean(data) -> float:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0:
        raise InvalidInputError("mean of empty dataset")
    return float(arr.mean())


def coefficient_of_variation(data) -> float:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size < 2:
        raise InvalidInputError("CV needs at least 2 values")
    m = arr.mean()
    if m == 0.0:
        raise InvalidInputError("CV undefined at zero mean")
    return float(arr.std() / m)


def skewness(data) -> float:
    return _skewness(np.asarray(data, dtype=np.float64))


def kurtosis(data) -> float:
    """Excess kurtosis: population fourth moment over variance squared, minus 3."""
    return _kurtosis(np.asarray(data, dtype=np.float64))


# The moments take a 1-D vector of samples in any stored dtype and work in
# float64, one leaf of samples at a time (`common.pairwise_sums`).


def _skewness(samples: np.ndarray) -> float:
    if samples.size < 3:
        raise InvalidInputError("skewness needs at least 3 values")
    m2, m3 = deviation_means(samples, sample_mean(samples), (2, 3))
    if m2 == 0.0:
        raise InvalidInputError("skewness undefined at zero variance")
    return float(m3 / m2 ** 1.5)


def _kurtosis(samples: np.ndarray) -> float:
    if samples.size < 4:
        raise InvalidInputError("kurtosis needs at least 4 values")
    m2, m4 = deviation_means(samples, sample_mean(samples), (2, 4))
    if m2 == 0.0:
        raise InvalidInputError("kurtosis undefined at zero variance")
    return float(m4 / (m2 * m2) - 3.0)


def _std(samples: np.ndarray) -> np.float64:
    (variance,) = deviation_means(samples, sample_mean(samples), (2,))
    return np.sqrt(variance)


# ---------------------------------------------------------------------------
# per-image statistics over batches
# ---------------------------------------------------------------------------


def _of_samples(reduce):
    """A per-image statistic: `reduce` over the band's valid stored samples."""
    return lambda r, band: reduce(nonempty(r.samples(band), "image"))


def _median(r: Raster, band: int) -> float:
    return order_statistic(nonempty(r.samples(band), "image"),
                           values=lambda: r.samples(band).astype(np.float64))


def _extreme(pick):
    """A per-image statistic: `pick` (np.min or np.max) of the band's valid
    values. Widening keeps the order, so the stored sample picked is the
    value numpy picks, except among zeros of two signs: when a float band's
    pick is zero, numpy decides, on the values."""
    def stat(r: Raster, band: int) -> np.float64:
        samples = nonempty(r.samples(band), "image")
        value = np.float64(pick(samples))
        if value == 0 and samples.dtype.kind == "f":
            return pick(samples.astype(np.float64))
        return value

    return stat


# per-image statistic -> its value on (raster, band)
IMAGE_STATS = {
    "mean": _of_samples(sample_mean),
    "std": _of_samples(_std),
    "median": _median,
    "min": _extreme(np.min),
    "max": _extreme(np.max),
    "skewness": _of_samples(_skewness),
    "kurtosis": _of_samples(_kurtosis),
    "sum": _of_samples(sample_sum),
}


def _per_image(rasters, fn) -> list:
    """`fn` of each image of a nonempty batch, in order. `map` lets go of
    each image before it takes the next, so a batch that loads its images
    as they are taken holds one at a time."""
    if not len(rasters):
        raise InvalidInputError("empty image batch")
    return list(map(fn, rasters))


def batch_image_stat(rasters, stat, band: int = 1) -> list[float]:
    """`stat` (an `IMAGE_STATS` value) of each image's band, in order."""
    return _per_image(rasters, lambda r: float(stat(r, band)))


def batch_mean_max_min(rasters, band: int = 1) -> tuple[float, float, float]:
    """The mean of the per-image means, the maximum of the maxima and the
    minimum of the minima, taking each image once."""
    means, maxes, mins = zip(*_per_image(rasters, lambda r: tuple(
        float(IMAGE_STATS[s](r, band)) for s in ("mean", "max", "min"))))
    return float(np.mean(means)), float(np.max(maxes)), float(np.min(mins))


# ---------------------------------------------------------------------------
# threshold queries
# ---------------------------------------------------------------------------


def percent_satisfying(r: Raster, comparator, threshold: float,
                       band: int = 1) -> float:
    samples = nonempty(r.samples(band), "image")
    return float(100.0 * count_beyond(samples, comparator, threshold) / samples.size)


def hotspot_percentages(rasters, threshold: float,
                        comparator=np.greater, band: int = 1) -> list[float]:
    return _per_image(rasters, lambda r: percent_satisfying(r, comparator, threshold, band))


def hotspot_map(r: Raster, threshold: float, band: int = 1) -> Raster:
    """Binary map, 1 where the pixel is BELOW the threshold."""
    return mask_like(r, r.band(band) < threshold)


def threshold_ratio(rasters, threshold: float, band: int = 1,
                    comparator=np.greater) -> float:
    """Average percentage of pixels satisfying the threshold across images."""
    return float(np.mean(hotspot_percentages(rasters, threshold, comparator, band)))


def _condition(cond: dict) -> tuple[int, str, float]:
    """A condition's band (1 if left out), comparator (">") and value; the
    value must be a finite number and the band an integer."""
    band, comparator, value = cond.get("band", 1), cond.get("comparator", ">"), cond.get("value")
    if not (is_finite_number(value) and isinstance(band, int) and not isinstance(band, bool)
            and isinstance(comparator, str) and comparator in COMPARATORS):
        raise InvalidInputError(
            "a condition needs a finite number value, an optional integer band and "
            f"an optional comparator in {', '.join(COMPARATORS)}, got {cond!r}")
    return band, comparator, value


def multi_band_condition_mask(r: Raster, conditions: list[dict]) -> np.ndarray:
    """Joint boolean mask of pixels satisfying every (band, comparator, value)."""
    if not conditions:
        raise InvalidInputError("at least one condition required")
    mask = None
    for band, comparator, value in map(_condition, conditions):
        b = r.band(band)
        this = COMPARATORS[comparator](b, value) & ~np.isnan(b)
        mask = this if mask is None else (mask & this)
    return mask


def multi_band_threshold_ratio(r: Raster, conditions: list[dict]) -> float:
    mask = multi_band_condition_mask(r, conditions)
    valid = ~np.isnan(r.band(conditions[0].get("band", 1)))
    total = int(np.count_nonzero(valid))
    if total == 0:
        raise InvalidInputError("image has no valid pixels")
    return float(100.0 * np.count_nonzero(mask) / total)


def count_pixels_satisfying(r: Raster, conditions: list[dict]) -> int:
    return int(np.count_nonzero(multi_band_condition_mask(r, conditions)))


def count_images_exceeding_ratio(rasters, threshold: float,
                                 ratio: float, band: int = 1,
                                 comparator=np.greater) -> int:
    """Images whose percentage of pixels beyond the threshold exceeds `ratio`."""
    pcts = hotspot_percentages(rasters, threshold, comparator, band)
    return int(sum(1 for p in pcts if p > ratio))


def average_ratio_exceeding(rasters, threshold: float,
                            ratio_threshold: float, band: int = 1) -> float:
    """Mean percentage over images whose share of pixels above the threshold
    exceeds the ratio threshold."""
    pcts = [p for p in hotspot_percentages(rasters, threshold, np.greater, band)
            if p > ratio_threshold]
    if not pcts:
        raise InvalidInputError("no image exceeds the ratio threshold")
    return float(np.mean(pcts))


def images_mean_vs_threshold(rasters, threshold: float,
                             direction=np.greater, mode=COUNT_MODES["count"],
                             band: int = 1) -> float:
    """`mode` of the images whose band mean is on the `direction` side of a threshold."""
    means = batch_image_stat(rasters, IMAGE_STATS["mean"], band)
    return mode(sum(1 for m in means if direction(m, threshold)), len(means))


def count_images_vs_mean_multiplier(rasters, multiplier: float,
                                    direction=np.greater, band: int = 1) -> int:
    """Images whose mean is on the `direction` side of multiplier x (mean of all means)."""
    means = batch_image_stat(rasters, IMAGE_STATS["mean"], band)
    reference = multiplier * float(np.mean(means))
    return int(sum(1 for m in means if direction(m, reference)))


def fire_pixel_counts(rasters, threshold: float, band: int = 1) -> list[int]:
    return _per_image(rasters, lambda r: count_beyond(r.samples(band), np.greater, threshold))


def fire_increase_map(before: Raster, after: Raster, threshold: float) -> Raster:
    """Binary map where (after - before) exceeds the threshold."""
    require_same_grid(before, after)
    return mask_like(before, after.band() - before.band() > threshold)


def fire_prone_areas(hotspot: Raster, percentile: float) -> Raster:
    """Binary map of pixels at or above the N-th percentile of the map."""
    if not 0.0 <= percentile <= 100.0:
        raise InvalidInputError(f"percentile must be in [0, 100], got {percentile}")
    cut = order_statistic(nonempty(hotspot.samples(), "hotspot map"), percentile,
                          values=lambda: hotspot.samples().astype(np.float64))
    return mask_like(hotspot, hotspot.band() >= cut)


# ---------------------------------------------------------------------------
# conditional band statistics
# ---------------------------------------------------------------------------


def band_mean_by_condition(target: Raster, condition: Raster, comparator,
                           threshold: float, target_band: int = 1,
                           condition_band: int = 1) -> float:
    require_same_grid(target, condition)
    t = target.band(target_band)
    c = condition.band(condition_band)
    sel = comparator(c, threshold) & ~np.isnan(c) & ~np.isnan(t)
    if not sel.any():
        raise InvalidInputError("condition selects no valid pixels")
    return float(t[sel].mean())


def threshold_value_mean(selector: Raster, target: Raster, threshold: float) -> float:
    """Mean of target pixels where the selector raster exceeds the threshold."""
    return band_mean_by_condition(target, selector, np.greater, threshold)


def intersection_percentage(a: Raster, b: Raster, threshold_a: float, threshold_b: float,
                            comparator_a=np.greater, comparator_b=np.greater) -> float:
    """Percentage of pixels satisfying both single-band conditions at once."""
    require_same_grid(a, b)
    xa, xb = a.band(), b.band()
    valid = ~np.isnan(xa) & ~np.isnan(xb)
    total = int(np.count_nonzero(valid))
    if total == 0:
        raise InvalidInputError("no jointly valid pixels")
    joint = comparator_a(xa, threshold_a) & comparator_b(xb, threshold_b) & valid
    return float(100.0 * np.count_nonzero(joint) / total)


def image_division_mean(num: Raster, den: Raster, numerator_band: int = 1,
                        denominator_band: int = 1) -> float:
    """Mean of the pixelwise quotient, excluding zero denominators."""
    require_same_grid(num, den)
    x, y = num.band(numerator_band), den.band(denominator_band)
    sel = ~np.isnan(x) & ~np.isnan(y) & (y != 0.0)
    if not sel.any():
        raise InvalidInputError("no valid pixels with nonzero denominator")
    return float((x[sel] / y[sel]).mean())


# ---------------------------------------------------------------------------
# scalar utilities
# ---------------------------------------------------------------------------


def difference(a: float, b: float) -> float:
    return abs(a - b)


def division(a: float, b: float) -> float:
    if b == 0:
        raise InvalidInputError("division by zero")
    return a / b


def percentage_change(old: float, new: float) -> float:
    if old == 0:
        raise InvalidInputError("percentage change undefined for zero base")
    return 100.0 * (new - old) / abs(old)


def multiply(a: float, b: float) -> float:
    return a * b


def ceil_number(x: float) -> int:
    return math.ceil(x)


def kelvin_to_celsius(k: float) -> float:
    return k - KELVIN_OFFSET


def celsius_to_kelvin(c: float) -> float:
    return c + KELVIN_OFFSET


def max_with_index(values) -> tuple[float, int]:
    arr = np.asarray(values, np.float64)
    if arr.size == 0:
        raise InvalidInputError("empty list")
    idx = int(np.argmax(arr))
    return float(arr[idx]), idx


def min_with_index(values) -> tuple[float, int]:
    arr = np.asarray(values, np.float64)
    if arr.size == 0:
        raise InvalidInputError("empty list")
    idx = int(np.argmin(arr))
    return float(arr[idx]), idx


def list_select(items: list, indexes: list[int]) -> list:
    out = []
    for i in indexes:
        if not -len(items) <= i < len(items):
            raise InvalidInputError(f"index {i} out of range for list of {len(items)}")
        out.append(items[i])
    return out


# ---------------------------------------------------------------------------
# image utilities
# ---------------------------------------------------------------------------


def area_nonzero(r: Raster, band: int = 1) -> int:
    return int(np.count_nonzero(r.samples(band)))


def percentile_value(r: Raster, percentile: float, band: int = 1) -> float:
    samples = nonempty(r.samples(band), "image")
    if not 0.0 <= percentile <= 100.0:
        raise InvalidInputError("percentile must be within [0, 100]")
    return order_statistic(samples, percentile,
                           values=lambda: r.samples(band).astype(np.float64))


def _viridis_lut() -> np.ndarray:
    """256-entry RGB lookup table interpolated between fixed anchors."""
    anchors = np.array([
        (68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142),
        (33, 144, 141), (39, 173, 129), (92, 200, 99), (170, 220, 50),
        (253, 231, 37),
    ], dtype=np.float64)
    xs = np.linspace(0, 255, anchors.shape[0])
    grid = np.arange(256, dtype=np.float64)
    lut = np.stack([np.interp(grid, xs, anchors[:, c]) for c in range(3)], axis=1)
    return np.clip(np.round(lut), 0, 255).astype(np.uint8)


COLORMAP_LUT = _viridis_lut()


def grayscale_to_colormap(r: Raster, band: int = 1) -> Raster:
    """Map a grayscale band through the fixed LUT to a 3-band u8 raster.

    Values are min/max stretched to [0, 255] first; nodata maps to black.
    """
    b = r.band(band)
    vals = nonempty(b[~np.isnan(b)], "image")
    lo, hi = float(vals.min()), float(vals.max())
    if hi > lo:
        scaled = np.clip((b - lo) / (hi - lo) * 255.0, 0, 255)
    else:
        scaled = np.zeros_like(b)
    idx = np.where(np.isnan(scaled), 0, scaled).astype(np.uint8)
    rgb = COLORMAP_LUT[idx].transpose(2, 0, 1).copy()
    rgb[:, np.isnan(b)] = 0
    return Raster(rgb, geo=r.geo)


def get_filelist(directory: str | Path, pattern: str | None = None) -> list[str]:
    """Lexicographically sorted file names in a directory."""
    d = Path(directory)
    if not d.is_dir():
        raise MissingFileError(f"no such directory: {directory}")
    names = [p.name for p in d.iterdir() if p.is_file()]
    if pattern:
        import fnmatch

        names = [n for n in names if fnmatch.fnmatch(n, pattern)]
    return sorted(names)


def radiometric_correction_sr(r: Raster) -> Raster:
    """Scale Landsat SR digital numbers to reflectance, clamped to [0, 1]."""
    if r.dtype_name != "u16":
        raise InvalidInputError(
            f"surface-reflectance correction expects u16 digital numbers, got {r.dtype_name}"
        )
    return map_rows(lambda dn: np.clip(SR_SCALE * dn + SR_OFFSET, 0.0, 1.0), [r], r)


def apply_cloud_mask(band_raster: Raster, qa: Raster) -> Raster:
    """Set pixels flagged by the QA band's cloud/shadow bits to nodata."""
    require_same_grid(band_raster, qa)
    if qa.dtype_name != "u16":
        raise InvalidInputError(f"QA band must be u16, got {qa.dtype_name}")
    return map_rows(lambda band, qa_rows: np.where(qa_rows & _QA_MASK, np.nan, band),
                    [band_raster, qa.plane(1)], band_raster)
