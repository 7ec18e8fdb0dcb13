"""Spectral-index kernels.

Each index is a per-pixel band combination; inputs arrive as NaN-masked
float64 bands and results keep NaN where any input is invalid or a
denominator vanishes. Band roles per index follow the tool catalog
(note NDWI here is the NIR/SWIR variant).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..raster import Raster, map_rows, mask_like, require_same_grid
from .common import as_binary, nonempty

FVC_NDVI_MIN = 0.05
FVC_NDVI_MAX = 0.86

# NDVI bins with fewer valid pixels are left out of the TVDI edge fit
TVDI_MIN_BIN_PIXELS = 3
# NDVI bins of the TVDI edge fit, at most
MAX_TVDI_BINS = 1000


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out[den == 0.0] = np.nan
    return out


def normalized_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _ratio(a - b, a + b)


def _evi(nir: np.ndarray, red: np.ndarray, blue: np.ndarray) -> np.ndarray:
    return _ratio(2.5 * (nir - red), nir + 6.0 * red - 7.5 * blue + 1.0)


def _wri(green: np.ndarray, red: np.ndarray, nir: np.ndarray,
         swir: np.ndarray) -> np.ndarray:
    return _ratio(green + red, nir + swir)


# index kind -> (band roles, formula taking the bands in role order)
INDICES = {
    "ndvi": (("nir", "red"), normalized_difference),
    "ndwi": (("nir", "swir"), normalized_difference),
    "ndbi": (("swir", "nir"), normalized_difference),
    "evi": (("nir", "red", "blue"), _evi),
    "nbr": (("nir", "swir"), normalized_difference),
    "wri": (("green", "red", "nir", "swir"), _wri),
    "ndti": (("red", "green"), normalized_difference),
    "ndsi": (("green", "swir"), normalized_difference),
}


def compute_index(formula, *rasters: Raster) -> Raster:
    """One spectral index: `formula` (an `INDICES` formula) of the rasters'
    bands, given in its role order, on their shared grid."""
    require_same_grid(*rasters)
    return map_rows(formula, list(rasters), rasters[0])


def compute_fvc(ndvi: Raster, ndvi_min: float = FVC_NDVI_MIN,
                ndvi_max: float = FVC_NDVI_MAX) -> Raster:
    """Fractional vegetation cover: squared clamped NDVI fraction."""
    if not ndvi_max > ndvi_min:
        raise InvalidInputError(
            f"degenerate NDVI range: min {ndvi_min} >= max {ndvi_max}"
        )
    def fvc(b: np.ndarray) -> np.ndarray:
        frac = np.clip((b - ndvi_min) / (ndvi_max - ndvi_min), 0.0, 1.0)
        return frac * frac

    return map_rows(fvc, [ndvi], ndvi)


def frp_mask(r: Raster, threshold: float) -> Raster:
    """Binary fire-radiative-power mask: 1 where value > threshold."""
    return mask_like(r, r.band() > threshold)


def extreme_snow_loss_percentage(binary_map: Raster) -> float:
    """Percentage of 1-pixels among valid pixels of a binary map."""
    b = as_binary(binary_map.band(), "snow loss map")
    valid = nonempty(b[~np.isnan(b)], "snow loss map")
    return float(100.0 * np.count_nonzero(valid == 1.0) / valid.size)


def fit_tvdi_edges(ndvi: np.ndarray, lst: np.ndarray, bins: int):
    """Fit dry (max-LST) and wet (min-LST) edges over NDVI bins.

    Returns ((dry_slope, dry_intercept), (wet_slope, wet_intercept)).
    Bins with fewer than TVDI_MIN_BIN_PIXELS pixels are skipped; fewer than two
    usable bins is an error, and so are bins past MAX_TVDI_BINS and an edge
    fit that is not finite (an infinite LST in a usable bin). One search over
    the edges bins every pixel, rather than one scan per bin.
    """
    if bins < 1:
        raise InvalidInputError(f"TVDI: bins must be at least 1, got {bins}")
    if bins > MAX_TVDI_BINS:
        raise InvalidInputError(f"TVDI: bins must be at most {MAX_TVDI_BINS}, got {bins}")
    ok = ~(np.isnan(ndvi) | np.isnan(lst))
    x, y = ndvi[ok], lst[ok]
    if x.size == 0:
        raise InvalidInputError("TVDI: no valid NDVI/LST pixels")
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi <= lo:
        raise InvalidInputError("TVDI: constant NDVI field")
    edges = np.linspace(lo, hi, bins + 1)
    usable = np.zeros(0, np.intp)
    # an infinite NDVI span makes the edges NaN or infinite: no bin holds a pixel
    if np.isfinite(hi - lo):
        # bin i holds [edges[i], edges[i + 1]); the last one also holds hi,
        # unless hi + 1e-12 rounds to hi (hi then lands in the spare bin `bins`)
        idx = np.searchsorted(edges, x, side="right") - 1
        if hi + 1e-12 > hi:
            idx[idx == bins] = bins - 1
        usable = np.flatnonzero(np.bincount(idx, minlength=bins + 1)[:bins]
                                >= TVDI_MIN_BIN_PIXELS)
    if usable.size < 2:
        raise InvalidInputError(
            f"TVDI: only {usable.size} usable NDVI bin(s), need at least 2"
        )
    # which of two zeros the extremes keep can differ from np.max and np.min,
    # but the least-squares fit gives the same edges for either
    dry, wet = np.full(bins + 1, -np.inf), np.full(bins + 1, np.inf)
    np.maximum.at(dry, idx, y)
    np.minimum.at(wet, idx, y)
    c = 0.5 * (edges[usable] + edges[usable + 1])
    dry_fit = np.polyfit(c, dry[usable], 1)
    wet_fit = np.polyfit(c, wet[usable], 1)
    for edge, fit in (("dry", dry_fit), ("wet", wet_fit)):
        if not np.isfinite(fit).all():
            raise InvalidInputError(f"TVDI: the {edge} edge fit is not finite: "
                                    "an LST value in a usable bin is infinite")
    return (float(dry_fit[0]), float(dry_fit[1])), (float(wet_fit[0]), float(wet_fit[1]))


def compute_tvdi(ndvi: np.ndarray, lst: np.ndarray, bins: int = 20) -> np.ndarray:
    """Temperature-vegetation dryness index in [0,1], between the dry and
    wet edges fitted from the data."""
    (ds, di), (ws, wi) = fit_tvdi_edges(ndvi, lst, bins=bins)
    dry = ds * ndvi + di
    wet = ws * ndvi + wi
    span = dry - wet
    with np.errstate(divide="ignore", invalid="ignore"):
        tvdi = np.where(span <= 0.0, np.nan, (lst - wet) / span)
    return np.clip(tvdi, 0.0, 1.0)
