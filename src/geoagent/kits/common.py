"""Helpers shared across tool kits."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..raster import Raster


def as_binary(band: np.ndarray, what: str = "map") -> np.ndarray:
    """Validate a 0/1 (or 0/255) band and normalize it to {0,1} with NaN kept.

    Raises InvalidInputError when any valid pixel is outside the accepted
    value sets.
    """
    vals = band[~np.isnan(band)]
    uniq = set(np.unique(vals).tolist())
    if uniq <= {0.0, 1.0}:
        return band
    if uniq <= {0.0, 255.0}:
        out = band.copy()
        out[band == 255.0] = 1.0
        return out
    raise InvalidInputError(f"{what} is not binary: values {sorted(uniq)[:6]}")


def nonempty(values: np.ndarray, what: str) -> np.ndarray:
    if values.size == 0:
        raise InvalidInputError(f"{what}: no valid pixels to aggregate")
    return values


def _order_statistic(r: Raster, band: int, samples: np.ndarray,
                     percentile: float | None = None) -> float:
    """`np.percentile(r.values(band), percentile)`, or `np.median` of them
    when `percentile` is None, bit for bit, from `samples`, the nonempty
    `r.samples(band)`, which the call reorders.

    Both need the order statistics at two neighbouring ranks. One
    single-kth partition of the stored samples and the least value past it
    give them; widening u8, u16 or f32 to float64 is exact and keeps the
    order, so they are the values numpy picks, and numpy's own formula then
    combines them. Values that compare equal have the same bits, except
    zeros of two signs: when a picked value of a float band is zero, numpy
    decides, on the values in their stored order.
    """
    n = samples.size
    if percentile is None:
        lo_rank, hi_rank = (n - 1) // 2, n // 2
    else:
        # numpy's `linear` method: virtual index (n - 1) * q, ranks around it
        vi = (n - 1) * np.true_divide(percentile, 100)
        lo_rank = hi_rank = n - 1
        if vi < n - 1:
            lo_rank = int(np.floor(vi))
            hi_rank = lo_rank + 1
    samples.partition(lo_rank)
    lo = np.float64(samples[lo_rank])
    hi = lo if hi_rank == lo_rank else np.float64(samples[hi_rank:].min())
    if samples.dtype.kind == "f" and not (lo and hi):
        values = r.values(band)
        return float(np.median(values) if percentile is None
                     else np.percentile(values, percentile))
    with np.errstate(over="ignore", invalid="ignore"):
        if percentile is None:  # the mean of the middle value(s)
            return float(lo if n % 2 else np.mean(np.array([lo, hi])))
        # at the last rank numpy takes the last value twice and measures
        # the weight from index -1
        g = float(vi - (lo_rank if vi < n - 1 else -1))
        d = hi - lo
        return float(hi - d * (1 - g) if g >= 0.5 else lo + d * g)
