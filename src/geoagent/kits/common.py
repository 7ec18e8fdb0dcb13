"""Helpers shared across tool kits."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..errors import InvalidInputError
from ..raster import model


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


def pairwise_sums(samples: np.ndarray, leaf) -> tuple:
    """Sums over the samples widened to float64, each bit for bit the one
    `np.add.reduce` takes over the whole widened vector, with only one leaf
    of at most `model.BLOCK_SAMPLES` samples widened at a time.

    numpy adds n values pairwise: fewer than 8 in order, up to 128 in eight
    running sums, and more as the sum of the first n2 = n//2 - (n//2) % 8
    and the sum of the rest. This follows that tree down to its leaves;
    `leaf(x)` gets one leaf's samples `x` in float64 and returns a tuple of
    `np.add.reduce` results, which the tree adds up position by position.
    numpy starts each reduction from +0.0, so a sum differs from numpy's
    only in the sign of a zero inside the tree, which the last addition of
    +0.0 clears.
    """
    return _pairwise(samples, leaf, 0, samples.size)


def _pairwise(samples: np.ndarray, leaf, lo: int, n: int) -> tuple:
    """`pairwise_sums` of the n samples from `lo` on."""
    if n <= max(model.BLOCK_SAMPLES, 128):  # numpy splits no run of 128
        return leaf(samples[lo:lo + n].astype(np.float64, copy=False))
    n2 = n // 2 - (n // 2) % 8
    return tuple(a + b for a, b in zip(_pairwise(samples, leaf, lo, n2),
                                       _pairwise(samples, leaf, lo + n2, n - n2)))


def sample_sum(samples: np.ndarray) -> np.float64:
    """`np.sum` of the samples widened to float64, bit for bit."""
    return pairwise_sums(samples, lambda x: (np.add.reduce(x),))[0]


def sample_mean(samples: np.ndarray) -> np.float64:
    """`np.mean` of the nonempty samples widened to float64, bit for bit."""
    return sample_sum(samples) / samples.size


def deviation_means(samples: np.ndarray, mean: np.float64, powers: tuple) -> tuple:
    """`np.mean((x - mean) ** p)` for each p of `powers`, with x the
    nonempty samples widened to float64, bit for bit."""
    def leaf(x: np.ndarray) -> tuple:
        d = x - mean
        return tuple(np.add.reduce(d ** p) for p in powers)

    return tuple(total / samples.size for total in pairwise_sums(samples, leaf))


def count_beyond(samples: np.ndarray, comparator, threshold: float) -> int:
    """Samples for which `comparator(sample, threshold)` holds, compared in
    float64 as their widened values are: NEP 50 would compare an f32 array
    with a Python float in float32."""
    return int(np.count_nonzero(comparator(samples, np.float64(threshold))))


def order_statistic(samples: np.ndarray, percentile: float | None = None, *,
                    values: Callable[[], np.ndarray]) -> float:
    """`np.percentile(values(), percentile)`, or `np.median(values())` when
    `percentile` is None, bit for bit.

    `samples` is a nonempty 1-D vector of u8, u16, f32 or f64 samples, which
    the call reorders (a copy, when it is read-only). `values()` gives the
    same values as a new float64 vector in their original order, which
    numpy may reorder in turn; it is called only when numpy decides.

    Both need the order statistics at two neighbouring ranks. One
    single-kth partition and the least value past it give them; widening
    to float64 is exact and keeps the order, so they are the values numpy
    picks, and numpy's own formula then combines them. The partition puts
    every NaN at or past the kth, so the least value past it is NaN when any
    value is. Values that compare equal have the same bits, except zeros of
    two signs, and the partition's vector min and max may return either of
    two equal values, so it can turn one zero into the other: a picked zero
    is +0 when the vector held no -0 before. So numpy decides, on `values()`
    with `samples` let go, when a float vector holds a NaN, or holds -0 and
    a picked value is zero.
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
    floats = samples.dtype.kind == "f"
    minus_zero = floats and _holds_minus_zero(samples)
    if not samples.flags.writeable:
        samples = samples.copy()
    samples.partition(lo_rank)
    lo = rest = np.float64(samples[lo_rank])
    # an odd median of floats takes the rest's minimum only to see a NaN
    if hi_rank > lo_rank or floats and lo_rank < n - 1:
        rest = np.float64(samples[lo_rank + 1:].min())
    hi = rest if hi_rank > lo_rank else lo
    if rest != rest or minus_zero and not (lo and hi):
        del samples
        v = values()
        return float(np.median(v, overwrite_input=True) if percentile is None
                     else np.percentile(v, percentile, overwrite_input=True))
    with np.errstate(over="ignore", invalid="ignore"):
        if percentile is None:  # the mean of the middle value(s)
            return float(lo if n % 2 else np.mean(np.array([lo, hi])))
        # at the last rank numpy takes the last value twice and measures
        # the weight from index -1
        g = float(vi - (lo_rank if vi < n - 1 else -1))
        d = hi - lo
        return float(hi - d * (1 - g) if g >= 0.5 else lo + d * g)


def _holds_minus_zero(samples: np.ndarray) -> bool:
    """Whether float samples hold -0, whose bits are the sign bit alone."""
    bits = samples.view(f"u{samples.itemsize}")
    return bool((bits == bits.dtype.type(1) << (8 * samples.itemsize - 1)).any())
