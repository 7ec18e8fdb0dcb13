"""Spatiotemporal analysis kernels: trends, decomposition, change points,
autocorrelation, and local spatial statistics.

Series arrive as float64 vectors where NaN marks a missing observation; each
operation documents how it treats the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..raster import Raster
from .common import as_binary, order_statistic


def _valid(values) -> np.ndarray:
    """The series' valid values, gaps dropped."""
    x = np.asarray(values, np.float64)
    return x[~np.isnan(x)]


def _valid_with_positions(values) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(values, np.float64)
    pos = np.flatnonzero(~np.isnan(arr))
    return arr[pos], pos.astype(np.float64)


# work bounds of the series tools, on the values each kernel works on;
# each is about 1 s or 100 MB through the registry on a 2-vCPU Xeon VM
MAX_MANN_KENDALL_VALUES = 200_000
MAX_SENS_VALUES = 4000
MAX_CHANGE_POINT_VALUES = 8000
MAX_STL_VALUES = 1500
# the ACF's products: n valid values times (max_lag + 1) lags
MAX_ACF_WORK = 1_500_000_000


def _refuse_past(bound: int, n: int, what: str) -> None:
    if n > bound:
        raise InvalidInputError(f"{what} takes at most {bound} values, got {n}")


@dataclass(frozen=True)
class LinearTrend:
    slope: float
    intercept: float


@dataclass(frozen=True)
class MannKendallResult:
    s: int
    var_s: float
    tau: float
    z: float
    p_value: float
    trend: str  # increasing | decreasing | no-trend


def _valid_with_times(values, timestamps) -> tuple[np.ndarray, np.ndarray]:
    """The series' valid values and their times: their index positions, or
    their entries of `timestamps`, which must hold one time per value."""
    y, pos = _valid_with_positions(values)
    if timestamps is None:
        return y, pos
    if len(timestamps) != len(values):
        raise InvalidInputError(f"timestamps must give one time per value, got "
                                f"{len(timestamps)} for {len(values)} values")
    return y, np.asarray(timestamps, dtype=np.float64)[pos.astype(int)]


def linear_trend(values, timestamps=None) -> LinearTrend:
    """Ordinary least squares y = a*x + b over index positions (or timestamps)."""
    y, x = _valid_with_times(values, timestamps)
    if y.size < 2 or np.unique(x).size < 2:
        raise InvalidInputError("linear trend needs at least 2 distinct x positions")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:  # distinct x positions whose squared spread underflows
        raise InvalidInputError("linear trend: x positions too close to fit a line")
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    return LinearTrend(slope=slope, intercept=float(ym - slope * xm))


# Mann-Kendall counts S over blocks of this many values; `_MK_LATER` marks
# the pairs (i, j) with i < j inside a block
_MK_BLOCK = 64
_MK_LATER = np.triu(np.ones((_MK_BLOCK, _MK_BLOCK), dtype=bool), 1)


def _mann_kendall_s(x: np.ndarray) -> int:
    """The sum of sign(x[j] - x[i]) over the pairs i < j, counted block by
    block in O(n) memory."""
    s = 0
    prefix = np.empty(0)  # the values before the block, sorted
    for b0 in range(0, x.size, _MK_BLOCK):
        v = x[b0:b0 + _MK_BLOCK]
        m = v.size
        # inside the block, v[j] > v[i] counts +1 where i < j and -1 where i > j
        gt = v[np.newaxis, :] > v[:, np.newaxis]
        s += int(2 * np.count_nonzero(gt & _MK_LATER[:m, :m]) - np.count_nonzero(gt))
        # against the b0 earlier values: the count below minus the count above
        v = np.sort(v)
        below = np.searchsorted(prefix, v, "left")
        not_above = np.searchsorted(prefix, v, "right")
        s += int(below.sum()) + int(not_above.sum()) - b0 * m
        prefix = np.insert(prefix, below, v)
    return s


def mann_kendall(values, alpha: float = 0.05) -> MannKendallResult:
    """Mann-Kendall monotonic trend test.

    S sums the signs of all forward pairwise differences; the variance uses
    the tie-group correction; the z-score applies the +-1 continuity
    correction; the p-value is the two-sided normal approximation.

    S is counted, not summed from an n x n array of signs: the series is
    walked in blocks of 64 values; the pairs with the earlier values are
    counted by binary search in their sorted copy (the count below minus the
    count above), and the pairs inside a block by comparison. For finite
    values, x[j] - x[i] has the sign of the comparison (it rounds to 0 only
    when they are equal, and overflows to an infinity of the same sign), so
    S is the same integer, in O(n) memory.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    x = _valid(values)
    n = x.size
    if n < 4:
        raise InvalidInputError(f"Mann-Kendall needs n >= 4 valid values, got {n}")
    _refuse_past(MAX_MANN_KENDALL_VALUES, n, "Mann-Kendall")

    s = _mann_kendall_s(x)

    _, tie_counts = np.unique(x, return_counts=True)
    ties = tie_counts[tie_counts > 1]
    var_s = (n * (n - 1) * (2 * n + 5) - np.sum(ties * (ties - 1) * (2 * ties + 5))) / 18.0

    pairs = n * (n - 1) / 2
    tie_pairs = float(np.sum(ties * (ties - 1) / 2))
    denom = math.sqrt((pairs - tie_pairs) * pairs)
    tau = s / denom if denom > 0 else 0.0

    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))

    if p < alpha and s > 0:
        trend = "increasing"
    elif p < alpha and s < 0:
        trend = "decreasing"
    else:
        trend = "no-trend"
    return MannKendallResult(s=s, var_s=float(var_s), tau=float(tau), z=float(z),
                             p_value=float(p), trend=trend)


# Sen's slope builds the slopes over blocks of rows of about this many
# (i, j) cells
_SLOPE_BLOCK_CELLS = 1 << 14


def _pair_slopes(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(y[j] - y[i]) / (t[j] - t[i]) over the pairs i < j with t[j] != t[i],
    in the order of i, then j; there must be one."""
    n = y.size
    out = np.empty(n * (n - 1) // 2)
    filled = 0
    rows = min(max(1, _SLOPE_BLOCK_CELLS // n), n - 1)
    # rows i in [i0, i0 + rows) meet columns j in [i0 + 1, n): j > i on and
    # above the block's diagonal, which only its first `rows` columns cross
    later = np.triu(np.ones((rows, rows), dtype=bool))
    with np.errstate(all="ignore"):  # the cells the mask drops may be 0/0
        for i0 in range(0, n - 1, rows):
            m = min(rows, n - 1 - i0)
            dt = t[np.newaxis, i0 + 1:] - t[i0:i0 + m, np.newaxis]
            slopes = (y[np.newaxis, i0 + 1:] - y[i0:i0 + m, np.newaxis]) / dt
            keep = dt != 0
            keep[:, :m] &= later[:m, :m]
            kept = slopes[keep]
            out[filled:filled + kept.size] = kept
            filled += kept.size
    if filled == 0:
        raise InvalidInputError("Sen's slope: no pairs with distinct times")
    return out[:filled]


def sens_slope(values, timestamps=None) -> float:
    """Median of all pairwise slopes (x_j - x_i) / (t_j - t_i), i < j.

    The slopes fill one array block of rows by block of rows, in the order
    of i, then j, so it holds the values a per-row loop would concatenate.
    Their median is `order_statistic`'s, np.median's value bit for bit
    (the sign of a zero and a NaN included). When numpy decides (a NaN
    slope, or a -0 slope and a zero median), the slopes are built afresh
    after the partitioned ones are let go, so one array of them is held at
    a time.
    """
    y, t = _valid_with_times(values, timestamps)
    if y.size < 2:
        raise InvalidInputError("Sen's slope needs at least 2 valid values")
    _refuse_past(MAX_SENS_VALUES, y.size, "Sen's slope")
    return order_statistic(_pair_slopes(y, t), values=lambda: _pair_slopes(y, t))


# ---------------------------------------------------------------------------
# STL decomposition (classical LOESS-based inner loop)
# ---------------------------------------------------------------------------


def _tricube(u: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - np.abs(u) ** 3, 0.0, None)
    return w ** 3


def _loess(x: np.ndarray, y: np.ndarray, span: int, at: np.ndarray,
           rho: np.ndarray | None = None) -> np.ndarray:
    """Degree-1 LOESS of y(x) evaluated at `at`, with `span` nearest points.

    `rho` holds optional robustness weights aligned with x.
    """
    n = x.size
    span = min(max(span, 2), n)
    out = np.empty(at.size)
    for k, x0 in enumerate(at):
        d = np.abs(x - x0)
        idx = np.argpartition(d, span - 1)[:span]
        dmax = d[idx].max()
        w = _tricube(d[idx] / dmax) if dmax > 0 else np.ones(idx.size)
        if rho is not None:
            w = w * rho[idx]
        sw = w.sum()
        if sw <= 0:
            out[k] = y[idx].mean()
            continue
        xw = np.sum(w * x[idx]) / sw
        yw = np.sum(w * y[idx]) / sw
        sxx = np.sum(w * (x[idx] - xw) ** 2)
        if sxx <= 1e-12 * max(1.0, xw * xw):
            out[k] = yw
        else:
            beta = np.sum(w * (x[idx] - xw) * (y[idx] - yw)) / sxx
            out[k] = yw + beta * (x0 - xw)
    return out


def _moving_average(y: np.ndarray, width: int) -> np.ndarray:
    kernel = np.full(width, 1.0 / width)
    return np.convolve(y, kernel, mode="valid")


def _next_odd(v: float) -> int:
    k = int(math.ceil(v))
    return k if k % 2 == 1 else k + 1


@dataclass(frozen=True)
class Decomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray


# STL loop settings: cycle-subseries LOESS span, passes per robustness
# round, and robustness reweighting rounds
STL_SEASONAL_SPAN = 7
STL_INNER_ITERATIONS = 2
STL_ROBUST_ITERATIONS = 1


def stl_decompose(values, period: int) -> Decomposition:
    """Additive seasonal-trend decomposition via the classical LOESS loop.

    trend + seasonal + residual reconstructs the input exactly; the seasonal
    component is the low-pass-filtered cycle-subseries smooth, so it averages
    to ~0 over each full cycle.
    """
    x = np.asarray(values, np.float64)
    if np.isnan(x).any():
        raise InvalidInputError("decomposition requires a gap-free series")
    n = x.size
    _refuse_past(MAX_STL_VALUES, n, "STL decomposition")
    if period < 2:
        raise InvalidInputError("period must be at least 2 samples")
    if n < 2 * period:
        raise InvalidInputError(
            f"series of length {n} too short for period {period} (need >= {2 * period})"
        )

    trend_span = _next_odd(1.5 * period / (1.0 - 1.5 / STL_SEASONAL_SPAN))
    lowpass_span = _next_odd(period)
    positions = np.arange(n, dtype=np.float64)

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    weights = np.ones(n)

    for outer in range(STL_ROBUST_ITERATIONS + 1):
        for _ in range(STL_INNER_ITERATIONS):
            detrended = x - trend
            # cycle-subseries smoothing, extended one cycle on each side
            extended = np.empty(n + 2 * period)
            for phase in range(period):
                sub = detrended[phase::period]
                sub_pos = positions[phase::period]
                eval_pos = np.concatenate((
                    [sub_pos[0] - period], sub_pos, [sub_pos[-1] + period]))
                extended[phase::period] = _loess(
                    sub_pos, sub, STL_SEASONAL_SPAN, eval_pos,
                    rho=weights[phase::period])
            # low-pass filter: MA(period) twice, MA(3), then LOESS
            lp = _moving_average(_moving_average(extended, period), period)
            lp = _moving_average(lp, 3)
            lp = _loess(positions, lp, lowpass_span, positions)
            seasonal = extended[period:period + n] - lp
            deseason = x - seasonal
            trend = _loess(positions, deseason, trend_span, positions, rho=weights)
        if outer < STL_ROBUST_ITERATIONS:
            resid = x - trend - seasonal
            s = np.median(np.abs(resid))
            if s <= 0:
                break
            u = np.clip(resid / (6.0 * s), -1.0, 1.0)
            weights = (1.0 - u * u) ** 2
    residual = x - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


# ---------------------------------------------------------------------------
# PELT change-point detection, piecewise-constant-mean L2 cost
# ---------------------------------------------------------------------------

MIN_SEGMENT = 2


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sums of x and of x*x, each led by a 0."""
    return (np.concatenate(([0.0], np.cumsum(x))),
            np.concatenate(([0.0], np.cumsum(x * x))))


def detect_change_points(values, penalty: float) -> list[int]:
    """PELT breakpoints (segment start indices) under an L2 mean-shift cost.

    Pruning honors the minimum segment length: a candidate dominated at time
    t is only discarded from time t + MIN_SEGMENT on, because the dominating
    split point is not itself admissible before then.

    Each step scores all admissible candidates at once from the prefix sums
    and keeps the first strict minimum below inf, so NaN costs never win.
    """
    x = _valid(values)
    n = x.size
    _refuse_past(MAX_CHANGE_POINT_VALUES, n, "change-point detection")
    if penalty <= 0:
        raise InvalidInputError("penalty must be positive")
    if n < 2 * MIN_SEGMENT:
        return []
    penalty = float(penalty)
    # rows: prefix sums of x and x*x, and the positions, so that one
    # difference of columns t and s gives a segment's sums and length
    sums = np.vstack((*_prefix_sums(x), np.arange(n + 1, dtype=np.float64)))
    f = np.empty(n + 1)
    f[0] = -penalty
    last = np.zeros(n + 1, dtype=np.int64)
    # the admissible split points s (t - s >= MIN_SEGMENT; no segment starts
    # inside the first MIN_SEGMENT values) still alive at t, ascending
    cands = np.empty(n + 1, dtype=np.int64)
    m = 0
    # a candidate pruned at t leaves the scan at kill_at = t + MIN_SEGMENT;
    # `alive` (past every kill time) marks one not pruned yet, and `expires`
    # the steps at which some candidate leaves
    alive = n + MIN_SEGMENT + 1
    kill_at = np.full(n + 1, alive, dtype=np.int64)
    expires = [False] * (n + MIN_SEGMENT + 1)
    with np.errstate(all="ignore"):
        for t in range(MIN_SEGMENT, n + 1):
            new_s = t - MIN_SEGMENT
            if new_s == 0 or new_s >= MIN_SEGMENT:
                cands[m] = new_s
                m += 1
            if expires[t]:
                live = cands[:m]
                live = live[kill_at[live] > t]
                m = live.size
                cands[:m] = live
            s = cands[:m]
            sm, sq, length = sums[:, t, np.newaxis] - sums[:, s]
            fc = f[s] + (sq - sm * sm / length)
            vals = fc + penalty
            i = vals.argmin()  # the first NaN, if there is one
            if vals[i] != vals[i]:
                i = np.where(vals < math.inf, vals, math.inf).argmin()
            best = vals[i]
            if best < math.inf:
                f[t], last[t] = best, s[i]
            else:
                best = f[t] = math.inf  # last[t] stays 0
            pruned = s[fc > best]
            if pruned.size:
                pruned = pruned[kill_at[pruned] == alive]
                kill_at[pruned] = t + MIN_SEGMENT
                expires[t + MIN_SEGMENT] = True

    bkps = []
    t = n
    while t > 0:
        s = int(last[t])
        if s == 0:
            break
        bkps.append(s)
        t = s
    return sorted(bkps)


# ---------------------------------------------------------------------------
# Autocorrelation and seasonality
# ---------------------------------------------------------------------------


def acf(values, max_lag: int) -> list[float]:
    """Biased autocorrelation estimates for lags 0..max_lag.

    Each lag takes one pass over the series, so a series of n valid values
    past MAX_ACF_WORK / (max_lag + 1) is refused before the first.
    """
    if max_lag < 0:
        raise InvalidInputError(f"max_lag must be at least 0, got {max_lag}")
    x = _valid(values)
    n = x.size
    if max_lag >= n:
        raise InvalidInputError(f"max_lag {max_lag} must be below series length {n}")
    if n * (max_lag + 1) > MAX_ACF_WORK:
        raise InvalidInputError(f"ACF takes at most {MAX_ACF_WORK} values times lags, "
                                f"got {n} values times {max_lag + 1} lags")
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    if denom == 0.0:
        raise InvalidInputError("series has zero variance")
    return [float(np.sum(xc[: n - k] * xc[k:]) / denom) for k in range(max_lag + 1)]


def detect_seasonality_acf(values, max_lag: int | None = None) -> int | None:
    """First significant local ACF maximum at lag >= 2, or None.

    Significance band is the white-noise bound 1.96/sqrt(n).
    """
    x = _valid(values)
    n = x.size
    if max_lag is None:
        max_lag = n // 2
    rho = acf(x, max_lag)
    band = 1.96 / math.sqrt(n)
    for k in range(2, max_lag + 1):
        left = rho[k] > rho[k - 1]
        right = k == max_lag or rho[k] >= rho[k + 1]
        if left and right and rho[k] > band:
            return k
    return None


def count_spikes(values, threshold: float) -> int:
    """Count consecutive valid-value increases greater than the threshold."""
    x = _valid(values)
    if x.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(x) > threshold))


# ---------------------------------------------------------------------------
# Local spatial statistics
# ---------------------------------------------------------------------------


def gi_star_zscores(band: np.ndarray, kernel_radius: int = 1) -> np.ndarray:
    """Getis-Ord Gi* z-scores (float64) with a binary square window
    including the center.

    NaN pixels are excluded from the global moments and the neighborhood
    sums and stay NaN in the output; a zero-variance field yields zeros.
    """
    if kernel_radius < 1:
        raise InvalidInputError("kernel radius must be >= 1")
    valid = ~np.isnan(band)
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise InvalidInputError("raster has no valid pixels")
    vals = band[valid]
    mean = float(vals.mean())
    s = float(math.sqrt(max(np.mean(vals * vals) - mean * mean, 0.0)))

    h, w = band.shape
    if s == 0.0 or n < 2:
        return np.where(valid, 0.0, np.nan)

    filled = np.where(valid, band, 0.0)
    ones = valid.astype(np.float64)

    # a radius past the raster's side gives the same (whole-raster) windows
    k = min(kernel_radius, max(h, w))
    rows, cols = np.arange(h), np.arange(w)
    r0 = np.maximum(rows - k, 0)[:, np.newaxis]
    r1 = np.minimum(rows + k + 1, h)[:, np.newaxis]
    c0 = np.maximum(cols - k, 0)[np.newaxis, :]
    c1 = np.minimum(cols + k + 1, w)[np.newaxis, :]

    def window_sum(a: np.ndarray) -> np.ndarray:
        integral = np.zeros((h + 1, w + 1))
        integral[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
        return (integral[r1, c1] - integral[r0, c1]
                - integral[r1, c0] + integral[r0, c0])

    wsum = window_sum(filled)
    wcount = window_sum(ones)

    with np.errstate(divide="ignore", invalid="ignore"):
        num = wsum - mean * wcount
        den = s * np.sqrt(np.maximum(n * wcount - wcount * wcount, 0.0) / (n - 1))
        z = np.where(den > 0, num / den, 0.0)
    return np.where(valid, z, np.nan)


CARDINALS = ("N", "E", "S", "W")


def hotspot_direction(binary_map: Raster) -> tuple[str, dict[str, int]]:
    """Dominant cardinal sector of 1-pixels relative to the map center.

    Pixels exactly on the center row or column are excluded; diagonal-sector
    assignment sends |dy| >= |dx| to N/S and the rest to E/W. Ties resolve
    by name (E < N < S < W); an empty map is center-balanced.
    """
    band = as_binary(binary_map.band(), "hotspot map")
    h, w = band.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.nonzero(band == 1.0)
    dy, dx = ys - cy, xs - cx
    off_axes = (dy != 0) & (dx != 0)
    vertical = off_axes & (np.abs(dy) >= np.abs(dx))
    horizontal = off_axes & ~vertical
    sectors = {"N": vertical & (dy < 0), "E": horizontal & (dx > 0),
               "S": vertical & (dy > 0), "W": horizontal & (dx < 0)}
    counts = {d: int(np.count_nonzero(sectors[d])) for d in CARDINALS}
    best = max(counts.values())
    if best == 0:
        return "center-balanced", counts
    winner = min(d for d in CARDINALS if counts[d] == best)
    return winner, counts
