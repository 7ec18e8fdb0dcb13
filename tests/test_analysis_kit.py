from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent.errors import InvalidInputError
from geoagent.kits import analysis as an
from geoagent.kits.common import order_statistic
from geoagent.raster import from_array, load_raster

from conftest import segmentation_cost, write_raster

series = st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=24)


def ols_oracle(y):
    """Closed-form sums OLS, independent of the implementation path."""
    n = len(y)
    xs = list(range(n))
    sx, sy = sum(xs), sum(y)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * v for x, v in zip(xs, y))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return slope, (sy - slope * sx) / n


class TestLinearTrend:
    def test_exact_line(self):
        fit = an.linear_trend([1, 3, 5, 7])
        assert fit.slope == 2.0 and fit.intercept == 1.0

    def test_constant_series(self):
        fit = an.linear_trend([4.0, 4.0, 4.0])
        assert fit.slope == 0.0

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50).tolist()
        fit = an.linear_trend(y)
        slope, intercept = ols_oracle(y)
        assert abs(fit.slope - slope) < 1e-12
        assert abs(fit.intercept - intercept) < 1e-12

    def test_degenerate(self):
        with pytest.raises(InvalidInputError):
            an.linear_trend([1.0])

    def test_missing_values_skipped(self):
        fit = an.linear_trend([1.0, None, 5.0])  # positions 0 and 2
        assert fit.slope == 2.0


def mk_oracle(x):
    """All-pairs S and tie-corrected variance, straight from the definitions."""
    n = len(x)
    s = sum(
        (x[j] > x[i]) - (x[j] < x[i])
        for i in range(n) for j in range(i + 1, n)
    )
    counts = {}
    for v in x:
        counts[v] = counts.get(v, 0) + 1
    correction = sum(q * (q - 1) * (2 * q + 5) for q in counts.values() if q > 1)
    var = (n * (n - 1) * (2 * n + 5) - correction) / 18.0
    return s, var


class TestMannKendall:
    def test_monotone_series(self):
        res = an.mann_kendall([1, 2, 3, 4, 5])
        assert res.s == 10 and res.tau == 1.0 and res.trend == "increasing"

    def test_reversal_antisymmetry(self):
        fwd = an.mann_kendall([1, 2, 3, 4, 5])
        rev = an.mann_kendall([5, 4, 3, 2, 1])
        assert rev.s == -fwd.s and rev.trend == "decreasing"

    def test_ties_match_bruteforce(self):
        x = [3.0, 1.0, 3.0, 2.0, 3.0, 1.0, 4.0]
        res = an.mann_kendall(x)
        s, var = mk_oracle(x)
        assert res.s == s and abs(res.var_s - var) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(series)
    def test_property_vs_oracle(self, x):
        res = an.mann_kendall(x)
        s, var = mk_oracle(x)
        assert res.s == s
        assert abs(res.var_s - var) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(series)
    def test_monotone_transform_invariance(self, x):
        res = an.mann_kendall(x)
        transformed = an.mann_kendall([math.atan(v) + 3 * v for v in x])
        assert res.s == transformed.s

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            an.mann_kendall([1, 2, 3])


class TestSensSlope:
    def test_exact_line(self):
        assert an.sens_slope([1, 3, 5, 7]) == 2.0

    def test_three_points(self):
        # pairwise slopes {10, 1, -8}
        assert an.sens_slope([0, 10, 2]) == 1.0

    def test_shift_invariance(self):
        x = [4.0, -2.0, 7.0, 1.0]
        assert an.sens_slope(x) == an.sens_slope([v + 11.0 for v in x])

    @settings(max_examples=60, deadline=None)
    @given(series, st.floats(-5, 5, allow_nan=False), st.floats(-20, 20, allow_nan=False))
    def test_equivariance(self, x, a, b):
        base = an.sens_slope(x)
        scaled = an.sens_slope([a * v + b for v in x])
        assert abs(scaled - a * base) < 1e-9 * max(1.0, abs(base))

    def test_pairwise_median_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=12).tolist()
        slopes = [(x[j] - x[i]) / (j - i)
                  for i in range(12) for j in range(i + 1, 12)]
        assert an.sens_slope(x) == float(np.median(slopes))


def mann_kendall_triu(values, alpha=0.05):
    """The former Mann-Kendall: S summed from np.triu of an n x n sign array."""
    x, _ = an._valid_with_positions(values)
    n = x.size
    if n < 4:
        raise InvalidInputError(f"Mann-Kendall needs n >= 4 valid values, got {n}")

    diffs = np.sign(x[np.newaxis, :] - x[:, np.newaxis])
    s = int(np.triu(diffs, k=1).sum())

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
    return an.MannKendallResult(s=s, var_s=float(var_s), tau=float(tau), z=float(z),
                                p_value=float(p), trend=trend)


def sens_slope_loop(values, timestamps=None):
    """The former Sen's slope: one slope array per row, concatenated, np.median."""
    y, t = an._valid_with_times(values, timestamps)
    if y.size < 2:
        raise InvalidInputError("Sen's slope needs at least 2 valid values")
    slopes = []
    for i in range(y.size - 1):
        dt = t[i + 1:] - t[i]
        dy = y[i + 1:] - y[i]
        ok = dt != 0
        slopes.append(dy[ok] / dt[ok])
    allslopes = np.concatenate(slopes)
    if allslopes.size == 0:
        raise InvalidInputError("Sen's slope: no pairs with distinct times")
    return float(np.median(allslopes))


def same_repr(fn, oracle, *args):
    """The call and its oracle give the same repr, or the same refusal."""
    with np.errstate(all="ignore"):
        assert repr(outcome(fn, *args)) == repr(outcome(oracle, *args))


HUGE = [1e308, -1e308, 1.7e308, -1.7e308]
trend_value = st.one_of(
    st.floats(-50, 50, allow_nan=False),
    st.integers(-3, 3).map(float),  # ties
    st.sampled_from([0.0, -0.0, None, *HUGE]))  # None is a gap
# around the Mann-Kendall block of 64, and longer
trend_length = st.one_of(st.integers(0, 40), st.sampled_from([63, 64, 65, 127, 128, 129]),
                         st.integers(180, 260))


@st.composite
def trend_series(draw):
    """Free values, or runs of a few values (zero slopes of both signs)."""
    n = draw(trend_length)
    if draw(st.booleans()):
        return draw(st.lists(trend_value, min_size=n, max_size=n))
    pool = draw(st.lists(trend_value, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def series_with_times(draw):
    """A series and None, or timestamps with repeats (dt == 0), out of
    order (dt < 0) or near +-1e308 (inf and inf/inf slopes)."""
    values = draw(trend_series())
    kind = draw(st.sampled_from(["none", "repeats", "huge"]))
    if kind == "none":
        return values, None
    if kind == "repeats":
        times = st.integers(0, draw(st.integers(0, 6))).map(float)
    else:
        times = st.one_of(st.integers(-2, 2).map(float), st.sampled_from(HUGE))
    return values, draw(st.lists(times, min_size=len(values), max_size=len(values)))


class TestTrendKernelsMatchOracles:
    """Counted S, blocked slopes and the selected median give the former
    kernels' results bit for bit (repr: the sign of a zero, NaN)."""

    @settings(max_examples=100, deadline=None)
    @given(x=trend_series())
    def test_mann_kendall(self, x):
        same_repr(an.mann_kendall, mann_kendall_triu, x)

    @settings(max_examples=100, deadline=None)
    @given(case=series_with_times())
    def test_sens_slope(self, case):
        same_repr(an.sens_slope, sens_slope_loop, *case)

    @pytest.mark.parametrize("n", [1, 4, 63, 64, 65, 129, 730])
    def test_mann_kendall_lengths(self, n):
        x = np.random.default_rng(n).integers(-20, 20, n).astype(float)
        x[::11] = np.nan
        same_repr(an.mann_kendall, mann_kendall_triu, x)

    @pytest.mark.parametrize("case", [
        "walk", "constant", "signed-zeros", "zero-middle", "nan", "inf", "sorted",
        "reversed"])
    def test_sens_slope_selection_cases(self, case):
        # 200 values give 19900 slopes
        rng = np.random.default_rng(7)
        n = 200
        values, times = np.cumsum(rng.normal(size=n)), None
        if case == "constant":
            values = np.full(n, 2.5)
        elif case == "signed-zeros":  # 0/dt: +0 or -0 by the sign of dt
            values, times = np.zeros(n), rng.permutation(n).astype(float)
        elif case == "zero-middle":  # half the slopes are zeros of both signs
            values = np.repeat(rng.normal(size=n // 4), 4)
            times = rng.integers(0, 3 * n, n).astype(float)
        elif case == "nan":  # (-1e308 - 1e308) / (1.7e308 - -1.7e308) = -inf/inf
            values[[3, 150]] = 1e308, -1e308
            times = np.arange(n, dtype=float)
            times[[3, 150]] = -1.7e308, 1.7e308
        elif case == "inf":
            values[[3, 150]] = 1e308, -1e308
        elif case == "sorted":
            values = np.arange(n, dtype=float) ** 2
        elif case == "reversed":
            values = -np.arange(n, dtype=float) ** 3
        same_repr(an.sens_slope, sens_slope_loop, values, times)

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(
        st.integers(-2, 2).map(float),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
        st.floats(allow_nan=False)), min_size=1, max_size=300))
    def test_median_matches_numpy(self, values):
        a = np.asarray(values)
        got = order_statistic(a.copy(), values=lambda: a.copy())
        assert repr(got) == repr(float(np.median(a)))

    @pytest.mark.parametrize("n", [365, 730])
    def test_median_of_a_series_is_selected(self, n):
        # rpc_mix-like series' slopes have no zero or NaN at the middle
        # ranks, so np.median is not needed
        t = np.arange(n)
        values = np.sin(2 * np.pi * t / 365) * 3 + np.random.default_rng(n).normal(0, 0.5, n)
        want = sens_slope_loop(values)
        with mock.patch.object(np, "median", side_effect=AssertionError("fell back")):
            assert repr(an.sens_slope(values)) == repr(want)

    def test_zero_slopes_of_one_sign_are_selected(self):
        # a constant series at increasing times has only +0 slopes: their
        # median has known bits, so np.median is not needed
        values = np.full(300, 2.5)
        want = sens_slope_loop(values)
        with mock.patch.object(np, "median", side_effect=AssertionError("fell back")):
            assert repr(an.sens_slope(values)) == repr(want) == "0.0"

    def test_zero_fallback_holds_one_slope_array(self):
        # times out of order give zero slopes of both signs: numpy decides,
        # on slopes built afresh once the partitioned ones are let go; the
        # slopes outweigh a block's temporaries several times at this n
        n = 1200
        values = np.zeros(n)
        times = np.random.default_rng(n).permutation(n).astype(float)
        want = sens_slope_loop(values, times)
        slope_bytes = 8 * n * (n - 1) // 2
        with mock.patch.object(np, "median", wraps=np.median) as median:
            an.sens_slope(values, times)  # first-call set-up is not the kernel's memory
            tracemalloc.start()
            try:
                got = an.sens_slope(values, times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert median.call_count == 2
        assert repr(got) == repr(want)
        assert slope_bytes < peak < 1.5 * slope_bytes


@pytest.mark.parametrize("n", [2, 12, 28, 130])
def test_short_series_take_little_memory(n):
    # the fixture suite's series hold 12 and 28 values; the kernels' blocks
    # must not be sized for long series
    values = np.random.default_rng(n).normal(size=n)

    def both():
        an.sens_slope(values)
        if n >= 4:
            an.mann_kendall(values)

    both()  # first-call set-up is not the kernels' memory
    tracemalloc.start()
    try:
        both()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 + 64 * n * n


values_bounds = pytest.mark.parametrize("tool,bound,args", [
    ("mann_kendall_test", "MAX_MANN_KENDALL_VALUES", {}),
    ("sens_slope", "MAX_SENS_VALUES", {}),
    ("detect_change_points", "MAX_CHANGE_POINT_VALUES", {"penalty": 1e9}),
    ("stl_decompose", "MAX_STL_VALUES", {"period": 2}),
])
acf_tools = pytest.mark.parametrize("tool", ["autocorrelation_function",
                                             "detect_seasonality_acf"])


def acf_args(tool: str, n: int) -> tuple[dict, int]:
    """An ACF tool's arguments for n values at its most lags, and their count."""
    if tool == "autocorrelation_function":
        return {"max_lag": n - 1}, n
    return {}, n // 2 + 1  # the default max_lag, n // 2


class TestSeriesWorkBounds:
    """Each series tool refuses a series past its bound before the work."""

    @values_bounds
    def test_bound_plus_one_refused_at_once(self, tool_registry, tool, bound, args):
        limit = getattr(an, bound)
        values = np.random.default_rng(0).normal(size=limit + 1).tolist()
        start = time.perf_counter()
        result = tool_registry.call_tool(tool, {"values": values, **args})
        assert time.perf_counter() - start < 0.5
        assert result.error_class == "InvalidParameters"
        assert f"takes at most {limit} values, got {limit + 1}" in result.text

    @values_bounds
    def test_bound_is_inclusive(self, tool_registry, monkeypatch, tool, bound, args):
        monkeypatch.setattr(an, bound, 6)
        values = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0]
        assert not tool_registry.call_tool(tool, {"values": values, **args}).is_error
        result = tool_registry.call_tool(tool, {"values": values + [7.0], **args})
        assert "takes at most 6 values, got 7" in result.text

    @acf_tools
    def test_acf_work_past_the_bound_refused_at_once(self, tool_registry, tool):
        # the least n whose lags take more than MAX_ACF_WORK products
        n = next(n for n in itertools.count(math.isqrt(an.MAX_ACF_WORK))
                 if n * acf_args(tool, n)[1] > an.MAX_ACF_WORK)
        args, lags = acf_args(tool, n)
        values = np.random.default_rng(0).normal(size=n).tolist()
        start = time.perf_counter()
        result = tool_registry.call_tool(tool, {"values": values, **args})
        assert time.perf_counter() - start < 0.5
        assert result.error_class == "InvalidParameters"
        assert (f"takes at most {an.MAX_ACF_WORK} values times lags, "
                f"got {n} values times {lags} lags") in result.text

    @acf_tools
    def test_acf_work_bound_is_inclusive(self, tool_registry, monkeypatch, tool):
        values = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 7.0, 5.5]
        args, lags = acf_args(tool, len(values))
        monkeypatch.setattr(an, "MAX_ACF_WORK", len(values) * lags)
        assert not tool_registry.call_tool(tool, {"values": values, **args}).is_error
        monkeypatch.setattr(an, "MAX_ACF_WORK", len(values) * lags - 1)
        result = tool_registry.call_tool(tool, {"values": values, **args})
        assert result.error_class == "InvalidParameters"
        assert f"takes at most {len(values) * lags - 1} values times lags" in result.text


def test_gaps_do_not_count_against_the_sens_bound(tool_registry, monkeypatch):
    monkeypatch.setattr(an, "MAX_SENS_VALUES", 3)
    result = tool_registry.call_tool("sens_slope", {"values": [1.0, None, 2.0, None, 4.0]})
    assert result.value == 0.75  # slopes 0.5, 0.75, 1.0 at positions 0, 2, 4


@pytest.mark.parametrize("tool", ["compute_linear_trend", "sens_slope"])
@pytest.mark.parametrize("timestamps", [[0.0, 1.0], [float(i) for i in range(6)]],
                         ids=["shorter", "longer"])
def test_timestamps_must_match_values(tool_registry, tool, timestamps):
    result = tool_registry.call_tool(tool, {"values": [1.0, None, 3.0, 4.0, 6.0],
                                            "timestamps": timestamps})
    assert result.error_class == "InvalidParameters"
    assert f"got {len(timestamps)} for 5 values" in result.text


class TestStl:
    def test_pure_sine_residual_tiny(self):
        p = 12
        t = np.arange(p * 10)
        amp = 5.0
        x = amp * np.sin(2 * np.pi * t / p)
        dec = an.stl_decompose(x, period=p)
        assert np.max(np.abs(dec.residual)) < 1e-6 * amp

    def test_constant_series(self):
        x = np.full(30, 7.5)
        dec = an.stl_decompose(x, period=5)
        assert np.allclose(dec.trend, 7.5, atol=1e-9)
        assert np.allclose(dec.seasonal, 0.0, atol=1e-9)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=48) + np.linspace(0, 4, 48)
        dec = an.stl_decompose(x, period=6)
        assert np.max(np.abs(x - (dec.trend + dec.seasonal + dec.residual))) < 1e-9

    def test_seasonal_sums_near_zero(self):
        p = 8
        t = np.arange(p * 8)
        x = 3.0 * np.sin(2 * np.pi * t / p) + 0.05 * t
        dec = an.stl_decompose(x, period=p)
        for c in range(0, t.size, p):
            assert abs(dec.seasonal[c:c + p].sum()) < 0.35

    def test_period_too_long(self):
        with pytest.raises(InvalidInputError):
            an.stl_decompose(np.arange(10.0), period=8)


def pelt_oracle(x, penalty, min_seg=2):
    """Exhaustive minimum-cost segmentation for small n."""
    n = len(x)

    def seg_cost(s, t):
        seg = x[s:t]
        m = sum(seg) / len(seg)
        return sum((v - m) ** 2 for v in seg)

    best = (math.inf, [])
    positions = range(min_seg, n - min_seg + 1)
    for k in range(0, n // min_seg):
        for cut in itertools.combinations(positions, k):
            bounds = [0, *cut, n]
            if any(b - a < min_seg for a, b in zip(bounds, bounds[1:])):
                continue
            cost = sum(seg_cost(a, b) for a, b in zip(bounds, bounds[1:]))
            cost += penalty * k
            if cost < best[0] - 1e-12:
                best = (cost, list(cut))
    return best


class TestPelt:
    def test_step_function(self):
        x = [0.0] * 20 + [10.0] * 20
        assert an.detect_change_points(x, penalty=5.0) == [20]

    def test_constant_series(self):
        assert an.detect_change_points([3.0] * 25, penalty=2.0) == []

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=14),
        penalty=st.floats(0.1, 20.0),
    )
    def test_matches_exhaustive_cost(self, x, penalty):
        got = an.detect_change_points(x, penalty)
        got_cost = segmentation_cost(x, got, penalty)
        oracle_cost, _ = pelt_oracle(x, penalty)
        assert got_cost <= oracle_cost + 1e-9

    def test_cost_not_beaten_by_manual_splits(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(0, 1, 10), rng.normal(8, 1, 10)]).tolist()
        penalty = 4.0
        got_cost = segmentation_cost(x, an.detect_change_points(x, penalty), penalty)
        for cut in ([5], [10], [15], [8, 14]):
            assert got_cost <= segmentation_cost(x, cut, penalty) + 1e-9


def pelt_loop(values, penalty):
    """The former dict-and-loop PELT: one cost() call per candidate per t."""
    x = an._valid(values)
    n = x.size
    if penalty <= 0:
        raise InvalidInputError("penalty must be positive")
    if n < 2 * an.MIN_SEGMENT:
        return []
    c1 = np.concatenate(([0.0], np.cumsum(x)))
    c2 = np.concatenate(([0.0], np.cumsum(x * x)))

    def cost(s, t):
        n = t - s
        sm = c1[t] - c1[s]
        return float(c2[t] - c2[s] - sm * sm / n)

    f = {0: -penalty}
    last = {0: 0}
    candidates = [0]
    kill_at = {}
    for t in range(an.MIN_SEGMENT, n + 1):
        candidates = [s for s in candidates if kill_at.get(s, n + 1) > t]
        best_val = math.inf
        best_s = 0
        usable = [s for s in candidates if t - s >= an.MIN_SEGMENT]
        for s in usable:
            val = f[s] + cost(s, t) + penalty
            if val < best_val:
                best_val = val
                best_s = s
        f[t] = best_val
        last[t] = best_s
        for s in usable:
            if s not in kill_at and f[s] + cost(s, t) > f[t]:
                kill_at[s] = t + an.MIN_SEGMENT
        candidates.append(t)

    bkps = []
    t = n
    while t > 0:
        s = last[t]
        if s == 0:
            break
        bkps.append(s)
        t = s
    return sorted(bkps)


def outcome(fn, *args):
    """A call's result, or its InvalidInputError message."""
    try:
        return fn(*args)
    except InvalidInputError as exc:
        return "InvalidInputError", str(exc)


pelt_value = st.one_of(
    st.floats(-10, 10, allow_nan=False),
    st.integers(-3, 3).map(float),  # ties between candidate costs
    st.sampled_from([0.0, 1e153, 2e153, 1e308, -1e308, math.inf, -math.inf, None]))


@st.composite
def pelt_series(draw):
    """Free series, or constant runs, of 0 to 400 values with ties and gaps."""
    if draw(st.booleans()):
        return draw(st.lists(pelt_value, max_size=400))
    runs = draw(st.lists(st.tuples(pelt_value, st.integers(1, 60)), max_size=20))
    return [v for v, k in runs for _ in range(k)][:400]


class TestPeltMatchesLoop:
    """The vectorised candidate scan gives the former loop's breakpoints."""

    @settings(max_examples=60, deadline=None)
    @given(x=pelt_series(),
           penalty=st.one_of(st.floats(1e-9, 1e308), st.integers(1, 10**6)))
    def test_property(self, x, penalty):
        with np.errstate(all="ignore"):
            assert (outcome(an.detect_change_points, x, penalty)
                    == outcome(pelt_loop, x, penalty))

    @pytest.mark.parametrize("x", [
        [],
        [1.0, 2.0, 3.0],
        [3.0] * 40,
        [0.0] * 10 + [5.0] * 10 + [0.0] * 10,
        [1e308, -1e308] * 15,
        [0.0, math.inf, 1.0, 2.0, -math.inf, 3.0, 4.0, 5.0],
        [math.inf] * 6,
    ], ids=["empty", "too-short", "constant", "two-steps", "huge", "infinities",
            "all-inf"])
    @pytest.mark.parametrize("penalty", [1e-9, 0.5, 5.0, 1e308])
    def test_cases(self, x, penalty):
        with np.errstate(all="ignore"):
            assert an.detect_change_points(x, penalty) == pelt_loop(x, penalty)

    def test_tie_goes_to_first_candidate(self):
        x = [0.0, -2.0, -2.0, -3.0, 3.0, 0.0, -2.0, 2.0, 3.0, -1.0, 3.0, 2.0, 2.0,
             0.0, 3.0, -2.0, -3.0, 3.0, 0.0, -1.0, 2.0]
        assert an.detect_change_points(x, 1.0) == pelt_loop(x, 1.0) == [2, 4, 7, 9, 15, 17]

    def test_candidate_pruned_once_and_dropped_two_steps_later(self):
        # rounding at this scale makes a pruned candidate win again if it is
        # kept one step longer, or re-pruned later than its first time
        a, b = 1e153, 2e153
        x = [b, b, 0, 0, a, b, b, b, b, 0, b, 0, 0, b, a, a, a, 0, b, b, a, 0, 0, a, b,
             a, a, a, 0, a, a, a, b]
        want = [2, 4, 6, 9, 11, 13, 15, 18, 20, 23, 25, 27, 29, 31]
        with np.errstate(all="ignore"):
            assert an.detect_change_points(x, 2.0) == pelt_loop(x, 2.0) == want


def acf_oracle(x, max_lag):
    n = len(x)
    mean = sum(x) / n
    denom = sum((v - mean) ** 2 for v in x)
    out = []
    for k in range(max_lag + 1):
        num = sum((x[t] - mean) * (x[t + k] - mean) for t in range(n - k))
        out.append(num / denom)
    return out


class TestAcf:
    def test_lag_zero_is_one(self):
        assert an.acf([1.0, 4.0, 2.0, 8.0], 2)[0] == 1.0

    def test_alternating_signs(self):
        rho = an.acf([1.0, -1.0] * 10, 3)
        assert rho[1] < 0 < rho[2]

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=40).tolist()
        got = an.acf(x, 10)
        want = acf_oracle(x, 10)
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))

    def test_zero_variance(self):
        with pytest.raises(InvalidInputError):
            an.acf([2.0, 2.0, 2.0], 1)


class TestSeasonalityDetection:
    def test_sine_period_12(self):
        t = np.arange(120)
        x = np.sin(2 * np.pi * t / 12)
        assert an.detect_seasonality_acf(x) == 12

    def test_white_noise_none(self):
        rng = np.random.default_rng(123)
        assert an.detect_seasonality_acf(rng.normal(size=200)) is None

    def test_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            an.detect_seasonality_acf([5.0] * 20)


class TestCountSpikes:
    def test_hand_case(self):
        # diffs {4, -3, 7}
        assert an.count_spikes([1, 5, 2, 9], 3.0) == 2

    def test_monotone_decreasing(self):
        assert an.count_spikes([9, 7, 4, 1], 0.0) == 0

    def test_very_negative_threshold(self):
        assert an.count_spikes([3, 1, 4, 1, 5], -1e9) == 4

    def test_missing_values_bridged(self):
        assert an.count_spikes([1, None, 5], 3.0) == 1


def gi_star_oracle(grid, radius):
    """Direct double-loop Gi* for dense small rasters."""
    h, w = grid.shape
    flat = grid.ravel()
    n = flat.size
    mean = flat.mean()
    s = math.sqrt((flat * flat).mean() - mean * mean)
    out = np.zeros_like(grid, dtype=float)
    for i in range(h):
        for j in range(w):
            wsum = cnt = 0.0
            for y in range(h):
                for x in range(w):
                    if abs(y - i) <= radius and abs(x - j) <= radius:
                        wsum += grid[y, x]
                        cnt += 1
            num = wsum - mean * cnt
            den = s * math.sqrt((n * cnt - cnt * cnt) / (n - 1))
            out[i, j] = num / den if den > 0 else 0.0
    return out


class TestGetisOrd:
    """The getis_ord_gi_star tool: Gi* z-scores saved as an f32 raster."""

    @staticmethod
    def gi_star(registry, workspace, grid, radius):
        write_raster(workspace.root / "field.tif", grid)
        result = registry.call_tool("getis_ord_gi_star", {
            "image_path": "field.tif", "output_path": "gi.tif", "kernel_radius": radius})
        assert not result.is_error, result.text
        return load_raster(result.files[0])

    def test_constant_raster_all_zero(self, tool_registry, workspace):
        out = self.gi_star(tool_registry, workspace, np.full((4, 4), 3.0), 1)
        assert np.allclose(out.data, 0.0)

    def test_hot_pixel_peak(self, tool_registry, workspace):
        grid = np.zeros((7, 7))
        grid[3, 3] = 10.0
        out = self.gi_star(tool_registry, workspace, grid, 1).data[0]
        # every window covering the hot pixel ties at the max; (3,3) is one of them
        assert out[3, 3] == np.max(out)
        assert out[0, 0] < out[3, 3]

    def test_matches_direct_formula(self, tool_registry, workspace):
        rng = np.random.default_rng(17)
        grid = rng.normal(size=(5, 5))
        got = self.gi_star(tool_registry, workspace, grid, 1).data[0].astype(np.float64)
        want = gi_star_oracle(from_array(grid).band(), 1)
        assert np.max(np.abs(got - want)) < 1e-6  # f32 storage of the z map

    def test_mean_near_zero_on_large_field(self, tool_registry, workspace):
        rng = np.random.default_rng(42)
        out = self.gi_star(tool_registry, workspace, rng.normal(size=(64, 64)), 2)
        assert abs(float(np.mean(out.data))) < 0.1


def gi_star_loop(band, kernel_radius=1):
    """The former Gi* with its per-pixel window_sum double loop."""
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
    k = kernel_radius

    def window_sum(a):
        integral = np.zeros((h + 1, w + 1))
        integral[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
        out_arr = np.empty((h, w))
        for i in range(h):
            for j in range(w):
                r0, r1 = max(0, i - k), min(h, i + k + 1)
                c0, c1 = max(0, j - k), min(w, j + k + 1)
                out_arr[i, j] = (integral[r1, c1] - integral[r0, c1]
                                 - integral[r1, c0] + integral[r0, c0])
        return out_arr

    wsum = window_sum(filled)
    wcount = window_sum(ones)

    with np.errstate(divide="ignore", invalid="ignore"):
        num = wsum - mean * wcount
        den = s * np.sqrt(np.maximum(n * wcount - wcount * wcount, 0.0) / (n - 1))
        z = np.where(den > 0, num / den, 0.0)
    return np.where(valid, z, np.nan)


@st.composite
def gi_rasters(draw):
    """1x1 up to 10x10 rasters: free values with NaN and ties, or constant."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        return np.full((h, w), draw(st.floats(-1e6, 1e6)))
    cells = draw(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0])),
                          min_size=h * w, max_size=h * w))
    return np.asarray(cells, dtype=np.float64).reshape(h, w)


class TestGiStarMatchesLoop:
    """The gathered window sums give the former loop's z-scores byte for byte."""

    @staticmethod
    def same(band, radius):
        got = outcome(lambda: an.gi_star_zscores(band, radius).tobytes())
        assert got == outcome(lambda: gi_star_loop(band, radius).tobytes())

    @settings(max_examples=80, deadline=None)
    @given(band=gi_rasters(), radius=st.one_of(st.integers(1, 12), st.just(10**19)))
    def test_property(self, band, radius):
        self.same(band, radius)

    @pytest.mark.parametrize("radius", [1, 2, 3, 7, 64, 65, 10**19])
    def test_64_square_with_gaps(self, radius):
        band = np.random.default_rng(radius % 97).normal(size=(64, 64))
        band[::7, ::5] = np.nan
        self.same(band, radius)


class TestHotspotDirection:
    def test_due_north(self):
        grid = np.zeros((9, 9))
        grid[0:3, 4] = 1  # column above center is on the center column -> excluded
        grid[0:3, 3] = 1
        grid[0:3, 5] = 1
        direction, counts = an.hotspot_direction(from_array(grid, dtype="u8"))
        assert direction == "N"
        assert counts["S"] == counts["E"] == counts["W"] == 0

    def test_empty_center_balanced(self):
        direction, counts = an.hotspot_direction(from_array(np.zeros((4, 4)), dtype="u8"))
        assert direction == "center-balanced"
        assert all(v == 0 for v in counts.values())

    def test_counts_sum_excludes_center_axes(self):
        rng = np.random.default_rng(5)
        grid = (rng.uniform(size=(9, 9)) < 0.4).astype(np.uint8)
        direction, counts = an.hotspot_direction(from_array(grid, dtype="u8"))
        on_axes = int(grid[4, :].sum() + grid[:, 4].sum() - grid[4, 4])
        diagonal_or_axis = sum(
            1 for y in range(9) for x in range(9)
            if grid[y, x] and (y == 4 or x == 4)
        )
        assert sum(counts.values()) == int(grid.sum()) - diagonal_or_axis
        assert on_axes == diagonal_or_axis

    def test_ties_lexicographic(self):
        grid = np.zeros((5, 5))
        grid[0, 2 - 1] = 1  # N sector
        grid[4, 2 - 1] = 1  # S sector
        direction, counts = an.hotspot_direction(from_array(grid, dtype="u8"))
        assert counts["N"] == counts["S"] == 1
        assert direction == "N"

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            an.hotspot_direction(from_array([[0, 7]], dtype="u8"))


def hotspot_direction_loop(binary_map):
    """The former per-pixel sector count of analysis.hotspot_direction."""
    band = binary_map.band()
    h, w = band.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    counts = {d: 0 for d in an.CARDINALS}
    ys, xs = np.nonzero(band == 1.0)
    for y, x in zip(ys, xs):
        dy, dx = y - cy, x - cx
        if dy == 0 or dx == 0:
            continue
        if abs(dy) >= abs(dx):
            counts["N" if dy < 0 else "S"] += 1
        else:
            counts["E" if dx > 0 else "W"] += 1
    best = max(counts.values())
    if best == 0:
        return "center-balanced", counts
    winner = min(d for d in an.CARDINALS if counts[d] == best)
    return winner, counts


class TestHotspotDirectionMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), data=st.data())
    def test_property(self, h, w, data):
        cells = data.draw(st.lists(st.sampled_from([0, 1]), min_size=h * w, max_size=h * w))
        binary_map = from_array(np.asarray(cells).reshape(h, w), dtype="u8")
        got = an.hotspot_direction(binary_map)
        assert got == hotspot_direction_loop(binary_map)
        assert list(got[1]) == list(an.CARDINALS)
        assert all(type(v) is int for v in got[1].values())

    @pytest.mark.parametrize("shape", [(9, 9), (8, 8), (9, 8), (8, 9), (1, 1), (2, 2)],
                             ids=["odd", "even", "odd-even", "even-odd", "1x1", "2x2"])
    @pytest.mark.parametrize("fill", ["full", "empty"])
    def test_odd_even_empty(self, shape, fill):
        grid = np.ones(shape) if fill == "full" else np.zeros(shape)
        binary_map = from_array(grid, dtype="u8")
        assert an.hotspot_direction(binary_map) == hotspot_direction_loop(binary_map)


def test_linear_trend_refuses_positions_too_close_to_fit():
    with pytest.raises(InvalidInputError, match="too close to fit a line"):
        an.linear_trend([1.0, 2.0], [0.0, 1e-320])
