"""Geophysical parameter retrieval kernels.

Thermal methods work on brightness temperatures in Kelvin; microwave methods
on brightness temperatures per polarization/frequency. Empirical
coefficients are exposed as parameters with the defaults documented next to
each kernel, so callers can override them per sensor.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidInputError
from ..finite_json import is_finite_number
from ..raster import Raster, require_same_grid
from .index import normalized_difference

# second radiation constant h*c/k_B in m*K
C2 = 6.62607015e-34 * 2.99792458e8 / 1.380649e-23

# default multi-channel coefficients (two thermal bands near 11 and 12 um)
MULTI_CHANNEL_A = 1.022
MULTI_CHANNEL_B = 0.47
MULTI_CHANNEL_C = 0.43

# generalized split-window defaults
SPLIT_WINDOW_C0 = 0.268
SPLIT_WINDOW_C1 = 1.378
SPLIT_WINDOW_C2 = 0.183

# NDVI-threshold emissivity model
EMIS_SOIL = 0.973
EMIS_VEGETATION = 0.986
NDVI_SOIL = 0.2
NDVI_VEGETATION = 0.5
SINGLE_CHANNEL_WAVELENGTH = 10.9e-6

# band-ratio water vapor defaults
PWV_ALPHA = 0.02
PWV_BETA = 0.651

# turbidity defaults
TURBIDITY_A = 228.1
TURBIDITY_C = 0.1641

# Chang snow depth coefficient, cm per Kelvin of (18H - 37H) difference
CHANG_COEFF = 1.59

# Arctic brightness-temperature tie points per (19V, 19H, 37V):
# open water, first-year ice, multi-year ice
NASA_TEAM_TIE_POINTS = {
    "open_water": (177.1, 100.8, 201.7),
    "first_year": (258.2, 242.8, 252.8),
    "multi_year": (223.2, 203.9, 186.3),
}

TES_WAVELENGTHS = (8.55e-6, 11.03e-6, 12.02e-6)
TES_MAX_ITER = 12
TES_TOL = 1e-4  # Kelvin
TTM_WAVELENGTHS = TES_WAVELENGTHS
TTM_T_BOUNDS = (200.0, 400.0)
TTM_EMIS_BOUNDS = (0.8, 1.0)
TTM_MAX_ITER = 60
TTM_TOL = 1e-4  # Kelvin


def multi_channel_lst(b31: np.ndarray, b32: np.ndarray, a: float = MULTI_CHANNEL_A,
                      b: float = MULTI_CHANNEL_B, c: float = MULTI_CHANNEL_C) -> np.ndarray:
    """LST = a*B31 + b*(B31 - B32) + c, the two-band atmospheric correction."""
    return a * b31 + b * (b31 - b32) + c


def split_window_lst(b31: np.ndarray, b32: np.ndarray, c0: float = SPLIT_WINDOW_C0,
                     c1: float = SPLIT_WINDOW_C1, c2: float = SPLIT_WINDOW_C2) -> np.ndarray:
    """Generalized split-window: BT31 + c1*d + c2*d^2 + c0 with d = BT31-BT32."""
    d = b31 - b32
    return b31 + c1 * d + c2 * d * d + c0


def emissivity_from_ndvi(ndvi: np.ndarray) -> np.ndarray:
    """NDVI-threshold emissivity: soil below, vegetation above, linear blend between."""
    frac = np.clip((ndvi - NDVI_SOIL) / (NDVI_VEGETATION - NDVI_SOIL), 0.0, 1.0)
    return EMIS_SOIL + (EMIS_VEGETATION - EMIS_SOIL) * frac


def planck_radiance(wavelength: float, temperature: np.ndarray) -> np.ndarray:
    """Blackbody spectral radiance up to a constant factor (ratios only)."""
    with np.errstate(over="ignore"):
        return 1.0 / (wavelength ** 5 * np.expm1(C2 / (wavelength * temperature)))


def emissivity_corrected_bt(bt: np.ndarray, emissivity: np.ndarray,
                            wavelength: float) -> np.ndarray:
    """Exact inverse-Planck emissivity correction of a brightness temperature.

    From B(bt) = e * B(t): expm1(c2/(lambda*t)) = expm1(c2/(lambda*bt)) * e,
    so an emissivity below one yields a surface warmer than its BT.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return (C2 / wavelength) / np.log1p(
            emissivity * np.expm1(C2 / (wavelength * bt)))


def single_channel_lst(bt: np.ndarray, red: np.ndarray, nir: np.ndarray,
                       wavelength: float = SINGLE_CHANNEL_WAVELENGTH) -> np.ndarray:
    """Single-channel LST with NDVI-threshold emissivity from red/NIR bands."""
    if wavelength <= 0:
        raise InvalidInputError(f"wavelength must be positive, got {wavelength}")
    ndvi = normalized_difference(nir, red)
    emis = emissivity_from_ndvi(ndvi)
    return emissivity_corrected_bt(bt, emis, wavelength)


def modis_day_night_lst(day_bt: np.ndarray, night_bt: np.ndarray,
                        emissivity: float = 0.97) -> np.ndarray:
    """Diurnal-mean LST: single-channel correction of day and night BT, averaged."""
    day = emissivity_corrected_bt(day_bt, emissivity, SINGLE_CHANNEL_WAVELENGTH)
    night = emissivity_corrected_bt(night_bt, emissivity, SINGLE_CHANNEL_WAVELENGTH)
    return 0.5 * (day + night)


def tes_lst(bands: list[np.ndarray]) -> np.ndarray:
    """Temperature-emissivity separation, simplified empirical variant.

    Iterates the normalized-emissivity loop: estimate band emissivities as
    radiance ratios against the current LST, rescale them through the
    spectral-contrast relation e_min = 0.994 - 0.687 * MMD**0.737, and
    re-invert the warmest band. Stops when LST moves less than TES_TOL.
    """
    if len(bands) != len(TES_WAVELENGTHS):
        raise InvalidInputError(
            f"TES needs one wavelength per band ({len(bands)} vs {len(TES_WAVELENGTHS)})"
        )
    stack = np.stack(bands)
    t = np.max(stack, axis=0)
    for _ in range(TES_MAX_ITER):
        rad = np.stack([planck_radiance(w, b) for w, b in zip(TES_WAVELENGTHS, bands)])
        black = np.stack([planck_radiance(w, t) for w in TES_WAVELENGTHS])
        with np.errstate(divide="ignore", invalid="ignore"):
            emis = rad / black
        beta = emis / np.mean(emis, axis=0)
        mmd = np.max(beta, axis=0) - np.min(beta, axis=0)
        emis_min = 0.994 - 0.687 * np.power(mmd, 0.737)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = beta * emis_min / np.min(beta, axis=0)
        scaled = np.clip(scaled, 1e-6, 1.0)
        candidates = np.stack([
            emissivity_corrected_bt(b, scaled[i], TES_WAVELENGTHS[i])
            for i, b in enumerate(bands)
        ])
        t_new = np.max(candidates, axis=0)
        if np.nanmax(np.abs(t_new - t)) < TES_TOL:
            t = t_new
            break
        t = t_new
    return t


def _ttm_pixel(radiances: np.ndarray, t0: float) -> float:
    """Damped (Levenberg) Newton on the per-pixel system R_i = eps * B_i(T).

    Unknowns (T, eps) with T in the physical bounds and eps in (0.8, 1.0].
    Returns NaN when the iteration fails to converge.
    """
    lo, hi = TTM_T_BOUNDS
    elo, ehi = TTM_EMIS_BOUNDS
    norm = float(np.max(radiances))
    radiances = radiances / norm
    scale = float(radiances @ radiances)
    t, eps = min(max(t0, lo), hi), 1.0
    damping = 1e-3
    h = 0.01

    def model(tv: float) -> np.ndarray:
        return np.array([planck_radiance(w, np.float64(tv))
                         for w in TTM_WAVELENGTHS]) / norm

    b = model(t)
    resid = radiances - eps * b
    cost = float(resid @ resid)
    for _ in range(TTM_MAX_ITER):
        if cost <= 1e-18 * scale:
            return t
        db = (model(t + h) - model(t - h)) / (2 * h)
        jac = np.stack([-eps * db, -b], axis=1)
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        try:
            step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), -jtr)
        except np.linalg.LinAlgError:
            return float("nan")
        t_new = min(max(t + step[0], lo), hi)
        eps_new = min(max(eps + step[1], elo + 1e-9), ehi)
        b_new = model(t_new)
        resid_new = radiances - eps_new * b_new
        cost_new = float(resid_new @ resid_new)
        if cost_new < cost:
            moved = abs(t_new - t)
            t, eps, b, resid, cost = t_new, eps_new, b_new, resid_new, cost_new
            damping = max(damping / 3.0, 1e-12)
            if moved < TTM_TOL:
                return t
        else:
            damping *= 10.0
            if damping > 1e12:
                return float("nan")
    return float("nan")


def ttm_lst(bands: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Three-band LST solved per pixel with physical constraints.

    Each pixel's brightness temperatures become band radiances and the
    (T, emissivity) pair is fitted by damped Newton; non-convergent pixels
    become NaN and their count is returned alongside the LST grid.
    """
    if len(bands) != len(TTM_WAVELENGTHS):
        raise InvalidInputError(
            f"TTM needs one wavelength per band ({len(bands)} vs {len(TTM_WAVELENGTHS)})"
        )
    stack = np.stack([b.astype(np.float64) for b in bands])
    nan_inputs = np.isnan(stack).any(axis=0)
    out = np.full(stack.shape[1:], np.nan)
    failures = 0
    for (y, x) in np.ndindex(out.shape):
        if nan_inputs[y, x]:
            continue
        bt = stack[:, y, x]
        rad = np.array([planck_radiance(w, bt[i]) for i, w in enumerate(TTM_WAVELENGTHS)])
        value = _ttm_pixel(rad, float(np.max(bt)))
        if math.isnan(value):
            failures += 1
        out[y, x] = value
    return out, failures


def ati(albedo: np.ndarray, day_temp: np.ndarray, night_temp: np.ndarray) -> np.ndarray:
    """Apparent thermal inertia (1 - albedo) / (day - night); dT <= 0 is NaN."""
    dt = day_temp - night_temp
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dt <= 0.0, np.nan, (1.0 - albedo) / dt)


def linear_difference_model(band1: np.ndarray, band2: np.ndarray,
                            alpha: float = 1.0, beta: float = 0.0) -> np.ndarray:
    """Empirical linear inversion: param = alpha*(band1 - band2) + beta."""
    return alpha * (band1 - band2) + beta


def multi_freq_bt(bands: list[np.ndarray], coefficients: list[float] | None = None,
                  intercept: float = 0.0) -> np.ndarray:
    """Weighted multi-frequency combination: sum_i c_i * band_i + intercept."""
    if coefficients is None:
        coefficients = [1.0 / len(bands)] * len(bands)
    if len(coefficients) != len(bands):
        raise InvalidInputError(
            f"need one coefficient per band ({len(coefficients)} vs {len(bands)})"
        )
    out = np.full(bands[0].shape, float(intercept))
    for c, b in zip(coefficients, bands):
        out = out + c * b
    return out


def polarization_ratio(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(V - H) / (V + H); V + H = 0 is NaN."""
    return normalized_difference(v, h)


def chang_snow_depth(t18h: np.ndarray, t37h: np.ndarray,
                     coefficient: float = CHANG_COEFF) -> np.ndarray:
    """Chang snow depth in cm from 18H/37H brightness temperatures."""
    return coefficient * (t18h - t37h)


def nasa_team_sic(t19v: np.ndarray, t19h: np.ndarray, t37v: np.ndarray,
                  tie_points: dict[str, tuple[float, float, float]] | None = None
                  ) -> np.ndarray:
    """Sea-ice concentration (percent) from 19V/19H/37V brightness temperatures.

    Solves the two-ice-type mixing model through the PR/GR ratios against the
    open-water, first-year and multi-year tie points; the result is total ice
    fraction clamped to [0, 100]. `tie_points`, unless None or empty, gives
    all three surfaces, each as three finite numbers.
    """
    tp = tie_points or NASA_TEAM_TIE_POINTS
    if tp.keys() != NASA_TEAM_TIE_POINTS.keys() or not all(
            isinstance(v, (list, tuple)) and len(v) == 3 and all(map(is_finite_number, v))
            for v in tp.values()):
        raise InvalidInputError(
            f"tie_points needs {', '.join(NASA_TEAM_TIE_POINTS)}, each as 3 finite "
            f"numbers [19V, 19H, 37V], got {tie_points!r}")
    w = np.asarray(tp["open_water"], dtype=float)
    f = np.asarray(tp["first_year"], dtype=float)
    m = np.asarray(tp["multi_year"], dtype=float)

    with np.errstate(divide="ignore", invalid="ignore"):
        pr = np.where(t19v + t19h == 0.0, np.nan, (t19v - t19h) / (t19v + t19h))
        gr = np.where(t37v + t19v == 0.0, np.nan, (t37v - t19v) / (t37v + t19v))

    df, dm = f - w, m - w
    # channel order: 0=19V, 1=19H, 2=37V
    a1 = (df[0] - df[1]) - pr * (df[0] + df[1])
    b1 = (dm[0] - dm[1]) - pr * (dm[0] + dm[1])
    e1 = -((w[0] - w[1]) - pr * (w[0] + w[1]))
    a2 = (df[2] - df[0]) - gr * (df[2] + df[0])
    b2 = (dm[2] - dm[0]) - gr * (dm[2] + dm[0])
    e2 = -((w[2] - w[0]) - gr * (w[2] + w[0]))

    det = a1 * b2 - a2 * b1
    with np.errstate(divide="ignore", invalid="ignore"):
        cf = np.where(det == 0.0, np.nan, (e1 * b2 - e2 * b1) / det)
        cm = np.where(det == 0.0, np.nan, (a1 * e2 - a2 * e1) / det)
    return np.clip(100.0 * (cf + cm), 0.0, 100.0)


def pwv_band_ratio(absorption: np.ndarray, window: np.ndarray,
                   alpha: float = PWV_ALPHA, beta: float = PWV_BETA) -> np.ndarray:
    """Precipitable water vapor from the two-band transmittance ratio.

    tau = absorption/window; PWV = ((alpha - ln tau) / beta)^2. Non-positive
    transmittance (including a zero window band) is NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(window == 0.0, np.nan, absorption / window)
        tau = np.where(tau <= 0.0, np.nan, tau)
        return ((alpha - np.log(tau)) / beta) ** 2


def turbidity_ntu(red_reflectance: np.ndarray, a: float = TURBIDITY_A,
                  c: float = TURBIDITY_C) -> np.ndarray:
    """Water turbidity in NTU from red-band reflectance; rho >= c is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a * red_reflectance / (1.0 - red_reflectance / c)
    return np.where(red_reflectance >= c, np.nan, out)


def lst_stat_by_ndvi(reduce, lst_rasters, ndvi_rasters,
                     threshold: float, direction=np.greater) -> float:
    """`reduce` (such as np.mean) over the LST pixels whose NDVI is on the
    `direction` side of a threshold, pooled across pairs. Only the selected
    pixels are pooled: `map` lets go of each pair before it takes the next,
    so lists that load their rasters as they are taken hold one pair."""
    if len(lst_rasters) != len(ndvi_rasters):
        raise InvalidInputError(
            f"paired lists differ in length: {len(lst_rasters)} LST vs "
            f"{len(ndvi_rasters)} NDVI"
        )

    def select(lst_r: Raster, ndvi_r: Raster) -> np.ndarray:
        require_same_grid(lst_r, ndvi_r)
        lst = lst_r.band()
        return lst[direction(ndvi_r.band(), threshold) & ~np.isnan(lst)]

    selected = list(map(select, lst_rasters, ndvi_rasters))
    pool = np.concatenate(selected) if selected else np.array([])
    if pool.size == 0:
        raise InvalidInputError("NDVI condition selects no pixels")
    return float(reduce(pool))
