from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent.errors import InvalidInputError
from geoagent.kits import inversion as inv
from geoagent.raster import from_array

from conftest import write_raster


def arr(*values):
    return np.asarray(values, dtype=np.float64)


class TestMultiChannel:
    def test_reference_point(self):
        # 1.022 * 300 + 0.47 * (300 - 298) + 0.43
        out = inv.multi_channel_lst(arr(300.0), arr(298.0))
        assert abs(out[0] - 307.97) < 1e-9

    def test_equal_bands_drop_difference_term(self):
        for t in (250.0, 300.0, 320.0):
            out = inv.multi_channel_lst(arr(t), arr(t))
            assert abs(out[0] - (1.022 * t + 0.43)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        b1=st.floats(200, 350), b2=st.floats(200, 350),
        c1=st.floats(200, 350), c2=st.floats(200, 350),
        lam=st.floats(0.1, 3.0),
    )
    def test_affine_in_inputs(self, b1, b2, c1, c2, lam):
        # additivity and homogeneity of the map minus its constant term
        f = lambda x, y: inv.multi_channel_lst(arr(x), arr(y))[0] - 0.43
        lhs = f(b1 + c1, b2 + c2)
        assert abs(lhs - (f(b1, b2) + f(c1, c2))) < 1e-7
        assert abs(f(lam * b1, lam * b2) - lam * f(b1, b2)) < 1e-7


class TestSingleChannel:
    def test_vegetation_endmember(self):
        # NDVI above the vegetation threshold selects the vegetation emissivity
        bt = arr(300.0)
        red, nir = arr(0.05), arr(0.6)  # NDVI ~ 0.846
        out = inv.single_channel_lst(bt, red, nir)
        expected = inv.emissivity_corrected_bt(bt, np.asarray(inv.EMIS_VEGETATION),
                                               inv.SINGLE_CHANNEL_WAVELENGTH)
        assert abs(out[0] - expected[0]) < 1e-9

    def test_soil_endmember(self):
        bt = arr(295.0)
        red, nir = arr(0.5), arr(0.55)  # NDVI ~ 0.048 < 0.2
        out = inv.single_channel_lst(bt, red, nir)
        expected = inv.emissivity_corrected_bt(bt, np.asarray(inv.EMIS_SOIL),
                                               inv.SINGLE_CHANNEL_WAVELENGTH)
        assert abs(out[0] - expected[0]) < 1e-9

    def test_correction_raises_temperature(self):
        # emissivity below 1 means the surface is warmer than the BT
        bt = arr(300.0)
        out = inv.single_channel_lst(bt, arr(0.05), arr(0.6))
        assert out[0] > 300.0

    def test_blackbody_identity(self):
        bt = arr(285.0)
        out = inv.emissivity_corrected_bt(bt, np.asarray(1.0), 10.9e-6)
        assert abs(out[0] - 285.0) < 1e-9


@pytest.mark.parametrize("wavelength", [0, 0.0, -10.9e-6])
def test_lst_single_channel_refuses_non_positive_wavelength(tool_registry, workspace,
                                                            wavelength):
    for name, value in (("bt", 300.0), ("red", 0.1), ("nir", 0.5)):
        write_raster(workspace.root / f"{name}.tif", np.full((2, 2), value))
    result = tool_registry.call_tool("lst_single_channel", {
        "bt_path": "bt.tif", "red_path": "red.tif", "nir_path": "nir.tif",
        "output_path": "lst.tif", "wavelength": wavelength})
    assert result.error_class == "InvalidParameters"
    assert "wavelength must be positive" in result.text
    assert not (workspace.root / "lst.tif").exists()


class TestSplitWindow:
    def test_zero_difference(self):
        out = inv.split_window_lst(arr(300.0), arr(300.0))
        assert abs(out[0] - (300.0 + inv.SPLIT_WINDOW_C0)) < 1e-12

    def test_quadratic_term(self):
        d = 2.0
        out = inv.split_window_lst(arr(302.0), arr(300.0))
        expected = 302.0 + inv.SPLIT_WINDOW_C1 * d + inv.SPLIT_WINDOW_C2 * d * d \
            + inv.SPLIT_WINDOW_C0
        assert abs(out[0] - expected) < 1e-12


class TestTes:
    def test_uniform_bt_stays_close(self):
        # near-graybody: recovered LST sits slightly above the BT, never below
        bands = [np.full((3, 3), 300.0) for _ in range(3)]
        out = inv.tes_lst(bands)
        assert np.all(out >= 300.0 - 1e-6)
        assert np.all(out < 302.0)

    def test_deterministic(self):
        bands = [np.full((2, 2), 295.0), np.full((2, 2), 294.5), np.full((2, 2), 294.0)]
        a = inv.tes_lst([b.copy() for b in bands])
        b = inv.tes_lst([b.copy() for b in bands])
        assert np.array_equal(a, b)

    def test_monotone_in_bt(self):
        cool = inv.tes_lst([np.full((1, 1), 280.0)] * 3)
        warm = inv.tes_lst([np.full((1, 1), 310.0)] * 3)
        assert warm[0, 0] > cool[0, 0]

    def test_band_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            inv.tes_lst([np.zeros((1, 1))] * 2)


class TestTtm:
    def test_blackbody_recovery(self):
        t_true = 305.0
        bands = [np.full((2, 2), t_true) for _ in range(3)]
        out, bad = inv.ttm_lst(bands)
        assert bad == 0
        # optimum sits at the blackbody temperature (emissivity clamp binds at 1)
        assert np.allclose(out, t_true, atol=0.05)

    def test_nan_input_propagates(self):
        bands = [np.full((1, 2), 300.0) for _ in range(3)]
        bands[0][0, 1] = np.nan
        out, bad = inv.ttm_lst(bands)
        assert np.isnan(out[0, 1]) and not np.isnan(out[0, 0])


class TestAti:
    def test_reference_point(self):
        out = inv.ati(arr(0.2), arr(310.0), arr(290.0))
        assert abs(out[0] - 0.04) < 1e-12

    def test_full_albedo_zero(self):
        out = inv.ati(arr(1.0), arr(310.0), arr(290.0))
        assert out[0] == 0.0

    def test_no_diurnal_range_nodata(self):
        out = inv.ati(arr(0.3), arr(300.0), arr(300.0))
        assert np.isnan(out[0])


class TestMicrowave:
    def test_polarization_ratio_reference(self):
        out = inv.polarization_ratio(arr(260.0), arr(240.0))
        assert abs(out[0] - 0.04) < 1e-12

    def test_polarization_ratio_antisymmetric(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(100, 300, 20)
        h = rng.uniform(100, 300, 20)
        assert np.allclose(inv.polarization_ratio(v, h),
                           -inv.polarization_ratio(h, v), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(1.0, 400.0), h=st.floats(1.0, 400.0))
    def test_polarization_ratio_range(self, v, h):
        out = inv.polarization_ratio(arr(v), arr(h))[0]
        assert -1.0 < out < 1.0

    def test_zero_sum_nodata(self):
        assert np.isnan(inv.polarization_ratio(arr(0.0), arr(0.0))[0])

    def test_dual_freq_equal_bands_gives_beta(self):
        out = inv.linear_difference_model(arr(220.0), arr(220.0), alpha=5.0, beta=1.5)
        assert out[0] == 1.5

    def test_dual_freq_hand_value(self):
        out = inv.linear_difference_model(arr(223.0), arr(220.0), alpha=2.0, beta=1.0)
        assert out[0] == 7.0

    def test_chang_snow_depth(self):
        out = inv.chang_snow_depth(arr(240.0), arr(230.0))
        assert abs(out[0] - 15.9) < 1e-9

    def test_multi_freq_coefficients(self):
        out = inv.multi_freq_bt([arr(10.0), arr(20.0)], [2.0, -1.0], intercept=3.0)
        assert out[0] == 3.0

    def test_multi_freq_coefficient_count(self):
        with pytest.raises(InvalidInputError):
            inv.multi_freq_bt([arr(1.0)], [1.0, 2.0])


class TestNasaTeam:
    def test_open_water_tie_point_zero(self):
        w = inv.NASA_TEAM_TIE_POINTS["open_water"]
        out = inv.nasa_team_sic(arr(w[0]), arr(w[1]), arr(w[2]))
        assert abs(out[0]) < 1e-9

    def test_first_year_tie_point_full(self):
        f = inv.NASA_TEAM_TIE_POINTS["first_year"]
        out = inv.nasa_team_sic(arr(f[0]), arr(f[1]), arr(f[2]))
        assert abs(out[0] - 100.0) < 1e-9

    def test_multi_year_tie_point_full(self):
        m = inv.NASA_TEAM_TIE_POINTS["multi_year"]
        out = inv.nasa_team_sic(arr(m[0]), arr(m[1]), arr(m[2]))
        assert abs(out[0] - 100.0) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        t19v=st.floats(150, 280), t19h=st.floats(80, 260), t37v=st.floats(150, 280),
    )
    def test_clamped_range(self, t19v, t19h, t37v):
        out = inv.nasa_team_sic(arr(t19v), arr(t19h), arr(t37v))[0]
        assert np.isnan(out) or 0.0 <= out <= 100.0


class TestPwv:
    def test_unit_transmittance(self):
        out = inv.pwv_band_ratio(arr(0.3), arr(0.3))
        assert abs(out[0] - (0.02 / 0.651) ** 2) < 1e-12

    def test_zero_window_nodata(self):
        assert np.isnan(inv.pwv_band_ratio(arr(0.3), arr(0.0))[0])

    def test_monotone_in_transmittance(self):
        rng = np.random.default_rng(6)
        taus = np.sort(rng.uniform(0.05, 1.0, 20))
        pwv = inv.pwv_band_ratio(taus, np.ones_like(taus))
        assert np.all(np.diff(pwv) < 0)


class TestTurbidity:
    def test_zero_reflectance(self):
        assert inv.turbidity_ntu(arr(0.0))[0] == 0.0

    def test_hand_value(self):
        out = inv.turbidity_ntu(arr(0.05))
        expected = 228.1 * 0.05 / (1 - 0.05 / 0.1641)
        assert abs(out[0] - expected) < 1e-9
        assert abs(out[0] - 16.402) < 1e-2

    def test_pole_is_nodata(self):
        assert np.isnan(inv.turbidity_ntu(arr(0.1641))[0])


class TestLstStatByNdvi:
    def test_all_above_is_plain_mean(self):
        lst = from_array([[300.0, 310.0]])
        ndvi = from_array([[0.7, 0.9]])
        out = inv.lst_stat_by_ndvi(np.mean, [lst], [ndvi], threshold=0.5)
        assert out == 305.0

    def test_empty_selection(self):
        lst = from_array([[300.0]])
        ndvi = from_array([[0.1]])
        with pytest.raises(InvalidInputError):
            inv.lst_stat_by_ndvi(np.mean, [lst], [ndvi], threshold=0.5)

    def test_two_pairs_match_bruteforce(self):
        rng = np.random.default_rng(8)
        lsts = [from_array(rng.uniform(280, 320, (3, 3))) for _ in range(2)]
        ndvis = [from_array(rng.uniform(0, 1, (3, 3))) for _ in range(2)]
        got = inv.lst_stat_by_ndvi(np.max, lsts, ndvis, threshold=0.4)
        pool = []
        for lr, nr in zip(lsts, ndvis):
            for lv, nv in zip(lr.data.ravel(), nr.data.ravel()):
                if nv > 0.4:
                    pool.append(float(lv))
        assert got == max(pool)

    def test_pair_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            inv.lst_stat_by_ndvi(np.mean, [from_array([[1.0]])], [], 0.5)


@pytest.mark.parametrize("tie_points", [
    {"open_water": 5}, {"open_water": [1, 2, 3]}, {"open_water": ["a", 1, 2]},
    {**inv.NASA_TEAM_TIE_POINTS, "open_water": [1, 2, float("nan")]},
    {**inv.NASA_TEAM_TIE_POINTS, "open_water": [1, 2]},
    {**inv.NASA_TEAM_TIE_POINTS, "extra": [1, 2, 3]},
], ids=["scalar", "one_key", "string", "nan", "two_numbers", "extra_key"])
def test_malformed_tie_points_are_invalid_parameters(tool_registry, workspace, tie_points):
    for name in ("v19", "h19", "v37"):
        write_raster(workspace.root / f"{name}.tif", np.full((2, 2), 200.0))
    result = tool_registry.call_tool("nasa_team_sea_ice_concentration", {
        "tb_19v_path": "v19.tif", "tb_19h_path": "h19.tif", "tb_37v_path": "v37.tif",
        "output_path": "sic.tif", "tie_points": tie_points})
    assert result.error_class == "InvalidParameters"
    assert "tie_points needs open_water, first_year, multi_year" in result.text


def test_tie_points_given_as_lists_equal_the_defaults():
    tb = [arr(230.0), arr(200.0), arr(220.0)]
    given = {k: list(v) for k, v in inv.NASA_TEAM_TIE_POINTS.items()}
    assert np.array_equal(inv.nasa_team_sic(*tb, tie_points=given), inv.nasa_team_sic(*tb))


def test_ttm_refuses_mismatched_grids(tool_registry, workspace):
    write_raster(workspace.root / "t1.tif", np.full((2, 2), 300.0))
    write_raster(workspace.root / "t2.tif", np.full((2, 3), 300.0))
    result = tool_registry.call_tool("ttm_lst", {
        "band_paths": ["t1.tif", "t1.tif", "t2.tif"], "output_path": "lst.tif"})
    assert result.error_class == "InvalidParameters"
    assert "grids differ" in result.text
