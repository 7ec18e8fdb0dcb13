from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent.errors import InvalidInputError
from geoagent.kits import index
from geoagent.raster import from_array

from conftest import write_raster


def single(value: float):
    return from_array([[value]])


NDVI = index.INDICES["ndvi"][1]
EVI = index.INDICES["evi"][1]


class TestComputeIndex:
    def test_ndvi_symmetric_bands_zero(self):
        out = index.compute_index(NDVI, single(0.5), single(0.5))
        assert out.data.ravel()[0] == 0.0

    def test_ndvi_hand_value(self):
        out = index.compute_index(NDVI, single(0.6), single(0.2))
        # (0.6 - 0.2) / (0.6 + 0.2)
        assert abs(out.data.ravel()[0] - 0.5) < 1e-7

    def test_evi_zero_bands(self):
        zero = single(0.0)
        out = index.compute_index(EVI, zero, zero, zero)
        assert out.data.ravel()[0] == 0.0

    def test_denominator_zero_nodata(self):
        out = index.compute_index(NDVI, single(0.0), single(0.0))
        assert np.isnan(out.data.ravel()[0])

    @pytest.mark.parametrize("kind", ["ndvi", "ndwi", "ndbi", "nbr", "ndti", "ndsi"])
    def test_normalized_difference_antisymmetry(self, kind):
        _, formula = index.INDICES[kind]
        rng = np.random.default_rng(11)
        x = from_array(rng.uniform(0.01, 1.0, (4, 4)))
        y = from_array(rng.uniform(0.01, 1.0, (4, 4)))
        fwd = index.compute_index(formula, x, y).data
        rev = index.compute_index(formula, y, x).data
        assert np.allclose(fwd, -rev, atol=1e-7)

    @pytest.mark.parametrize("kind", ["ndvi", "ndwi", "nbr", "ndsi", "ndti"])
    def test_scale_invariance(self, kind):
        _, formula = index.INDICES[kind]
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 1.0, (3, 3))
        y = rng.uniform(0.1, 1.0, (3, 3))
        base = index.compute_index(formula, from_array(x), from_array(y)).data
        scaled = index.compute_index(
            formula, from_array(7.0 * x), from_array(7.0 * y)).data
        assert np.allclose(base, scaled, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(nir=st.floats(0.0, 1.0), red=st.floats(0.0, 1.0))
    def test_ndvi_range(self, nir, red):
        out = index.compute_index(NDVI, single(nir), single(red))
        v = out.data.ravel()[0]
        if not np.isnan(v):
            assert -1.0 <= v <= 1.0


class TestFvc:
    def test_endpoints(self):
        ndvi = from_array([[0.05, 0.86]])
        out = index.compute_fvc(ndvi, 0.05, 0.86).data.ravel()
        # endpoints are exact up to f32 storage of the NDVI raster
        assert abs(out[0] - 0.0) < 1e-7 and abs(out[1] - 1.0) < 1e-7

    def test_midpoint_quarter(self):
        mid = (0.05 + 0.86) / 2
        out = index.compute_fvc(from_array([[mid]]), 0.05, 0.86)
        assert abs(out.data.ravel()[0] - 0.25) < 1e-7

    def test_degenerate_range(self):
        with pytest.raises(InvalidInputError):
            index.compute_fvc(from_array([[0.5]]), 0.8, 0.2)


class TestFrpMask:
    def test_strict_inequality(self):
        out = index.frp_mask(from_array([[1.0, 5.0, 9.0]]), 5.0)
        assert out.data.ravel().tolist() == [0, 0, 1]

    def test_threshold_below_min(self):
        out = index.frp_mask(from_array([[1.0, 5.0, 9.0]]), 0.5)
        assert out.data.ravel().tolist() == [1, 1, 1]

    def test_mask_sum_equals_count(self):
        rng = np.random.default_rng(2)
        r = from_array(rng.uniform(0, 10, (5, 5)))
        from geoagent.kits.perception import count_above_threshold

        mask = index.frp_mask(r, 4.0)
        assert int(mask.data.sum()) == count_above_threshold(r, 4.0)


class TestSnowLoss:
    def test_all_zero(self):
        assert index.extreme_snow_loss_percentage(
            from_array(np.zeros((3, 3)), dtype="u8")) == 0.0

    def test_half_ones(self):
        assert index.extreme_snow_loss_percentage(
            from_array([[0, 1], [1, 0]], dtype="u8")) == 50.0

    def test_255_normalization(self):
        assert index.extreme_snow_loss_percentage(
            from_array([[0, 255]], dtype="u8")) == 50.0

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            index.extreme_snow_loss_percentage(from_array([[0, 3]], dtype="u8"))

    def test_equals_hotspot_percentage_cross_op(self):
        from geoagent.kits.statistics import percent_satisfying

        rng = np.random.default_rng(21)
        binary = from_array((rng.uniform(size=(6, 6)) < 0.3).astype(int), dtype="u8")
        loss = index.extreme_snow_loss_percentage(binary)
        hotspot = percent_satisfying(binary, np.greater, 0.5)
        assert abs(loss - hotspot) < 1e-12


def tvdi_fixture():
    """NDVI on a uniform lattice; dry/wet LST lines with known slopes.

    Distinct NDVI values sit exactly on the internal bin edges, so every
    regression point lands on a line parallel to the true edge: slopes are
    recovered exactly, intercepts shift by slope * (bin width / 2).
    """
    k = 9  # distinct NDVI values -> bins = k - 1
    centers = np.linspace(0.1, 0.9, k)
    ndvi_col = np.repeat(centers, 8)  # 8 pixels per NDVI value
    dry = -10.0 * ndvi_col + 320.0
    wet = 2.0 * ndvi_col + 290.0
    lst_col = np.where(np.arange(ndvi_col.size) % 2 == 0, dry, wet)
    return ndvi_col.reshape(-1, 1), lst_col.reshape(-1, 1), k - 1


class TestTvdi:
    def test_analytic_slopes_recovered(self):
        ndvi, lst, bins = tvdi_fixture()
        d = (0.9 - 0.1) / bins
        (ds, di), (ws, wi) = index.fit_tvdi_edges(ndvi, lst, bins=bins)
        assert abs(ds - -10.0) < 1e-6
        assert abs(ws - 2.0) < 1e-6
        # per-bin extremes occur half a bin left of each center
        assert abs(di - (320.0 + 10.0 * d / 2)) < 1e-6
        assert abs(wi - (290.0 - 2.0 * d / 2)) < 1e-6

    def test_wet_edge_zero_dry_edge_one(self, monkeypatch):
        ndvi, lst, bins = tvdi_fixture()
        edges = index.fit_tvdi_edges(ndvi, lst, bins=bins)
        (ds, di), (ws, wi) = edges
        on_wet = ws * ndvi + wi
        on_dry = ds * ndvi + di
        # an LST on one edge would fit both edges to it, so the fit is fixed
        monkeypatch.setattr(index, "fit_tvdi_edges", lambda *a, **kw: edges)
        band = from_array(ndvi).band()
        zero = index.compute_tvdi(band, from_array(on_wet).band())
        one = index.compute_tvdi(band, from_array(on_dry).band())
        assert np.allclose(zero, 0.0, atol=1e-6)
        assert np.allclose(one, 1.0, atol=1e-6)

    def test_insufficient_bins(self):
        ndvi = from_array([[0.5, 0.5001, 0.9]]).band()
        lst = from_array([[300.0, 301.0, 302.0]]).band()
        with pytest.raises(InvalidInputError):
            index.compute_tvdi(ndvi, lst, bins=3)

    def test_constant_ndvi_rejected(self):
        with pytest.raises(InvalidInputError):
            index.compute_tvdi(from_array(np.full((2, 2), 0.4)).band(),
                               from_array(np.full((2, 2), 300.0)).band())

    @pytest.mark.parametrize("bins", [0, -1, -10**6])
    def test_bins_below_one_refused(self, tool_registry, workspace, bins):
        assert self.refusal(tool_registry, workspace, bins) == f"at least 1, got {bins}"

    @pytest.mark.parametrize("bins", [index.MAX_TVDI_BINS + 1, 10**18])
    def test_bins_past_the_bound_refused(self, tool_registry, workspace, bins):
        assert (self.refusal(tool_registry, workspace, bins)
                == f"at most {index.MAX_TVDI_BINS}, got {bins}")

    @staticmethod
    def refusal(tool_registry, workspace, bins) -> str:
        """What `compute_tvdi` says `bins` must be, refusing it before any output."""
        ndvi, lst, _ = tvdi_fixture()
        write_raster(workspace.root / "ndvi.tif", ndvi)
        write_raster(workspace.root / "lst.tif", lst)
        result = tool_registry.call_tool("compute_tvdi", {
            "ndvi_path": "ndvi.tif", "lst_path": "lst.tif",
            "output_path": "tvdi.tif", "bins": bins})
        assert result.error_class == "InvalidParameters"
        assert not (workspace.root / "tvdi.tif").exists()
        return result.text.split("bins must be ", 1)[1]

    @pytest.mark.parametrize("edge,bad", [("dry", np.inf), ("wet", -np.inf)])
    def test_non_finite_edge_fit_refused(self, tool_registry, workspace, edge, bad):
        rng = np.random.default_rng(0)
        ndvi = rng.uniform(0.0, 0.9, (32, 32))
        lst = 320.0 - 20.0 * ndvi + rng.normal(0.0, 1.0, ndvi.shape)
        lst[5, 7] = bad
        write_raster(workspace.root / "ndvi.tif", ndvi)
        write_raster(workspace.root / "lst.tif", lst)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = tool_registry.call_tool("compute_tvdi", {
                "ndvi_path": "ndvi.tif", "lst_path": "lst.tif", "output_path": "tvdi.tif"})
        assert result.error_class == "InvalidParameters"
        assert f"the {edge} edge fit is not finite" in result.text
        assert not (workspace.root / "tvdi.tif").exists()

    def test_bins_at_the_bound_accepted(self, tool_registry, workspace):
        ndvi, lst, _ = tvdi_fixture()
        write_raster(workspace.root / "ndvi.tif", ndvi)
        write_raster(workspace.root / "lst.tif", lst)
        result = tool_registry.call_tool("compute_tvdi", {
            "ndvi_path": "ndvi.tif", "lst_path": "lst.tif",
            "output_path": "tvdi.tif", "bins": index.MAX_TVDI_BINS})
        assert result.error_class is None


def loop_tvdi_edges(ndvi: np.ndarray, lst: np.ndarray, bins: int):
    """The edge fit as one scan of the pixels per bin: the oracle for
    `fit_tvdi_edges`, which assigns every pixel its bin in one search."""
    ok = ~(np.isnan(ndvi) | np.isnan(lst))
    x, y = ndvi[ok], lst[ok]
    lo, hi = float(np.min(x)), float(np.max(x))
    edges = np.linspace(lo, hi, bins + 1)
    centers, dry, wet = [], [], []
    for i in range(bins):
        upper = edges[i + 1] if i < bins - 1 else hi + 1e-12
        sel = (x >= edges[i]) & (x < upper)
        if np.count_nonzero(sel) < index.TVDI_MIN_BIN_PIXELS:
            continue
        centers.append(0.5 * (edges[i] + edges[i + 1]))
        dry.append(float(np.max(y[sel])))
        wet.append(float(np.min(y[sel])))
    if len(centers) < 2:
        raise InvalidInputError(
            f"TVDI: only {len(centers)} usable NDVI bin(s), need at least 2"
        )
    c = np.asarray(centers)
    dry_fit = np.polyfit(c, np.asarray(dry), 1)
    wet_fit = np.polyfit(c, np.asarray(wet), 1)
    return (float(dry_fit[0]), float(dry_fit[1])), (float(wet_fit[0]), float(wet_fit[1]))


def refusing_non_finite(fit):
    """`fit`, refusing an edge that is not finite as `fit_tvdi_edges` does,
    rather than returning it to make an all-nodata TVDI."""
    def checked(ndvi, lst, bins):
        edges = fit(ndvi, lst, bins)
        for edge, line in zip(("dry", "wet"), edges):
            if not np.isfinite(line).all():
                raise InvalidInputError(f"TVDI: the {edge} edge fit is not finite: "
                                        "an LST value in a usable bin is infinite")
        return edges

    return checked


def outcome(fit, ndvi, lst, bins) -> str:
    """The fit's edges by `repr`, or its error text (an infinite LST in a
    usable bin fails the least-squares fit, or makes it not finite)."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return repr(fit(ndvi, lst, bins))
    except InvalidInputError as exc:
        return f"error: {exc}"
    except np.linalg.LinAlgError as exc:
        return f"fit failed: {exc}"


NDVI_VALUES = [0.0, -0.0, 0.5, 1.0, -1.0, 1e-9, 3.4e38, -3.4e38, 1e5, 1e5 + 2**-36,
               float("inf"), float("-inf"), float("nan")]
LST_VALUES = [0.0, -0.0, 300.0, 250.5, -1.0, float("inf"), float("-inf"), float("nan")]


class TestTvdiOracle:
    """`fit_tvdi_edges` gives the per-bin scan's edges, bit for bit, or its error."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_scan_per_bin(self, data):
        n = data.draw(st.integers(1, 120))
        pool = data.draw(st.lists(st.one_of(st.sampled_from(NDVI_VALUES),
                                            st.floats(-2.0, 2.0)), min_size=1, max_size=10))
        ndvi = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        lst = np.array(data.draw(st.lists(st.one_of(st.sampled_from(LST_VALUES),
                                                    st.floats(-1e3, 1e3)),
                                          min_size=n, max_size=n)))
        bins = data.draw(st.one_of(st.integers(1, 12), st.sampled_from([20, 100])))
        # both fits first drop the pixels whose NDVI or LST is NaN
        usable = ndvi[~(np.isnan(ndvi) | np.isnan(lst))]
        if usable.size == 0 or usable.min() >= usable.max():
            return  # refused before any bin is made, by the code both share
        assert outcome(index.fit_tvdi_edges, ndvi, lst, bins) == \
            outcome(refusing_non_finite(loop_tvdi_edges), ndvi, lst, bins)

    def test_hi_plus_1e_12_rounding_to_hi_keeps_the_maximum_out(self):
        # past 1e4 an ulp exceeds 1e-12: the last bin is [edges[-2], hi), so
        # the pixels at hi fall in no bin and the last bin stays empty
        ndvi = np.array([1e5] * 3 + [1e5 + 2] * 3)
        lst = np.arange(6.0)
        assert 1e5 + 2 + 1e-12 == 1e5 + 2
        assert outcome(loop_tvdi_edges, ndvi, lst, 2) == \
            "error: TVDI: only 1 usable NDVI bin(s), need at least 2"
        assert outcome(index.fit_tvdi_edges, ndvi, lst, 2) == \
            outcome(loop_tvdi_edges, ndvi, lst, 2)
        small = ndvi - 1e5  # at 2, hi + 1e-12 > hi: the maximum joins the last bin
        assert not outcome(loop_tvdi_edges, small, lst, 2).startswith("error")
        assert outcome(index.fit_tvdi_edges, small, lst, 2) == \
            outcome(loop_tvdi_edges, small, lst, 2)

    def test_many_bins_on_a_large_field(self):
        rng = np.random.default_rng(5)
        ndvi = rng.uniform(-0.2, 0.9, (256, 256))
        lst = 320.0 - 20.0 * ndvi + rng.normal(0.0, 2.0, ndvi.shape)
        assert outcome(index.fit_tvdi_edges, ndvi, lst, 1000) == \
            outcome(loop_tvdi_edges, ndvi, lst, 1000)
