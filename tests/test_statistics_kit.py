from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent.errors import InvalidInputError, MissingFileError
from geoagent.kits import statistics as stats
from geoagent.raster import from_array

from conftest import write_raster


class TestScalarStats:
    def test_mean(self):
        assert stats.mean([2, 4, 6]) == 4.0

    def test_symmetric_skewness_zero(self):
        assert stats.skewness([1, 2, 3]) == 0.0

    def test_normal_sample_excess_kurtosis_near_zero(self):
        rng = np.random.default_rng(100)
        sample = rng.normal(size=20000)
        assert abs(stats.kurtosis(sample)) < 0.2

    def test_cv_scale_invariant(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert abs(stats.coefficient_of_variation([3 * v for v in x])
                   - stats.coefficient_of_variation(x)) < 1e-12

    def test_cv_zero_mean(self):
        with pytest.raises(InvalidInputError):
            stats.coefficient_of_variation([-1.0, 1.0])

    def test_zero_variance_guards(self):
        with pytest.raises(InvalidInputError):
            stats.skewness([2.0, 2.0, 2.0])
        with pytest.raises(InvalidInputError):
            stats.kurtosis([2.0, 2.0, 2.0, 2.0])


class TestBatchImageStats:
    def test_mean_order_preserving(self):
        imgs = [from_array([[3.0]]), from_array([[5.0]])]
        assert stats.batch_image_stat(imgs, stats.IMAGE_STATS["mean"]) == [3.0, 5.0]

    def test_even_count_median(self):
        img = from_array([[1.0, 2.0], [3.0, 4.0]])
        assert stats.batch_image_stat([img], stats.IMAGE_STATS["median"]) == [2.5]

    def test_matches_flatten_oracle(self):
        rng = np.random.default_rng(12)
        imgs = [from_array(rng.normal(size=(4, 4))) for _ in range(3)]
        for stat, fn in [("mean", np.mean), ("std", np.std), ("min", np.min),
                         ("max", np.max), ("sum", np.sum), ("median", np.median)]:
            got = stats.batch_image_stat(imgs, stats.IMAGE_STATS[stat])
            want = [float(fn(i.data.astype(np.float64).ravel())) for i in imgs]
            assert np.allclose(got, want, atol=1e-6)

    def test_nodata_excluded(self):
        img = from_array([[1.0, -9.0]], nodata=-9.0)
        assert stats.batch_image_stat([img], stats.IMAGE_STATS["mean"]) == [1.0]

    def test_empty_batch(self):
        with pytest.raises(InvalidInputError):
            stats.batch_image_stat([], stats.IMAGE_STATS["mean"])


class TestBatchAggregate:
    """The calc_batch_image_mean_* tools, which reduce per-image statistics."""

    @staticmethod
    def call(registry, workspace, tool, grids):
        paths = []
        for i, grid in enumerate(grids):
            write_raster(workspace.root / f"img{i}.tif", grid)
            paths.append(f"img{i}.tif")
        result = registry.call_tool(tool, {"image_paths": paths})
        assert not result.is_error, result.text
        return result.value

    def test_mean_of_means(self, tool_registry, workspace):
        assert self.call(tool_registry, workspace, "calc_batch_image_mean_mean",
                         [[[1.0]], [[3.0]]]) == 2.0

    def test_triple(self, tool_registry, workspace):
        a = np.linspace(0, 5, 6).reshape(2, 3)
        b = np.linspace(2, 9, 6).reshape(2, 3)
        out = self.call(tool_registry, workspace, "calc_batch_image_mean_max_min", [a, b])
        assert out["max_of_maxes"] == 9.0 and out["min_of_mins"] == 0.0
        assert abs(out["mean_of_means"] - np.mean([2.5, 5.5])) < 1e-9

    def test_single_image_degenerates(self, tool_registry, workspace):
        for tool in ("calc_batch_image_mean_mean", "calc_batch_image_mean_max"):
            assert self.call(tool_registry, workspace, tool, [[[2.0, 4.0]]]) == 3.0


class TestThresholdQueries:
    def test_hotspot_percentage_strict(self):
        img = from_array([[1.0, 5.0, 9.0]])
        (pct,) = stats.hotspot_percentages([img], 5.0)
        assert abs(pct - 100.0 / 3.0) < 1e-9

    def test_hotspot_map_below_rule(self):
        img = from_array([[1.0, 5.0, 9.0]])
        out = stats.hotspot_map(img, 5.0)
        assert out.data.ravel().tolist() == [1, 0, 0]

    def test_multi_band_and_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 10, size=(2, 4, 4))
        img = from_array(data)
        conds = [
            {"band": 1, "comparator": ">", "value": 4.0},
            {"band": 2, "comparator": "<", "value": 7.0},
        ]
        got = stats.count_pixels_satisfying(img, conds)
        want = int(np.count_nonzero((data[0] > 4.0) & (data[1] < 7.0)))
        assert got == want
        pct = stats.multi_band_threshold_ratio(img, conds)
        assert abs(pct - 100.0 * want / 16) < 1e-9

    def test_count_images_exceeding_ratio(self):
        low = from_array([[0.0, 0.0, 10.0]])   # 33% above 5
        high = from_array([[10.0, 10.0, 0.0]])  # 67% above 5
        n = stats.count_images_exceeding_ratio([low, high], threshold=5.0, ratio=50.0)
        assert n == 1

    def test_average_ratio_exceeding(self):
        low = from_array([[0.0, 0.0, 10.0]])
        high = from_array([[10.0, 10.0, 0.0]])
        got = stats.average_ratio_exceeding([low, high], 5.0, ratio_threshold=50.0)
        assert abs(got - 200.0 / 3.0) < 1e-9

    def test_images_vs_mean_multiplier(self):
        imgs = [from_array([[1.0]]), from_array([[2.0]]), from_array([[9.0]])]
        # overall mean of means = 4; strict comparisons on both sides
        assert stats.count_images_vs_mean_multiplier(imgs, 2.0, np.greater) == 1
        assert stats.count_images_vs_mean_multiplier(imgs, 0.5, np.less) == 1
        assert stats.count_images_vs_mean_multiplier(imgs, 0.75, np.less) == 2

    def test_fire_pixel_counts(self):
        img = from_array([[0.0, 7.0], [8.0, 2.0]])
        assert stats.fire_pixel_counts([img], 5.0) == [2]

    def test_fire_increase_map(self):
        before = from_array([[1.0, 1.0]])
        after = from_array([[5.0, 1.5]])
        out = stats.fire_increase_map(before, after, 2.0)
        assert out.data.ravel().tolist() == [1, 0]

    def test_fire_prone_areas_percentile(self):
        img = from_array([[1.0, 2.0, 3.0, 4.0]])
        out = stats.fire_prone_areas(img, 75.0)
        # 75th percentile of [1,2,3,4] = 3.25 -> only 4 selected
        assert out.data.ravel().tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("percentile", [-0.5, 100.5, float("nan")])
    def test_fire_prone_areas_percentile_out_of_range(self, percentile):
        with pytest.raises(InvalidInputError, match="percentile"):
            stats.fire_prone_areas(from_array([[1.0, 2.0]]), percentile)


class TestConditionalStats:
    def test_condition_selects_all(self):
        target = from_array([[2.0, 4.0]])
        cond = from_array([[1.0, 1.0]])
        got = stats.band_mean_by_condition(target, cond, np.greater, 0.0)
        assert got == 3.0

    def test_intersection_disjoint_zero(self):
        a = from_array([[1.0, 0.0]])
        b = from_array([[0.0, 1.0]])
        got = stats.intersection_percentage(a, b, 0.5, 0.5, np.greater, np.greater)
        assert got == 0.0

    def test_threshold_value_mean_oracle(self):
        rng = np.random.default_rng(8)
        sel = rng.uniform(0, 1, (4, 4))
        tgt = rng.normal(size=(4, 4))
        got = stats.threshold_value_mean(from_array(sel), from_array(tgt), 0.5)
        mask = from_array(sel).band() > 0.5
        want = float(from_array(tgt).band()[mask].mean())
        assert abs(got - want) < 1e-9

    def test_division_mean_skips_zero_denominator(self):
        num = from_array([[6.0, 5.0]])
        den = from_array([[2.0, 0.0]])
        assert stats.image_division_mean(num, den) == 3.0

    def test_empty_selection(self):
        with pytest.raises(InvalidInputError):
            stats.band_mean_by_condition(from_array([[1.0]]), from_array([[0.0]]),
                                         np.greater, 5.0)


class TestScalarUtils:
    def test_difference_absolute(self):
        assert stats.difference(3.0, 10.0) == 7.0

    def test_division_guard(self):
        with pytest.raises(InvalidInputError):
            stats.division(1.0, 0.0)

    def test_percentage_change(self):
        assert stats.percentage_change(50.0, 75.0) == 50.0

    def test_percentage_change_zero_base(self):
        with pytest.raises(InvalidInputError):
            stats.percentage_change(0.0, 5.0)

    def test_kelvin_celsius_round_trip(self):
        assert stats.kelvin_to_celsius(273.15) == 0.0
        assert stats.celsius_to_kelvin(stats.kelvin_to_celsius(300.0)) == 300.0

    def test_max_min_with_index(self):
        assert stats.max_with_index([3, 9, 1]) == (9.0, 1)
        assert stats.min_with_index([3, 9, 1]) == (1.0, 2)

    def test_ceil(self):
        assert stats.ceil_number(2.1) == 3

    def test_list_select(self):
        assert stats.list_select(["a", "b", "c"], [2, 0]) == ["c", "a"]
        with pytest.raises(InvalidInputError):
            stats.list_select(["a"], [4])


class TestImageUtils:
    def test_percentile_linear_interpolation(self):
        img = from_array([[1.0, 2.0], [3.0, 4.0]])
        assert stats.percentile_value(img, 50.0) == 2.5

    def test_percentile_extremes(self):
        rng = np.random.default_rng(2)
        img = from_array(rng.normal(size=(5, 5)))
        vals = img.samples().astype(np.float64)
        assert stats.percentile_value(img, 0.0) == float(vals.min())
        assert stats.percentile_value(img, 100.0) == float(vals.max())

    def test_area_nonzero(self):
        assert stats.area_nonzero(from_array(np.zeros((3, 3)))) == 0
        assert stats.area_nonzero(from_array([[0.0, 2.0, 3.0]])) == 2

    def test_colormap_shape_and_determinism(self):
        img = from_array(np.linspace(0, 1, 16).reshape(4, 4))
        a = stats.grayscale_to_colormap(img)
        b = stats.grayscale_to_colormap(img)
        assert a.bands == 3 and a.data.dtype == np.uint8
        assert np.array_equal(a.data, b.data)

    def test_get_filelist_sorted(self, tmp_path):
        (tmp_path / "b.tif").write_bytes(b"x")
        (tmp_path / "a.tif").write_bytes(b"x")
        (tmp_path / "c.json").write_bytes(b"x")
        assert stats.get_filelist(tmp_path) == ["a.tif", "b.tif", "c.json"]
        assert stats.get_filelist(tmp_path, "*.tif") == ["a.tif", "b.tif"]

    def test_get_filelist_missing_dir(self, tmp_path):
        with pytest.raises(MissingFileError):
            stats.get_filelist(tmp_path / "nope")


class TestLandsatPreprocessing:
    @pytest.mark.parametrize("dn,expected", [
        (7273, 2.75e-5 * 7273 - 0.2),
        (21818, 2.75e-5 * 21818 - 0.2),
    ])
    def test_sr_scaling(self, dn, expected):
        img = from_array([[dn]], dtype="u16")
        out = stats.radiometric_correction_sr(img)
        assert abs(float(out.data.ravel()[0]) - expected) < 1e-6

    def test_sr_clamps(self):
        img = from_array([[0, 65535]], dtype="u16")
        out = stats.radiometric_correction_sr(img).data.ravel()
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sr_wrong_dtype(self):
        with pytest.raises(InvalidInputError):
            stats.radiometric_correction_sr(from_array([[0.5]], dtype="f32"))

    def test_cloud_mask_zero_qa_identity(self):
        band = from_array([[1.0, 2.0]])
        qa = from_array([[0, 0]], dtype="u16")
        out = stats.apply_cloud_mask(band, qa)
        assert out.data.ravel().tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("bit", [1, 2, 3, 4])
    def test_cloud_bits_masked(self, bit):
        band = from_array([[1.0, 2.0]])
        qa = from_array([[1 << bit, 0]], dtype="u16")
        out = stats.apply_cloud_mask(band, qa)
        assert np.isnan(out.data.ravel()[0]) and out.data.ravel()[1] == 2.0

    def test_unrelated_bits_ignored(self):
        band = from_array([[1.0]])
        qa = from_array([[1 << 6]], dtype="u16")
        out = stats.apply_cloud_mask(band, qa)
        assert out.data.ravel()[0] == 1.0

    def test_mask_idempotent(self):
        band = from_array([[1.0, 2.0, 3.0]])
        qa = from_array([[8, 0, 16]], dtype="u16")
        once = stats.apply_cloud_mask(band, qa)
        twice = stats.apply_cloud_mask(once, qa)
        assert np.array_equal(np.isnan(once.data), np.isnan(twice.data))
        assert np.array_equal(once.data[~np.isnan(once.data)],
                              twice.data[~np.isnan(twice.data)])


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=20),
           st.floats(0.1, 10.0))
    def test_cv_scale_invariance_property(self, xs, c):
        base = stats.coefficient_of_variation(xs)
        scaled = stats.coefficient_of_variation([c * v for v in xs])
        assert abs(base - scaled) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_percentages_bounded(self, seed):
        rng = np.random.default_rng(seed)
        img = from_array(rng.uniform(0, 10, (3, 3)))
        (pct,) = stats.hotspot_percentages([img], 5.0)
        assert 0.0 <= pct <= 100.0


@pytest.mark.parametrize("tool", ["calculate_multi_band_threshold_ratio",
                                  "count_pixels_satisfying_conditions"])
@pytest.mark.parametrize("condition", [
    {}, {"value": "a"}, {"value": None}, {"value": float("nan")}, {"value": 10**400},
    {"value": True}, {"value": 1, "band": "x"}, {"value": 1, "band": 1.5},
    {"value": 1, "band": True}, {"value": 1, "comparator": "=="},
    {"value": 1, "comparator": [">"]},
], ids=["empty", "str_value", "null_value", "nan_value", "huge_value", "bool_value",
        "str_band", "float_band", "bool_band", "bad_comparator", "list_comparator"])
def test_malformed_condition_is_invalid_parameters(tool_registry, workspace, tool,
                                                   condition):
    write_raster(workspace.root / "two.tif", np.ones((2, 3, 3)))
    result = tool_registry.call_tool(tool, {"image_path": "two.tif",
                                            "conditions": [condition]})
    assert result.error_class == "InvalidParameters"
    assert "a condition needs a finite number value" in result.text


def test_condition_with_integer_value_and_band(tool_registry, workspace):
    write_raster(workspace.root / "two.tif", np.stack([np.ones((2, 2)), 3 * np.eye(2)]))
    result = tool_registry.call_tool("count_pixels_satisfying_conditions", {
        "image_path": "two.tif", "conditions": [{"value": 2, "band": 2}]})
    assert result.value == 2
