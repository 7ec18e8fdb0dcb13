from __future__ import annotations

import numpy as np
import pytest

from geoagent.kits import statistics as st
from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import (
    FILE_HALLUCINATION,
    INVALID_PARAMETERS,
    SYSTEM_ERROR,
    TOOL_HALLUCINATION,
    ToolContext,
    ToolRegistry,
    ToolSpec,
    ParamSpec,
    build_registry,
    ok_result,
)
from geoagent.workspace import Workspace

from conftest import make_georef, write_raster


@pytest.fixture
def ctx(tmp_path):
    ws = Workspace(tmp_path)
    write_raster(tmp_path / "nir.tif", [[0.6, 0.4]], geo=make_georef())
    write_raster(tmp_path / "red.tif", [[0.2, 0.4]], geo=make_georef())
    write_raster(tmp_path / "scene.tif", [[1.0, 2.0]])
    return ToolContext(workspace=ws,
                       perception=MockExpertBackend([
        {"image": "scene", "task": "classify", "prompt": None,
         "result": {"label": "Forest"}},
    ], ws))


@pytest.fixture
def registry(ctx):
    return build_registry(ctx)


class TestRegistration:
    def test_catalog_size(self, registry):
        assert len(registry) >= 60

    def test_listing_sorted(self, registry):
        names = [s.name for s in registry.list_specs()]
        assert names == sorted(names)

    def test_duplicate_name_rejected(self, tmp_path):
        spec = ToolSpec(name="x", description="", params=())
        with pytest.raises(ValueError):
            ToolRegistry([(spec, lambda a: ok_result(value=1)),
                          (spec, lambda a: ok_result(value=2))], Workspace(tmp_path))

    def test_expected_tools_present(self, registry):
        for name in ("calculate_batch_ndvi", "lst_multi_channel", "mann_kendall_test",
                     "MSCN", "apply_cloud_mask", "get_filelist", "ATI",
                     "nasa_team_sea_ice_concentration", "detect_change_points",
                     "threshold_segmentation", "calc_batch_image_hotspot_tif"):
            assert name in registry


class TestClassification:
    def test_unknown_tool(self, registry):
        res = registry.call_tool("no_such_tool", {})
        assert res.is_error and res.error_class == TOOL_HALLUCINATION

    def test_missing_file(self, registry):
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["missing.tif"], "red_paths": ["red.tif"],
            "output_dir": "out"})
        assert res.is_error and res.error_class == FILE_HALLUCINATION

    def test_unknown_argument_rejected(self, registry):
        res = registry.call_tool("mean", {"data": [1, 2], "bogus": 1})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_missing_required_argument(self, registry):
        res = registry.call_tool("mean", {})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_wrong_type(self, registry):
        res = registry.call_tool("kelvin_to_celsius", {"kelvin": "300"})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_enum_violation(self, registry):
        res = registry.call_tool("calculate_mean_lst_by_ndvi", {
            "lst_paths": ["scene.tif"], "ndvi_paths": ["scene.tif"],
            "threshold": 0.2, "direction": "sideways"})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_domain_error_is_invalid_parameters(self, registry):
        res = registry.call_tool("mann_kendall_test", {"values": [1, 2]})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_wrong_array_element_type(self, registry):
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": [3], "red_paths": ["red.tif"], "output_dir": "o"})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_series_nulls_accepted_as_gaps(self, registry):
        res = registry.call_tool("sens_slope", {"values": [1.0, None, 5.0]})
        assert not res.is_error and res.value == 2.0

    def test_scalar_dataset_rejects_nulls(self, registry):
        res = registry.call_tool("mean", {"data": [1.0, None]})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_workspace_escape_is_invalid_parameters(self, registry):
        res = registry.call_tool("lst_multi_channel", {
            "band31_path": "scene.tif", "band32_path": "scene.tif",
            "output_path": "../../../etc/pwned.tif"})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_missing_mock_fixture_is_system_error(self, registry):
        res = registry.call_tool("SAM2", {"image_path": "scene.tif"})
        assert res.is_error and res.error_class == SYSTEM_ERROR

    def test_every_error_carries_one_class(self, registry):
        bad_calls = [
            ("ghost_tool", {}),
            ("mean", {"data": "not a list"}),
            ("calculate_area", {"image_path": "victor.tif"}),
        ]
        for name, args in bad_calls:
            res = registry.call_tool(name, args)
            assert res.is_error
            assert res.error_class in (TOOL_HALLUCINATION, FILE_HALLUCINATION,
                                       INVALID_PARAMETERS, SYSTEM_ERROR)


class TestDispatch:
    def test_valid_ndvi_call(self, registry, tmp_path):
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["nir.tif"], "red_paths": ["red.tif"],
            "output_dir": "q1"})
        assert not res.is_error
        assert "Result saved at" in res.text
        assert res.files and res.files[0].endswith("ndvi_nir.tif")

    def test_scalar_tool(self, registry):
        res = registry.call_tool("kelvin_to_celsius", {"kelvin": 273.15})
        assert not res.is_error and res.value == 0.0

    def test_mock_expert_classify(self, registry):
        res = registry.call_tool("MSCN", {"image_path": "scene.tif"})
        assert not res.is_error and res.value == {"label": "Forest"}

    def test_errors_are_data_not_exceptions(self, registry):
        # a long mixed sequence must never raise
        for name, args in [("nope", {}), ("mean", {"data": []}),
                           ("division", {"a": 1, "b": 0})]:
            res = registry.call_tool(name, args)
            assert res.is_error

    def test_optional_params_defaulted(self, registry):
        res = registry.call_tool("calc_batch_image_mean", {
            "image_paths": ["scene.tif"]})
        assert not res.is_error and res.value == [1.5]

    def test_georef_preserved_through_tool(self, registry, tmp_path):
        from geoagent.raster import load_raster

        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["nir.tif"], "red_paths": ["red.tif"],
            "output_dir": "geo"})
        out = load_raster(res.files[0])
        assert out.geo == make_georef()

    def test_batch_equals_per_item_kernel(self, ctx, registry, tmp_path):
        import numpy as np

        from geoagent.kits.index import INDICES, compute_index
        from geoagent.raster import load_raster

        rng = np.random.default_rng(13)
        nir_paths, red_paths = [], []
        for i in range(3):
            write_raster(tmp_path / f"bn{i}.tif", rng.uniform(0.2, 0.9, (4, 4)))
            write_raster(tmp_path / f"br{i}.tif", rng.uniform(0.05, 0.4, (4, 4)))
            nir_paths.append(f"bn{i}.tif")
            red_paths.append(f"br{i}.tif")
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": nir_paths, "red_paths": red_paths, "output_dir": "bat"})
        assert not res.is_error and len(res.files) == 3
        for i, out_path in enumerate(res.files):
            single = compute_index(INDICES["ndvi"][1],
                                   load_raster(tmp_path / f"bn{i}.tif"),
                                   load_raster(tmp_path / f"br{i}.tif"))
            assert np.array_equal(load_raster(out_path).data, single.data)

    def test_empty_batch_rejected(self, registry):
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": [], "red_paths": [], "output_dir": "x"})
        assert res.is_error and res.error_class == INVALID_PARAMETERS

    def test_tif_difference_antisymmetric(self, ctx, registry, tmp_path):
        import numpy as np

        from geoagent.raster import load_raster

        rng = np.random.default_rng(77)
        write_raster(tmp_path / "da.tif", rng.normal(size=(3, 3)))
        write_raster(tmp_path / "db.tif", rng.normal(size=(3, 3)))
        fwd = registry.call_tool("calculate_tif_difference", {
            "image_a_path": "da.tif", "image_b_path": "db.tif",
            "output_path": "d/fwd.tif"})
        rev = registry.call_tool("calculate_tif_difference", {
            "image_a_path": "db.tif", "image_b_path": "da.tif",
            "output_path": "d/rev.tif"})
        a = load_raster(fwd.files[0]).data
        b = load_raster(rev.files[0]).data
        assert np.allclose(a, -b, atol=1e-7)

    def test_subtract_is_minuend_first(self, ctx, registry, tmp_path):
        from geoagent.raster import load_raster

        write_raster(tmp_path / "sa.tif", [[5.0]])
        write_raster(tmp_path / "sb.tif", [[2.0]])
        diff = registry.call_tool("subtract", {
            "image_a_path": "sa.tif", "image_b_path": "sb.tif",
            "output_path": "d/sub.tif"})
        assert load_raster(diff.files[0]).data.ravel()[0] == 3.0
        tifd = registry.call_tool("calculate_tif_difference", {
            "image_a_path": "sa.tif", "image_b_path": "sb.tif",
            "output_path": "d/tifd.tif"})
        assert load_raster(tifd.files[0]).data.ravel()[0] == -3.0


class TestArgumentBoundary:
    """`validate_args` hands each handler its arguments as the kernels take
    them, and refuses what no kernel can take."""

    def spec(self, registry, name):
        return next(s for s in registry.list_specs() if s.name == name)

    def test_in_range_integer_stays_an_integer(self, registry):
        res = registry.call_tool("multiply", {"a": 2, "b": 3})
        assert res.value == 6 and res.text == "6"

    def test_integer_past_int64_arrives_as_a_float(self, registry):
        checked = registry.validate_args(self.spec(registry, "multiply"),
                                         {"a": 2**63, "b": -2**63 - 1})
        assert checked == {"a": 2.0**63, "b": -(2.0**63)}
        assert type(checked["a"]) is float and type(checked["b"]) is float
        assert type(registry.validate_args(self.spec(registry, "multiply"),
                                           {"a": 2**63 - 1, "b": -2**63})["a"]) is int

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_number_refused(self, registry, value):
        res = registry.call_tool("kelvin_to_celsius", {"kelvin": value})
        assert res.error_class == INVALID_PARAMETERS
        assert "expects a finite number" in res.text

    @pytest.mark.parametrize("value", [2**63, -2**63, 10**400, True])
    def test_integer_out_of_int64_refused(self, registry, value):
        res = registry.call_tool("autocorrelation_function",
                                 {"values": [1.0, 2.0, 4.0], "max_lag": value})
        assert res.error_class == INVALID_PARAMETERS
        assert res.text.startswith("argument 'max_lag' of tool autocorrelation_function "
                                   "expects ")

    def test_number_array_becomes_one_float64_array(self, registry):
        spec = self.spec(registry, "sens_slope")
        args = {"values": [1, None, 5.0], "timestamps": [0, 1, 2]}
        checked = registry.validate_args(spec, args)
        assert args == {"values": [1, None, 5.0], "timestamps": [0, 1, 2]}
        for key in args:
            assert checked[key].dtype == np.float64
        assert np.array_equal(checked["values"], [1.0, np.nan, 5.0], equal_nan=True)

    def test_numpy_scalars_still_accepted(self, registry):
        res = registry.call_tool("mean", {"data": [np.float64(1.0), 3.0]})
        assert res.value == 2.0

    @pytest.mark.parametrize("values", [[1.0, float("nan")], [1.0, float("inf")],
                                        [None, float("nan")], [1, 10**400]],
                             ids=["nan", "inf", "null_and_nan", "10**400"])
    def test_non_finite_array_element_refused(self, registry, values):
        res = registry.call_tool("sens_slope", {"values": values})
        assert res.error_class == INVALID_PARAMETERS
        assert "expects finite numbers" in res.text

    def test_type_refusal_text_unchanged(self, registry):
        res = registry.call_tool("mean", {"data": [1.0, "two", 3.0]})
        assert res.text == ("argument 'data' of tool mean expects array, "
                            'got [1.0, "two", 3.0]')

    def test_rows_become_one_array(self, registry):
        checked = registry.validate_args(self.spec(registry, "calculate_bbox_area"),
                                         {"bboxes": [[0, 0, 4, 5], [1, 1, 2, 3]]})
        assert checked["bboxes"].shape == (2, 4)
        assert registry.validate_args(self.spec(registry, "calculate_bbox_area"),
                                      {"bboxes": []})["bboxes"].shape == (0, 4)

    @pytest.mark.parametrize("tool", ["bboxes2centroids", "calculate_bbox_area",
                                      "bbox_expansion"])
    @pytest.mark.parametrize("box", [["a", 1, 2, 3], [None, 1, 2, 3], [1, 2, 3],
                                     [0, 0, 1, float("inf")], [True, 0, 1, 1]],
                             ids=["string", "null", "short", "inf", "bool"])
    def test_malformed_box_refused(self, registry, tool, box):
        args = {"bboxes": [[0, 0, 1, 1], box]}
        if tool == "bbox_expansion":
            args["radius"] = 1
        res = registry.call_tool(tool, args)
        assert res.error_class == INVALID_PARAMETERS
        assert "expects rows of 4 finite numbers" in res.text

    def test_huge_image_width_refused(self, registry):
        res = registry.call_tool("bbox_expansion", {
            "bboxes": [[0, 0, 1, 1]], "radius": 1, "image_width": 10**400,
            "image_height": 10})
        assert res.error_class == INVALID_PARAMETERS

    def test_box_tools_keep_their_values(self, registry):
        boxes = [[0, 0, 4, 4], [10, 10, 20, 21]]
        assert registry.call_tool("bboxes2centroids", {"bboxes": boxes}).value == \
            [[2.0, 2.0], [15.0, 15.5]]
        assert registry.call_tool("calculate_bbox_area", {"bboxes": boxes}).value == 436.0
        assert registry.call_tool("bbox_expansion", {
            "bboxes": boxes, "radius": 2, "image_width": 21, "image_height": 30}).value == \
            [[0.0, 0.0, 6.0, 6.0], [8.0, 8.0, 21.0, 23.0]]


# table -> (tool, its enum parameter, the table, the other arguments of a
# call, an unknown name, the refusal of that name as the parent gave it)
ENUM_TABLES = {
    "COMPARATORS": ("calculate_threshold_ratio", "comparator", st.COMPARATORS,
                    {"image_paths": ["scene.tif"], "threshold": 1.0}, "==",
                    "argument 'comparator' of tool calculate_threshold_ratio expects "
                    "one of ['>', '<', '>=', '<='], got \"==\""),
    "DIRECTIONS": ("count_images_exceeding_mean_multiplier", "direction", st.DIRECTIONS,
                   {"image_paths": ["scene.tif"], "multiplier": 1.0}, "up",
                   "argument 'direction' of tool count_images_exceeding_mean_multiplier "
                   "expects one of ['above', 'below'], got \"up\""),
    "COUNT_MODES": ("calc_batch_image_mean_threshold", "mode", st.COUNT_MODES,
                    {"image_paths": ["scene.tif"], "threshold": 1.0}, "ratio",
                    "argument 'mode' of tool calc_batch_image_mean_threshold expects "
                    "one of ['count', 'percentage'], got \"ratio\""),
    "targets": ("dual_frequency_diff", "target", {"SM": "SM", "VI": "VI", "LAI": "LAI"},
                {"band1_path": "nir.tif", "band2_path": "red.tif",
                 "output_path": "o.tif"}, "NDVI",
                "argument 'target' of tool dual_frequency_diff expects one of "
                "['SM', 'VI', 'LAI'], got \"NDVI\""),
}


@pytest.mark.parametrize("table", list(ENUM_TABLES))
class TestEnumTables:
    """An enum argument reaches its handler as the value its table maps the
    name to, and the caller's map keeps the name."""

    def test_each_name_arrives_as_its_table_value(self, registry, table):
        tool, key, values, others, _, _ = ENUM_TABLES[table]
        spec = next(s for s in registry.list_specs() if s.name == tool)
        enum = next(p for p in spec.params if p.name == key).enum
        assert enum == values
        for name in values:
            args = {**others, key: name}
            checked = registry.validate_args(spec, args)
            assert checked[key] is enum[name]
            assert args == {**others, key: name}

    def test_unknown_name_refused_as_before(self, registry, table):
        tool, key, _, others, unknown, message = ENUM_TABLES[table]
        args = {**others, key: unknown}
        res = registry.call_tool(tool, args)
        assert res.error_class == INVALID_PARAMETERS and res.text == message
        assert args == {**others, key: unknown}


@pytest.mark.parametrize("table,kit", [("COMPARATORS", "threshold_ratio"),
                                       ("DIRECTIONS", "count_images_vs_mean_multiplier"),
                                       ("COUNT_MODES", "images_mean_vs_threshold")])
def test_kit_receives_the_table_value(ctx, monkeypatch, table, kit):
    tool, key, values, others, _, _ = ENUM_TABLES[table]
    seen = []
    monkeypatch.setattr(st, kit, lambda *a, **kw: seen.append(kw[key]) or 0)
    registry = build_registry(ctx)
    for name in values:
        assert not registry.call_tool(tool, {**others, key: name}).is_error
    assert seen == list(values.values())


class TestNonFiniteResults:
    """An ok result that standard JSON cannot carry is InvalidParameters."""

    @pytest.mark.parametrize("name,args", [
        ("mean", {"data": [1e308, 1e308]}),
        ("division", {"a": 1, "b": 1e-320}),
        ("percentage_change", {"old": 1e-320, "new": 1}),
        ("centroid_distance_extremes", {"centroids": [[1e308, 0], [-1e308, 0]]}),
        ("stl_decompose", {"values": [1e308, -1e308] * 4, "period": 2}),
    ], ids=["mean", "division", "percentage_change", "centroid_distance_extremes",
            "stl_decompose"])
    def test_refused(self, registry, name, args):
        res = registry.call_tool(name, args)
        assert res.error_class == INVALID_PARAMETERS
        assert res.text == f"{name}: result is not finite"
