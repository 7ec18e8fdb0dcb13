"""Execute every registered tool with plausible arguments: once with the
required parameters only, and once more with every optional one filled too.

The sweep asserts that no tool hits an unclassified failure path: every call
either succeeds or returns a deliberate, classified rejection. A SystemError
here would mean a handler bug (unwired argument, raw exception), and a
FileHallucination would mean the fixture workspace is incomplete.

It also pins what each call produced against `data/catalog_sweep_outputs.json`:
the error class, or a digest of the value (workspace root masked) and of
every output raster's decoded samples, dtype, shape, nodata and georeference
tags. Message text is left out. The digests depend on numpy's floating-point
results; after a deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_catalog_sweep.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from geoagent.kits.perception import MockExpertBackend
from geoagent.raster import load_raster
from geoagent.tools import ToolContext, build_registry
from geoagent.tools.catalog import catalog_rows
from geoagent.workspace import Workspace

from conftest import make_georef, write_raster

SERIES = [1.0, 3.0, 2.0, 6.0, 4.0, 8.0, 5.0, 9.0]

# per-tool argument overrides where generic guesses would be semantically off
OVERRIDES = {
    "compute_tvdi": {"ndvi_path": "src/ndvi.tif", "lst_path": "src/t1.tif",
                     "bins": 4},
    "radiometric_correction_sr": {"band_path": "src/dn.tif"},
    "apply_cloud_mask": {"band_path": "src/a.tif",
                         "qa_pixel_path": "src/qa.tif"},
    "calculate_mean_lst_by_ndvi": {"lst_paths": ["src/t1.tif"],
                                   "ndvi_paths": ["src/ndvi.tif"],
                                   "threshold": 0.3},
    "calculate_max_lst_by_ndvi": {"lst_paths": ["src/t1.tif"],
                                  "ndvi_paths": ["src/ndvi.tif"],
                                  "threshold": 0.3},
    "temperature_emissivity_separation": {
        "band_paths": ["src/t1.tif", "src/t2.tif", "src/t3.tif"]},
    "ttm_lst": {"band_paths": ["src/t1.tif", "src/t2.tif", "src/t3.tif"]},
    "multi_freq_bt": {"band_paths": ["src/t1.tif", "src/t2.tif"]},
    "stl_decompose": {"values": SERIES + SERIES, "period": 4},
    "average_ratio_exceeding_threshold": {"threshold": 0.3,
                                          "ratio_threshold": 0.0},
    "count_images_exceeding_threshold_ratio": {"threshold": 0.3, "ratio": 0.0},
    "calc_batch_image_mean_threshold": {"threshold": 0.3},
    "identify_fire_prone_areas": {"hotspot_map_path": "src/a.tif",
                                  "percentile": 50.0},
    "calculate_band_mean_by_condition": {"target_path": "src/a.tif",
                                         "condition_path": "src/b.tif",
                                         "comparator": ">", "threshold": 0.2},
    "calc_threshold_value_mean": {"path1": "src/a.tif", "path2": "src/b.tif",
                                  "threshold": 0.2},
    "calculate_intersection_percentage": {"image_a_path": "src/a.tif",
                                          "image_b_path": "src/b.tif",
                                          "threshold_a": 0.2,
                                          "threshold_b": 0.2},
    "calc_extreme_snow_loss_percentage_from_binary_map": {
        "binary_map_path": "src/mask.tif"},
    "analyze_hotspot_direction": {"image_path": "src/mask.tif"},
    "count_skeleton_contours": {"image_path": "src/mask.tif"},
    "get_filelist": {"directory": "src"},
    "calculate_water_turbidity_ntu": {"red_band_path": "src/refl.tif"},
    "lst_single_channel": {"bt_path": "src/t1.tif", "red_path": "src/b.tif",
                           "nir_path": "src/a.tif"},
    "band_ratio": {"absorption_band_path": "src/refl.tif",
                   "window_band_path": "src/b.tif"},
    "chang_single_param_inversion": {"tb_18h_path": "src/t1.tif",
                                     "tb_37h_path": "src/t2.tif"},
    "nasa_team_sea_ice_concentration": {"tb_19v_path": "src/t1.tif",
                                        "tb_19h_path": "src/t2.tif",
                                        "tb_37v_path": "src/t3.tif"},
    "modis_day_night_lst": {"day_path": "src/t1.tif",
                            "night_path": "src/night.tif"},
    "ATI": {"albedo_path": "src/refl.tif", "day_temp_path": "src/t1.tif",
            "night_temp_path": "src/night.tif"},
    "create_fire_increase_map": {"before_path": "src/t2.tif",
                                 "after_path": "src/t1.tif"},
    "percentage_change": {"old": 2.0, "new": 3.0},
    "get_list_object_via_indexes": {"items": ["a", "b"], "indexes": [0]},
    "MSCN": {"image_path": "src/scene.tif"},
    "RemoteCLIP": {"image_path": "src/scene.tif"},
    "SM3Det": {"image_path": "src/scene.tif", "prompt": "plane"},
    "Strip_R_CNN": {"image_path": "src/scene.tif", "prompt": "ship"},
    "RemoteSAM": {"image_path": "src/scene.tif", "prompt": "the pier"},
    "InstructSAM": {"image_path": "src/scene.tif", "prompt": "storage tank"},
    "SAM2": {"image_path": "src/scene.tif"},
    "ChangeOS": {"pre_image_path": "src/scene.tif",
                 "post_image_path": "src/scene.tif"},
}

MANIFEST = [
    {"image": "scene", "task": "classify", "prompt": None,
     "result": {"label": "Port"}},
    {"image": "scene", "task": "detect", "prompt": "plane",
     "result": {"boxes": [[0, 0, 3, 3]]}},
    {"image": "scene", "task": "detect", "prompt": "ship",
     "result": {"boxes": [[1, 1, 4, 4]]}},
    {"image": "scene", "task": "ground", "prompt": "the pier",
     "result": {"box": [0, 2, 5, 5]}},
    {"image": "scene", "task": "count", "prompt": "storage tank",
     "result": {"count": 3}},
    {"image": "scene", "task": "segment", "prompt": None,
     "result": {"mask_threshold": 0.5}},
    {"image": "scene", "task": "change", "prompt": None,
     "result": {"mask_threshold": 0.5}},
]


# a sample argument per path kind; outputs are named after the tool
PATH_VALUES = {"file": "src/a.tif", "dir": "src", "out_file": "sweep/{}.tif",
               "out_dir": "sweep_{}"}

# every string (or string-array) parameter that is not a path
NON_PATH_STRINGS = {"comparator", "comparator_a", "comparator_b", "direction",
                    "mode", "pattern", "prompt", "target"}


def generic_value(tool_name: str, param):
    name = param.name
    if param.kind == "files":
        return ["src/a.tif"]
    if param.kind is not None:
        return PATH_VALUES[param.kind].format(tool_name)
    if param.enum is not None:
        return next(iter(param.enum))
    if param.type == "string":
        return "x"
    if param.type == "integer":
        return {"max_lag": 3, "period": 4, "kernel_radius": 1, "bins": 4,
                "band": 1}.get(name, 1)
    if param.type == "number":
        return {"percentile": 50.0, "threshold": 0.3, "radius": 1.0,
                "multiplier": 1.0, "kelvin": 300.0, "celsius": 20.0,
                "penalty": 2.0, "alpha": 0.05, "value": 2.5}.get(name, 1.0)
    if param.type == "boolean":
        return False
    if param.type == "array":
        if name == "values" or name == "data":
            return list(SERIES)
        if name == "timestamps":
            return [float(i) for i in range(len(SERIES))]
        if name == "bboxes":
            # valid under both corner and width/height conventions
            return [[0, 0, 4, 4], [10, 10, 20, 20]]
        if name == "centroids":
            return [[0.0, 0.0], [3.0, 4.0]]
        if name == "conditions":
            return [{"band": 1, "comparator": ">", "value": 0.2}]
        if name == "coefficients":
            return None  # optional; skip
        return [1.0]
    return {}


GOLDEN = Path(__file__).parent / "data" / "catalog_sweep_outputs.json"


def make_sweep_registry(tmp: Path, side: int = 6):
    """The sweep's registry over a fresh workspace in `tmp`, and the
    workspace root as the tools report it. The input rasters are `side`
    pixels on a side, but for `mask.tif`, at least 8, and `odd.tif`, whose
    grid matches none of the others."""
    ws = Workspace(tmp)
    rng = np.random.default_rng(12)
    geo = make_georef()
    shape = (side, side)
    d = tmp / "src"
    d.mkdir()
    write_raster(d / "a.tif", rng.uniform(0.1, 0.9, shape), geo=geo)
    write_raster(d / "b.tif", rng.uniform(0.1, 0.9, shape), geo=geo)
    write_raster(d / "ndvi.tif", np.linspace(0.1, 0.9, side * side).reshape(shape), geo=geo)
    write_raster(d / "t1.tif", rng.uniform(290, 310, shape), geo=geo)
    write_raster(d / "t2.tif", rng.uniform(289, 309, shape), geo=geo)
    write_raster(d / "t3.tif", rng.uniform(289, 309, shape), geo=geo)
    write_raster(d / "night.tif", rng.uniform(275, 284, shape), geo=geo)
    write_raster(d / "dn.tif", rng.integers(8000, 40000, shape), dtype="u16",
                 geo=geo)
    write_raster(d / "qa.tif", rng.integers(0, 2, shape) << 3, dtype="u16",
                 geo=geo)
    write_raster(d / "refl.tif", rng.uniform(0.01, 0.15, shape), geo=geo)
    write_raster(d / "mask.tif", rng.integers(0, 2, (max(side, 8),) * 2), dtype="u8",
                 geo=geo)
    write_raster(d / "scene.tif", rng.uniform(0.0, 1.0, shape), geo=geo)
    write_raster(d / "odd.tif", rng.uniform(0.1, 0.9, (3, 5)), geo=geo)
    registry = build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend(MANIFEST, ws)))
    return registry, str(ws.root)


@pytest.fixture(scope="module")
def sweep_env(tmp_path_factory):
    return make_sweep_registry(tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def sweep_registry(sweep_env):
    return sweep_env[0]


@pytest.fixture(scope="module")
def sweep_outputs(sweep_env):
    return sweep(*sweep_env)


def build_args(registry, name: str, optional: bool = False) -> dict:
    spec = next(s for s in registry.list_specs() if s.name == name)
    args = {}
    for param in spec.params:
        if not param.required and not optional:
            continue
        value = generic_value(name, param)
        if value is not None:
            args[param.name] = value
    args.update(OVERRIDES.get(name, {}))
    return args


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_record(result, root: str) -> dict:
    """What a call produced, as the golden file pins it."""
    if result.is_error:
        return {"error": result.error_class}
    files = []
    for path in result.files:
        r = load_raster(path)
        files.append({
            "path": path.replace(root, "<ws>"),
            "dtype": r.dtype_name,
            "shape": list(r.data.shape),
            "nodata": repr(r.nodata),
            "samples": _sha256(r.data.tobytes()),
            "geo": _sha256(repr(r.geo.tags).encode()),
        })
    value = json.dumps(result.value, sort_keys=True).replace(root, "<ws>")
    return {"value": _sha256(value.encode()), "files": files}


def sweep(registry, root: str) -> dict:
    """{pass: {tool: output record}} for the required-only and the
    all-optional pass; each record is taken before the next call runs."""
    passes = {}
    for label, optional in (("required", False), ("optional", True)):
        passes[label] = {
            spec.name: output_record(registry.call_tool(
                spec.name, build_args(registry, spec.name, optional)), root)
            for spec in registry.list_specs()}
    return passes


def test_every_tool_executes_cleanly(sweep_outputs):
    outcomes = {n: rec.get("error", "ok") for n, rec in sweep_outputs["required"].items()}
    bad = {n: c for n, c in outcomes.items() if c != "ok"}
    assert bad == {}, f"tools not cleanly executable: {bad}"
    assert len(outcomes) == 103

    # With every optional parameter filled too, generic values may be
    # rejected deliberately, but an optional argument the handler passes on
    # under a name the kit does not accept shows up as a SystemError.
    outcomes = {n: rec.get("error", "ok") for n, rec in sweep_outputs["optional"].items()}
    bad = {n: c for n, c in outcomes.items() if c not in ("ok", "InvalidParameters")}
    assert bad == {}, f"tools failing with optional arguments: {bad}"


@pytest.mark.parametrize("label", ["required", "optional"])
def test_outputs_match_golden(sweep_outputs, label):
    golden = json.loads(GOLDEN.read_text())[label]
    got = sweep_outputs[label]
    assert sorted(got) == sorted(golden)
    changed = sorted(n for n in golden if got[n] != golden[n])
    assert changed == [], f"outputs differ from {GOLDEN.name}: {changed}"


ROWS = catalog_rows(ToolContext(workspace=None, perception=None))


def test_every_non_path_string_is_known():
    # a path parameter whose name breaks the naming rule would get no kind
    # and reach its kit unresolved
    strings = {p.name for t in ROWS for p in t.params
               if p.kind is None and "string" in (p.type, p.item_type)}
    assert strings == NON_PATH_STRINGS


# the rows with a handler of their own: the expert models call a backend,
# `ttm_lst` reports its non-converged pixels and `stl_decompose` its sample
# count in the result text; a row that only converts an argument belongs to
# the registry instead
OWN_HANDLERS = {"MSCN", "RemoteCLIP", "SM3Det", "Strip_R_CNN", "RemoteSAM",
                "InstructSAM", "SAM2", "ChangeOS", "ttm_lst", "stl_decompose"}


def test_own_handler_rows_are_the_listed_ones():
    assert {t.name for t in ROWS if t.handler is not None} == OWN_HANDLERS


def _raster_inputs(tool) -> list:
    return [p for p in tool.params if p.kind in ("file", "files")]


# `like=` rows hand the kit bare arrays; those reading two or more rasters
# (several path parameters, or a list of paths) can meet mismatched grids
LIKE_ROWS = [t for t in ROWS if t.like is not None
             and (len(_raster_inputs(t)) > 1
                  or any(p.kind == "files" for p in _raster_inputs(t)))]


@pytest.mark.parametrize("tool", LIKE_ROWS, ids=lambda t: t.name)
def test_like_rows_reject_mismatched_grids(sweep_registry, tool):
    args = build_args(sweep_registry, tool.name)
    last = _raster_inputs(tool)[-1].name
    args[last] = (args[last][:-1] + ["src/odd.tif"] if isinstance(args[last], list)
                  else "src/odd.tif")
    result = sweep_registry.call_tool(tool.name, args)
    assert result.error_class == "InvalidParameters", result.text
    assert "grids differ" in result.text


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = sweep(*make_sweep_registry(Path(tmp)))
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
