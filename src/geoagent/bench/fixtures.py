"""Self-contained mini-benchmark: 12 synthetic tasks, 4 per modality, with
generated imagery, a mock perception manifest, and executed ground truth.

Everything is produced from one seed, so the suite (task files included) is
bit-reproducible. Output paths are prefixed by task id, which keeps parallel
episodes on disjoint files inside one shared workspace root.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from ..kits.perception import MOCK_MANIFEST, MockExpertBackend
from ..raster import GeoRef, from_array, save_raster
from ..tools import ToolContext, ToolRegistry, build_registry
from ..workspace import Workspace
from .annotate import annotate_from_plan
from .schema import TaskSpec, save_task

SUITE_SEED = 7


def default_georef() -> GeoRef:
    scale = np.array([30.0, 30.0, 0.0], dtype="<f8").tobytes()
    tie = np.array([0.0, 0.0, 0.0, 500010.0, 4650000.0, 0.0], dtype="<f8").tobytes()
    keys = np.array([1, 1, 0, 1, 3072, 0, 1, 32633], dtype="<u2").tobytes()
    return GeoRef(tags=((33550, 12, scale), (33922, 12, tie), (34735, 3, keys)))


def write_png(path: Path, array: np.ndarray) -> None:
    """Write an 8-bit grayscale or RGB PNG (filter 0, no interlace)."""
    if array.ndim == 2:
        array = array[:, :, np.newaxis]
    h, w, channels = array.shape
    color_type = {1: 0, 3: 2}[channels]
    raw = b"".join(b"\x00" + array[y].tobytes() for y in range(h))

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                     + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


class _SuiteBuilder:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.workspace = Workspace(root)
        self.manifest: list[dict] = []
        self.tasks: list[TaskSpec] = []
        self.registry: ToolRegistry | None = None
        self.series_p3: list[float] = []

    def data_dir(self, task_id: str) -> Path:
        d = self.root / "data" / task_id
        d.mkdir(parents=True, exist_ok=True)
        return d

    def save_tif(self, path: Path, values, dtype="f32") -> None:
        save_raster(from_array(values, dtype=dtype, geo=default_georef()), path)

    def finish_task(self, task_id: str, modality: str, query_ap: str,
                    query_if: str, plan: list[tuple[str, dict]],
                    answer_rule: dict, answer_path: list | None = None) -> None:
        gt = annotate_from_plan(plan, self.registry, self.workspace,
                                answer_path=answer_path)
        task = TaskSpec(
            id=task_id, modality=modality, query_ap=query_ap, query_if=query_if,
            data_dir=f"data/{task_id}", answer_rule=answer_rule, ground_truth=gt,
        )
        tasks_dir = self.root / "tasks"
        tasks_dir.mkdir(exist_ok=True)
        save_task(task, tasks_dir / f"{task_id}.json")
        self.tasks.append(task)

    def call(self, tool: str, args: dict):
        """Execute a plan step during construction to learn its value."""
        result = self.registry.call_tool(tool, args)
        if result.is_error:
            raise RuntimeError(f"fixture step {tool} failed: {result.text}")
        return result.value

    def rel(self, path: str) -> str:
        """A path a step returned, relative to the suite root."""
        return Path(path).relative_to(self.root).as_posix()


def generate_fixture_suite(root: str | Path, seed: int = SUITE_SEED) -> list[TaskSpec]:
    b = _SuiteBuilder(Path(root).resolve(), seed)
    _write_spectrum_data(b)
    _write_products_data(b)
    _write_rgb_data(b)
    (b.root / MOCK_MANIFEST).write_text(
        json.dumps(b.manifest, indent=2, sort_keys=True) + "\n")
    b.registry = build_registry(ToolContext(
        workspace=b.workspace,
        perception=MockExpertBackend(b.manifest, b.workspace)))
    _build_spectrum_tasks(b)
    _build_products_tasks(b)
    _build_rgb_tasks(b)
    return b.tasks


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def _write_spectrum_data(b: _SuiteBuilder) -> None:
    d = b.data_dir("s1_ndvi_mean")
    for i in range(3):
        nir = b.rng.uniform(0.3, 0.8, (8, 8))
        red = b.rng.uniform(0.05, 0.3, (8, 8))
        b.save_tif(d / f"nir_t{i}.tif", nir)
        b.save_tif(d / f"red_t{i}.tif", red)

    d = b.data_dir("s2_lst_median_c")
    b31 = 300.0 + b.rng.normal(0, 2.0, (10, 10))
    b32 = b31 - b.rng.uniform(0.5, 2.5, (10, 10))
    b.save_tif(d / "b31.tif", b31)
    b.save_tif(d / "b32.tif", b32)

    d = b.data_dir("s3_sr_cloud_ratio")
    dn = b.rng.integers(9000, 42000, (12, 12))
    qa = np.zeros((12, 12), dtype=int)
    cloudy = b.rng.uniform(size=(12, 12)) < 0.25
    qa[cloudy] = 1 << 3
    b.save_tif(d / "sr_b4_dn.tif", dn, dtype="u16")
    b.save_tif(d / "qa_pixel.tif", qa, dtype="u16")

    d = b.data_dir("s4_pwv_p90")
    window = b.rng.uniform(0.3, 0.6, (9, 9))
    tau = b.rng.uniform(0.55, 0.95, (9, 9))
    b.save_tif(d / "band19_absorption.tif", window * tau)
    b.save_tif(d / "band2_window.tif", window)


def _write_products_data(b: _SuiteBuilder) -> None:
    d = b.data_dir("p1_monthly_trend")
    for i in range(12):
        grid = 10.0 + 0.4 * i + b.rng.normal(0, 0.3, (6, 6))
        b.save_tif(d / f"month_{i:02d}.tif", grid)

    d = b.data_dir("p2_hotspot_direction")
    heat = b.rng.uniform(40.0, 60.0, (15, 15))
    heat[0:4, 5:10] -= 35.0  # cool cluster due north of center
    b.save_tif(d / "heat.tif", heat)

    d = b.data_dir("p3_series_events")
    series = np.concatenate([
        b.rng.normal(5.0, 0.2, 14), b.rng.normal(15.0, 0.2, 14)]).round(3)
    (d / "series.json").write_text(json.dumps({"values": series.tolist()}))
    b.series_p3 = series.tolist()

    d = b.data_dir("p4_ati_area")
    albedo = b.rng.uniform(0.1, 0.5, (10, 10))
    day = 305.0 + b.rng.normal(0, 1.5, (10, 10))
    night = day - b.rng.uniform(8.0, 18.0, (10, 10))
    b.save_tif(d / "albedo.tif", albedo)
    b.save_tif(d / "day_temp.tif", day)
    b.save_tif(d / "night_temp.tif", night)


def _write_rgb_data(b: _SuiteBuilder) -> None:
    d = b.data_dir("r1_classify")
    rgb = b.rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
    write_png(d / "scene_r1.png", rgb)
    b.manifest.append({"image": "scene_r1", "task": "classify", "prompt": None,
                       "result": {"label": "Airport"}})

    d = b.data_dir("r2_detect_extremes")
    write_png(d / "scene_r2.png",
              b.rng.integers(0, 256, (24, 24, 3)).astype(np.uint8))
    b.manifest.append({
        "image": "scene_r2", "task": "detect", "prompt": "plane",
        "result": {"boxes": [[2, 2, 8, 8], [14, 4, 20, 12], [4, 16, 10, 22]]},
    })

    d = b.data_dir("r3_count")
    write_png(d / "scene_r3.png",
              b.rng.integers(0, 256, (16, 16, 3)).astype(np.uint8))
    b.manifest.append({"image": "scene_r3", "task": "count",
                       "prompt": "storage tank", "result": {"count": 7}})

    d = b.data_dir("r4_change_area")
    pre = b.rng.integers(20, 120, (14, 14))
    post = pre.copy()
    post[3:9, 3:9] += 100
    b.save_tif(d / "pre_r4.tif", pre, dtype="u8")
    b.save_tif(d / "post_r4.tif", np.clip(post, 0, 255), dtype="u8")
    b.manifest.append({"image": "pre_r4", "task": "change", "prompt": None,
                       "result": {"mask_threshold": 60.0}})


# ---------------------------------------------------------------------------
# task construction (plans are executed while being built)
# ---------------------------------------------------------------------------


def _build_spectrum_tasks(b: _SuiteBuilder) -> None:
    tid = "s1_ndvi_mean"
    nir = [f"data/{tid}/nir_t{i}.tif" for i in range(3)]
    red = [f"data/{tid}/red_t{i}.tif" for i in range(3)]
    ndvi_step = ("calculate_batch_ndvi", {"nir_paths": nir, "red_paths": red, "output_dir": tid})
    plan = [
        ndvi_step,
        ("calc_batch_image_mean_mean",
         {"image_paths": [b.rel(p) for p in b.call(*ndvi_step)]}),
    ]
    b.finish_task(
        tid, "Spectrum",
        query_ap="Across the three scenes in the data folder, what is the "
                 "average NDVI over all acquisitions? Answer with one number.",
        query_if="Compute NDVI for each of the three NIR/Red scene pairs in "
                 "the data folder, then average the per-scene mean NDVI "
                 "values. Steps: 1) calculate_batch_ndvi on the three pairs; "
                 "2) calc_batch_image_mean_mean over the three NDVI rasters. "
                 "Answer with one number.",
        plan=plan, answer_rule={"kind": "numeric", "rel_tol": 1e-2},
    )

    tid = "s2_lst_median_c"
    lst_out = f"{tid}/lst.tif"
    plan = [
        ("lst_multi_channel", {"band31_path": f"data/{tid}/b31.tif",
                               "band32_path": f"data/{tid}/b32.tif",
                               "output_path": lst_out}),
        ("get_percentile_value_from_image",
         {"image_path": lst_out, "percentile": 50.0}),
    ]
    b.call(*plan[0])
    median_k = b.call(*plan[1])
    plan.append(("kelvin_to_celsius", {"kelvin": median_k}))
    b.finish_task(
        tid, "Spectrum",
        query_ap="Estimate the land surface temperature from the two thermal "
                 "bands in the data folder and report the median value in "
                 "degrees Celsius.",
        query_if="Estimate land surface temperature from b31.tif and b32.tif "
                 "with the two-band (multi-channel) method, take the median "
                 "(50th percentile) of the LST raster, and convert it from "
                 "Kelvin to Celsius. Steps: 1) lst_multi_channel; "
                 "2) get_percentile_value_from_image at percentile 50; "
                 "3) kelvin_to_celsius. Answer with one number.",
        plan=plan, answer_rule={"kind": "numeric", "rel_tol": 1e-2},
    )

    tid = "s3_sr_cloud_ratio"
    refl, masked = f"{tid}/refl.tif", f"{tid}/masked.tif"
    plan = [
        ("radiometric_correction_sr",
         {"band_path": f"data/{tid}/sr_b4_dn.tif", "output_path": refl}),
        ("apply_cloud_mask",
         {"band_path": refl, "qa_pixel_path": f"data/{tid}/qa_pixel.tif",
          "output_path": masked}),
        ("calculate_threshold_ratio",
         {"image_paths": [masked], "threshold": 0.3}),
    ]
    b.finish_task(
        tid, "Spectrum",
        query_ap="After radiometric correction and cloud masking, what "
                 "percentage of valid pixels in the surface-reflectance band "
                 "exceeds reflectance 0.3?",
        query_if="Apply the surface-reflectance scaling to sr_b4_dn.tif, mask "
                 "clouds with qa_pixel.tif, then compute the percentage of "
                 "valid pixels above 0.3. Steps: 1) radiometric_correction_sr; "
                 "2) apply_cloud_mask; 3) calculate_threshold_ratio with "
                 "threshold 0.3. Answer with one number.",
        plan=plan, answer_rule={"kind": "numeric", "rel_tol": 1e-2},
    )

    tid = "s4_pwv_p90"
    pwv = f"{tid}/pwv.tif"
    plan = [
        ("band_ratio", {"absorption_band_path": f"data/{tid}/band19_absorption.tif",
                        "window_band_path": f"data/{tid}/band2_window.tif",
                        "output_path": pwv}),
        ("get_percentile_value_from_image",
         {"image_path": pwv, "percentile": 90.0}),
    ]
    b.finish_task(
        tid, "Spectrum",
        query_ap="Retrieve precipitable water vapor from the absorption and "
                 "window bands in the data folder and report its 90th "
                 "percentile.",
        query_if="Compute the PWV image from band19_absorption.tif and "
                 "band2_window.tif with the band-ratio method, then take the "
                 "90th percentile. Steps: 1) band_ratio; "
                 "2) get_percentile_value_from_image at percentile 90. "
                 "Answer with one number.",
        plan=plan, answer_rule={"kind": "numeric", "rel_tol": 1e-2},
    )


def _build_products_tasks(b: _SuiteBuilder) -> None:
    tid = "p1_monthly_trend"
    paths = [f"data/{tid}/month_{i:02d}.tif" for i in range(12)]
    means = b.call("calc_batch_image_mean", {"image_paths": paths})
    plan = [
        ("calc_batch_image_mean", {"image_paths": paths}),
        ("mann_kendall_test", {"values": means}),
        ("sens_slope", {"values": means}),
    ]
    b.finish_task(
        tid, "Products",
        query_ap="Is there a monotonic trend in the monthly mean values of "
                 "the 12 rasters in the data folder, and what is its robust "
                 "slope per month? Answer with the slope.",
        query_if="Compute the per-image mean of the 12 monthly rasters, run "
                 "the Mann-Kendall test on the monthly means, then estimate "
                 "the robust slope. Steps: 1) calc_batch_image_mean; "
                 "2) mann_kendall_test; 3) sens_slope. Answer with the slope.",
        plan=plan, answer_rule={"kind": "numeric", "rel_tol": 1e-2},
    )

    tid = "p2_hotspot_direction"
    hotspot_step = ("calc_batch_image_hotspot_tif", {
        "image_paths": [f"data/{tid}/heat.tif"], "threshold": 20.0, "output_dir": tid})
    plan = [
        hotspot_step,
        ("analyze_hotspot_direction", {"image_path": b.rel(b.call(*hotspot_step)[0])}),
    ]
    b.finish_task(
        tid, "Products",
        query_ap="In which cardinal direction relative to the image center do "
                 "the low-temperature pixels (below 20) of heat.tif cluster?",
        query_if="Build a binary hotspot map of heat.tif marking pixels below "
                 "20, then find the dominant cardinal direction of the "
                 "hotspots. Steps: 1) calc_batch_image_hotspot_tif with "
                 "threshold 20; 2) analyze_hotspot_direction. Answer with the "
                 "direction letter.",
        plan=plan, answer_rule={"kind": "string"}, answer_path=["direction"],
    )

    tid = "p3_series_events"
    series = b.series_p3
    plan = [
        ("detect_change_points", {"values": series, "penalty": 5.0}),
        ("count_spikes_from_values", {"values": series, "threshold": 3.0}),
    ]
    b.finish_task(
        tid, "Products",
        query_ap="For the value series stored in the data folder, how many "
                 "upward jumps larger than 3 are there between consecutive "
                 "samples? Also locate any mean shifts first.",
        query_if="Detect mean-shift change points in the series (penalty 5), "
                 "then count consecutive increases larger than 3. Steps: "
                 "1) detect_change_points; 2) count_spikes_from_values with "
                 "threshold 3. Answer with the spike count.",
        plan=plan, answer_rule={"kind": "numeric", "abs_tol": 1e-9},
    )

    tid = "p4_ati_area"
    ati_out, seg_out = f"{tid}/ati.tif", f"{tid}/ati_mask.tif"
    plan = [
        ("ATI", {"albedo_path": f"data/{tid}/albedo.tif",
                 "day_temp_path": f"data/{tid}/day_temp.tif",
                 "night_temp_path": f"data/{tid}/night_temp.tif",
                 "output_path": ati_out}),
        ("threshold_segmentation",
         {"image_path": ati_out, "threshold": 0.05, "output_path": seg_out}),
        ("calculate_area", {"image_path": seg_out}),
    ]
    b.finish_task(
        tid, "Products",
        query_ap="How many pixels have apparent thermal inertia above 0.05, "
                 "given the albedo and day/night temperature rasters in the "
                 "data folder?",
        query_if="Compute apparent thermal inertia from albedo.tif, "
                 "day_temp.tif and night_temp.tif, threshold the result at "
                 "0.05, and count the selected pixels. Steps: 1) ATI; "
                 "2) threshold_segmentation at 0.05; 3) calculate_area. "
                 "Answer with the pixel count.",
        plan=plan, answer_rule={"kind": "numeric", "abs_tol": 1e-9},
    )


def _build_rgb_tasks(b: _SuiteBuilder) -> None:
    tid = "r1_classify"
    plan = [("MSCN", {"image_path": f"data/{tid}/scene_r1.png"})]
    b.finish_task(
        tid, "RGB",
        query_ap="What land-use category does the scene in the data folder "
                 "show?",
        query_if="Classify scene_r1.png with the scene classifier and report "
                 "the label. Steps: 1) MSCN. Answer with the label.",
        plan=plan, answer_rule={"kind": "string"}, answer_path=["label"],
    )

    tid = "r2_detect_extremes"
    detection = b.call("SM3Det", {"image_path": f"data/{tid}/scene_r2.png",
                                  "prompt": "plane"})
    centroids = b.call("bboxes2centroids", {"bboxes": detection["boxes"]})
    plan = [
        ("SM3Det", {"image_path": f"data/{tid}/scene_r2.png", "prompt": "plane"}),
        ("bboxes2centroids", {"bboxes": detection["boxes"]}),
        ("centroid_distance_extremes", {"centroids": centroids}),
    ]
    b.finish_task(
        tid, "RGB",
        query_ap="Detect the planes in the scene and report the distance "
                 "between the two that are farthest apart.",
        query_if="Detect planes in scene_r2.png, convert the boxes to "
                 "centroids, and find the farthest pair distance. Steps: "
                 "1) SM3Det with prompt 'plane'; 2) bboxes2centroids; "
                 "3) centroid_distance_extremes. Answer with the distance.",
        plan=plan, answer_rule={"kind": "numeric", "rel_tol": 1e-2},
        answer_path=["farthest", "distance"],
    )

    tid = "r3_count"
    plan = [("InstructSAM", {"image_path": f"data/{tid}/scene_r3.png",
                             "prompt": "storage tank"})]
    b.finish_task(
        tid, "RGB",
        query_ap="How many storage tanks are visible in the scene?",
        query_if="Count the storage tanks in scene_r3.png with the "
                 "instruction-guided counter. Steps: 1) InstructSAM with "
                 "prompt 'storage tank'. Answer with the count.",
        plan=plan, answer_rule={"kind": "numeric", "abs_tol": 1e-9},
        answer_path=["count"],
    )

    tid = "r4_change_area"
    change_step = ("ChangeOS", {"pre_image_path": f"data/{tid}/pre_r4.tif",
                                "post_image_path": f"data/{tid}/post_r4.tif"})
    plan = [
        change_step,
        ("calculate_area", {"image_path": b.rel(b.call(*change_step)["mask"])}),
    ]
    b.finish_task(
        tid, "RGB",
        query_ap="How large, in pixels, is the changed area between the two "
                 "epochs in the data folder?",
        query_if="Run change detection on pre_r4.tif and post_r4.tif, then "
                 "count the nonzero pixels of the change mask. Steps: "
                 "1) ChangeOS; 2) calculate_area on the mask. Answer with the "
                 "pixel count.",
        plan=plan, answer_rule={"kind": "numeric", "abs_tol": 1e-9},
    )
