"""`scenes` workload: a generated suite of large-scene tasks replayed with
the replay policy at parallelism = nproc.

Each pass replays the whole suite once, in task id order, the way
`bench.runner.run_benchmark` does at that parallelism: `runner.run_task` per
task over a pool of nproc threads. The pool is the benchmark's own so that
each task is timed from outside the package, from the call into `run_task`
to its return, scoring included. The suite's
composition is fixed; the seed sets pixel values and georeference. Ground
truth is frozen once per run with `bench.annotate.annotate_from_plan`, and
every frozen answer must also match the one `_oracle` computes from the
inputs, so a change to a kernel's output fails the gate even though the
replays still match the frozen ground truth.
"""

from __future__ import annotations

import json
import math
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import harness, tiff

# name -> (dtype, deflate, bands, value range)
SCENES = {
    "nir_a": ("u16", False, 1, (3000, 8000)),
    "red_a": ("u16", True, 1, (500, 3000)),
    "blue_a": ("u16", False, 1, (300, 1500)),
    "nir_b": ("f32", True, 1, (0.3, 0.8)),
    "red_b": ("f32", False, 1, (0.05, 0.3)),
    "swir_b": ("f32", True, 1, (0.1, 0.4)),
    "sr_dn": ("u16", True, 1, (9000, 42000)),
    "qa_pixel": ("u16", False, 1, None),
    "b31": ("f32", False, 1, (290.0, 310.0)),
    "b32": ("f32", True, 1, (288.0, 307.0)),
    "stack_u16": ("u16", False, 4, (100, 20000)),
    "stack_f32": ("f32", True, 4, (0.0, 1.0)),
}


def _field(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Smooth field on a coarse grid plus pixel noise, within [lo, hi]."""
    cell = max(n // 32, 1)
    coarse = rng.uniform(lo, hi, (n // cell + 1, n // cell + 1))
    smooth = np.repeat(np.repeat(coarse, cell, 0), cell, 1)[:n, :n]
    return np.clip(smooth + rng.normal(0.0, (hi - lo) * 0.05, (n, n)), lo, hi)


def _plans() -> list[dict]:
    """Two variants of each of seven plan templates (14 tasks)."""
    def d(name):
        return f"data/{name}.tif"

    plans = []
    for v in (0, 1):
        tid = f"ndvi_{v}"
        nir, red = (["nir_a", "nir_b"], ["red_a", "red_b"]) if v == 0 \
            else (["nir_b"], ["red_b"])
        plans.append({"id": tid, "steps": [
            ("calculate_batch_ndvi", {"nir_paths": [d(x) for x in nir],
                                      "red_paths": [d(x) for x in red],
                                      "output_dir": tid}),
            ("calc_batch_image_mean", {"image_paths": [f"{tid}/ndvi_{x}.tif"
                                                       for x in nir]}),
        ], "answer_path": [0]})

        tid = f"evi_{v}"
        plans.append({"id": tid, "steps": [
            ("calculate_batch_evi", {"nir_paths": [d("nir_a")], "red_paths": [d("red_a")],
                                     "blue_paths": [d("blue_a")], "output_dir": tid}),
            ("calc_batch_image_median", {"image_paths": [f"{tid}/evi_nir_a.tif"]}),
        ], "answer_path": [0]})

        tid = f"ndwi_{v}"
        plans.append({"id": tid, "steps": [
            ("calculate_batch_ndwi", {"nir_paths": [d("nir_b")], "swir_paths": [d("swir_b")],
                                      "output_dir": tid}),
            ("get_percentile_value_from_image",
             {"image_path": f"{tid}/ndwi_nir_b.tif", "percentile": 75.0 + 15 * v}),
        ], "answer_path": None})

        tid = f"sr_{v}"
        plans.append({"id": tid, "steps": [
            ("radiometric_correction_sr", {"band_path": d("sr_dn"),
                                           "output_path": f"{tid}/refl.tif"}),
            ("apply_cloud_mask", {"band_path": f"{tid}/refl.tif",
                                  "qa_pixel_path": d("qa_pixel"),
                                  "output_path": f"{tid}/masked.tif"}),
            ("get_percentile_value_from_image",
             {"image_path": f"{tid}/masked.tif", "percentile": 50.0 + 40 * v}),
        ], "answer_path": None})

        tid = f"lst_{v}"
        plans.append({"id": tid, "steps": [
            ("lst_multi_channel", {"band31_path": d("b31"), "band32_path": d("b32"),
                                   "output_path": f"{tid}/lst.tif"}),
            ("calc_batch_image_median", {"image_paths": [f"{tid}/lst.tif"]}),
        ], "answer_path": [0]})

        tid = f"diff_{v}"
        a, b = ("red_b", "nir_b") if v == 0 else ("b32", "b31")
        plans.append({"id": tid, "steps": [
            ("calculate_tif_difference", {"image_a_path": d(a), "image_b_path": d(b),
                                          "output_path": f"{tid}/diff.tif"}),
            ("calc_batch_image_mean", {"image_paths": [f"{tid}/diff.tif"]}),
        ], "answer_path": [0]})

        tid = f"stack_{v}"
        plans.append({"id": tid, "steps": [
            ("calc_batch_image_mean", {"image_paths": [d("stack_u16"), d("stack_f32")],
                                       "band": 2 + v}),
            ("get_percentile_value_from_image",
             {"image_path": d("stack_f32"), "percentile": 90.0, "band": 3 + v}),
        ], "answer_path": None})
    return plans


def _oracle(s: dict[str, np.ndarray]) -> dict[str, float]:
    """Each task's answer computed here from the decoded inputs, from the
    published formulas, independently of the package. Float64 arithmetic;
    every saved intermediate rounds to float32 as the package's rasters do."""
    def band(name, k=0):
        return s[name][k].astype(np.float64)

    def f32(x):
        return x.astype(np.float32).astype(np.float64)

    def ratio(num, den):
        with np.errstate(divide="ignore", invalid="ignore"):
            return f32(np.where(den == 0.0, np.nan, num / den))

    def valid(x):
        return x[~np.isnan(x)]

    def nd(a, b):
        return ratio(band(a) - band(b), band(a) + band(b))

    qa = s["qa_pixel"][0]
    cloudy = np.zeros(qa.shape, dtype=bool)
    for bit in (1, 2, 3, 4):  # dilated cloud, cirrus, cloud, shadow
        cloudy |= (qa >> bit) & 1 == 1
    refl = f32(np.clip(2.75e-5 * band("sr_dn") - 0.2, 0.0, 1.0))
    masked = valid(f32(np.where(cloudy, np.nan, refl)))
    nir, red, blue = band("nir_a"), band("red_a"), band("blue_a")
    evi = ratio(2.5 * (nir - red), nir + 6.0 * red - 7.5 * blue + 1.0)
    b31, b32 = band("b31"), band("b32")
    lst = f32(1.022 * b31 + 0.47 * (b31 - b32) + 0.43)
    out = {}
    for v in (0, 1):
        out[f"ndvi_{v}"] = float(valid(nd("nir_a", "red_a") if v == 0
                                       else nd("nir_b", "red_b")).mean())
        out[f"evi_{v}"] = float(np.median(valid(evi)))
        out[f"ndwi_{v}"] = float(np.percentile(valid(nd("nir_b", "swir_b")), 75.0 + 15 * v))
        out[f"sr_{v}"] = float(np.percentile(masked, 50.0 + 40 * v))
        out[f"lst_{v}"] = float(np.median(valid(lst)))
        a, b = ("red_b", "nir_b") if v == 0 else ("b32", "b31")
        out[f"diff_{v}"] = float(valid(f32(band(b) - band(a))).mean())
        out[f"stack_{v}"] = float(np.percentile(band("stack_f32", 2 + v), 90.0))
    return out


def generate(work: Path, seed: int, tiny: bool) -> dict:
    """Write the scenes and the task plans; returns a description for the record."""
    n = 64 if tiny else 2048
    rng = np.random.default_rng(seed)
    data = work / "ws" / "data"
    data.mkdir(parents=True)
    geo = tiff.georef(300000.0 + 30.0 * int(rng.integers(0, 10000)),
                      4000000.0 + 30.0 * int(rng.integers(0, 10000)), 30.0)
    sizes, stored = {}, {}
    for name, (dtype, deflate, bands, span) in SCENES.items():
        if span is None:  # QA band: cloud, cirrus and shadow bits on ~20% of pixels
            bits = np.array([1, 2, 3, 4], dtype=np.uint16)
            flags = rng.uniform(size=(n, n)) < 0.2
            values = np.where(flags, 1 << bits[rng.integers(0, 4, (n, n))], 0)
            values = (values | (1 << 6)).astype(np.uint16)
        else:
            values = np.stack([_field(rng, n, *span) for _ in range(bands)])
        sizes[name] = tiff.write(data / f"{name}.tif", values, dtype, geo, deflate,
                                 rows_per_strip=256 if deflate else None)
        stored[name] = tiff.read(data / f"{name}.tif")[0]
    plans = _plans()
    (work / "plans.json").write_text(json.dumps(plans))
    (work / "expected.json").write_text(json.dumps(_oracle(stored)))
    return {"scene_px": n, "tasks": len(plans), "file_bytes": sum(sizes.values())}


def run(work: Path, seconds: float, tracer, nproc: int) -> dict:
    """Freeze ground truth from the plans, then replay the suite in passes."""
    from geoagent.bench import annotate_from_plan, load_suite, runner, save_task
    from geoagent.bench.schema import TaskSpec
    from geoagent.cli import make_context
    from geoagent.tools import build_registry

    ws_root = work / "ws"
    ctx = make_context(str(ws_root))
    registry = build_registry(ctx)
    tasks_dir = work / "tasks"
    tasks_dir.mkdir(exist_ok=True)
    for p in json.loads((work / "plans.json").read_text()):
        gt = annotate_from_plan([tuple(s) for s in p["steps"]], registry, ctx.workspace,
                                answer_path=p["answer_path"])
        save_task(TaskSpec(id=p["id"], modality="Spectrum",
                           query_ap=f"Scene task {p['id']}: report the requested value.",
                           query_if=f"Scene task {p['id']}: run the plan and report "
                                    "its value.",
                           data_dir="data", answer_rule={"kind": "numeric", "rel_tol": 1e-9},
                           ground_truth=gt), tasks_dir / f"{p['id']}.json")
    tasks = load_suite(tasks_dir, workspace_root=ws_root, registry=registry)
    # a task whose frozen answer misses the independent one fails every replay
    expected = json.loads((work / "expected.json").read_text())
    wrong = sorted(t.id for t in tasks if not math.isclose(
        t.ground_truth.answer_value, expected[t.id], rel_tol=1e-9, abs_tol=1e-12))
    files = harness.output_files(tasks)
    frozen = harness.raster_digest(ws_root, files)

    def make_state():
        ctx = make_context(str(ws_root))
        return ctx, build_registry(ctx)

    def one_pass(state):
        ctx, registry = state

        def one(task):
            t0 = perf_counter()
            try:
                record, score = runner.run_task(task, registry, ctx.workspace,
                                                runner.replay_factory, "AutoPlanning")
                bad = harness.replay_bad(task, record, score)
            except Exception:  # counted as a failed task; the pass goes on
                traceback.print_exc()
                bad = True
            return [t0, perf_counter()], bad

        with ThreadPoolExecutor(max_workers=nproc) as pool:
            done = list(pool.map(one, tasks))
        return len(tasks), [span for span, _ in done], sum(bad for _, bad in done) + len(wrong)

    out = harness.run_passes(make_state, one_pass, seconds, tracer)
    out["digests"] = {"answers": harness.answer_digest(tasks), "rasters": frozen}
    out["gate_ok"] = harness.raster_digest(ws_root, files) == frozen
    out["wrong_answers"] = wrong
    out["parallelism"] = nproc
    return out
