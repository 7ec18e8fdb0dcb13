"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from geoagent.agent import Goal, LLMPolicy, ScriptedPolicy, ToolCallDecision, \
    Trajectory, run_episode
from geoagent.bench import (
    GroundTruth,
    GtStep,
    TaskSpec,
    generate_fixture_suite,
    load_record,
    load_suite,
    run_benchmark,
    run_task,
    save_record,
)
from geoagent.evaluation import (
    count_errors,
    parameter_accuracy,
    score_trajectory,
    tool_exact_match,
    tools_any_order,
    tools_in_order,
)
from geoagent.kits import analysis as an
from geoagent.kits import inversion as inv
from geoagent.kits import perception as perc
from geoagent.kits.perception import MockExpertBackend
from geoagent.raster import from_array, load_raster
from geoagent.tools import ToolContext, build_registry
from geoagent.tools.mcp import McpServer
from geoagent.workspace import Workspace

from conftest import make_georef, segmentation_cost, write_raster
from mcp_wire import McpClient, tcp_server
from test_mcp_server import GOLDEN_DIR
from test_raster import store


@contextmanager
def criterion(number: int, name: str):
    started = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - started
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number} [{name}]: {status} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_suite")
    tasks = generate_fixture_suite(root)
    ws = Workspace(root)
    registry = build_registry(ToolContext(
        workspace=ws,
        perception=MockExpertBackend(
            json.loads((root / "mock_manifest.json").read_text()), ws)))
    return root, tasks, registry, ws


# -------------------------------------------------------------------------
# 1. metric formulas vs brute force, 1000 random pairs, < 10 s
# -------------------------------------------------------------------------


def _tio_bruteforce(pred, gt):
    best = 0
    for k in range(len(gt), 0, -1):
        for combo in itertools.combinations(range(len(pred)), k):
            if all(pred[j] == gt[i] for i, j in enumerate(combo)):
                best = k
                break
        if best:
            break
    return best / len(gt)


def test_criterion_1_metric_oracles():
    with criterion(1, "metric-formula oracle suite, 1000 pairs"):
        started = time.monotonic()
        rng = np.random.default_rng(20240)
        vocab = [f"t{i}" for i in range(6)]
        arg_pool = [{"a": 1}, {"a": 2}, {"b": [1, 2]}, {}]
        for _ in range(1000):
            # expert trajectories never repeat a tool: the exact-match <=
            # in-order <= any-order chain only holds for duplicate-free
            # ground truth (the any-order score collapses repeats)
            m = int(rng.integers(1, 9))
            gt = list(rng.choice(vocab, size=min(m, len(vocab)), replace=False))
            n = int(rng.integers(0, 9))
            pred = list(rng.choice(vocab, size=n, replace=True))
            gt_steps = [(t, arg_pool[rng.integers(0, 4)]) for t in gt]
            pred_steps = [(t, arg_pool[rng.integers(0, 4)]) for t in pred]

            tao = tools_any_order(pred, gt)
            tio = tools_in_order(pred, gt)
            tem = tool_exact_match(pred, gt)
            pa = parameter_accuracy(pred_steps, gt_steps)

            # brute-force evaluations of the formulas
            assert tao == len(set(gt) & set(pred)) / len(set(gt))
            assert tio == _tio_bruteforce(pred, gt)
            lcp = 0
            for p, g in zip(pred, gt):
                if p != g:
                    break
                lcp += 1
            assert tem == lcp / len(gt)
            k = 0
            for (pn, pa_args), (gn, ga) in zip(pred_steps, gt_steps):
                if pn != gn or pa_args != ga:
                    break
                k += 1
            assert pa == k / len(gt)

            assert tem <= tio <= tao
            assert pa <= tem
        assert time.monotonic() - started < 10.0


# -------------------------------------------------------------------------
# 2. full-loop identity on the fixture suite, < 60 s
# -------------------------------------------------------------------------


def test_criterion_2_full_loop_identity(tmp_path):
    with criterion(2, "annotate -> replay -> eval full-loop identity"):
        started = time.monotonic()
        root = tmp_path / "loop_suite"
        tasks = generate_fixture_suite(root)  # includes plan annotation
        ws = Workspace(root)
        registry = build_registry(ToolContext(
            workspace=ws,
            perception=MockExpertBackend(
                json.loads((root / "mock_manifest.json").read_text()), ws)))
        assert len(tasks) == 12
        loaded = load_suite(root / "tasks", workspace_root=root, registry=registry)
        for regime in ("AutoPlanning", "InstructionFollowing"):
            result = run_benchmark(loaded, registry, ws, regime=regime)
            assert not result.failures
            for s in result.scores:
                assert s.acc == 1, s.task_id
                assert s.eff == 1.0, s.task_id
                assert s.tao == s.tio == s.tem == s.param_acc == 1.0, s.task_id
            report = result.report_json()
            assert report["overall"]["means"]["accuracy"] == 100.0
            assert report["overall"]["means"]["efficiency"] == 1.0
        assert time.monotonic() - started < 60.0


# -------------------------------------------------------------------------
# 3. numerical kernels vs independent oracles
# -------------------------------------------------------------------------


def test_criterion_3_numerical_kernels():
    with criterion(3, "numerical kernels vs oracles"):
        rng = np.random.default_rng(99)

        # Mann-Kendall: exact S and tie-corrected variance vs all-pairs
        for _ in range(25):
            x = rng.integers(0, 6, size=int(rng.integers(4, 20))).astype(float).tolist()
            res = an.mann_kendall(x)
            s = sum((x[j] > x[i]) - (x[j] < x[i])
                    for i in range(len(x)) for j in range(i + 1, len(x)))
            counts = {}
            for v in x:
                counts[v] = counts.get(v, 0) + 1
            corr = sum(q * (q - 1) * (2 * q + 5) for q in counts.values())
            n = len(x)
            var = (n * (n - 1) * (2 * n + 5) - corr) / 18.0
            assert res.s == s
            assert res.var_s == var

        # Sen's slope: exact pairwise-median enumeration
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(2, 16)))
            slopes = [(x[j] - x[i]) / (j - i)
                      for i in range(len(x)) for j in range(i + 1, len(x))]
            assert an.sens_slope(x) == float(np.median(slopes))

        # PELT: equal total cost vs exhaustive segmentation for n <= 16
        def exhaustive_cost(x, penalty, min_seg=2):
            n = len(x)

            def seg(s, t):
                seg_vals = x[s:t]
                m = sum(seg_vals) / len(seg_vals)
                return sum((v - m) ** 2 for v in seg_vals)

            best = math.inf
            positions = range(min_seg, n - min_seg + 1)
            for k in range(0, n // min_seg):
                for cut in itertools.combinations(positions, k):
                    bounds = [0, *cut, n]
                    if any(b - a < min_seg for a, b in zip(bounds, bounds[1:])):
                        continue
                    c = sum(seg(a, b) for a, b in zip(bounds, bounds[1:])) \
                        + penalty * k
                    best = min(best, c)
            return best

        for _ in range(20):
            n = int(rng.integers(4, 17))
            x = np.where(np.arange(n) < n // 2, 0.0, rng.uniform(0, 8)) \
                + rng.normal(0, 0.5, n)
            penalty = float(rng.uniform(0.5, 10.0))
            got = segmentation_cost(
                x, an.detect_change_points(x.tolist(), penalty), penalty)
            want = exhaustive_cost(x.tolist(), penalty)
            assert abs(got - want) < 1e-9

        # ACF vs direct double loop
        x = rng.normal(size=60)
        rho = an.acf(x, 15)
        mean = x.mean()
        denom = float(((x - mean) ** 2).sum())
        for k in range(16):
            direct = sum((x[t] - mean) * (x[t + k] - mean)
                         for t in range(60 - k)) / denom
            assert abs(rho[k] - direct) <= 1e-12

        # Gi* on 5x5 vs the direct formula
        grid = rng.normal(size=(5, 5))
        z = an.gi_star_zscores(grid, 1)
        flat = grid.ravel()
        gmean = flat.mean()
        gs = math.sqrt((flat ** 2).mean() - gmean ** 2)
        npix = flat.size
        for i in range(5):
            for j in range(5):
                wsum = cnt = 0.0
                for y in range(5):
                    for xx in range(5):
                        if abs(y - i) <= 1 and abs(xx - j) <= 1:
                            wsum += grid[y, xx]
                            cnt += 1
                den = gs * math.sqrt((npix * cnt - cnt * cnt) / (npix - 1))
                assert abs(z[i, j] - (wsum - gmean * cnt) / den) <= 1e-9

        # STL reconstruction identity
        t = np.arange(96)
        series = 2.0 * np.sin(2 * np.pi * t / 12) + 0.03 * t \
            + rng.normal(0, 0.4, 96)
        dec = an.stl_decompose(series, period=12)
        assert np.max(np.abs(series - (dec.trend + dec.seasonal + dec.residual))) \
            <= 1e-9

        # OLS slope vs closed form
        y = rng.normal(size=40)
        fit = an.linear_trend(y)
        xs = np.arange(40.0)
        slope = ((40 * (xs * y).sum() - xs.sum() * y.sum())
                 / (40 * (xs * xs).sum() - xs.sum() ** 2))
        assert abs(fit.slope - slope) <= 1e-12


# -------------------------------------------------------------------------
# 4. paper-anchored constants
# -------------------------------------------------------------------------


def test_criterion_4_anchored_constants():
    with criterion(4, "anchored formula constants"):
        lst = inv.multi_channel_lst(np.array([300.0]), np.array([298.0]))
        assert abs(lst[0] - 307.97) < 1e-9
        assert (inv.MULTI_CHANNEL_A, inv.MULTI_CHANNEL_B, inv.MULTI_CHANNEL_C) \
            == (1.022, 0.47, 0.43)

        ati = inv.ati(np.array([0.2]), np.array([310.0]), np.array([290.0]))
        assert abs(ati[0] - 0.04) < 1e-12

        pr = inv.polarization_ratio(np.array([260.0]), np.array([240.0]))
        assert abs(pr[0] - 0.04) < 1e-12

        seg = perc.threshold_segmentation(from_array([[1.0, 5.0, 9.0]]), 5.0)
        assert seg.data.ravel().tolist() == [0, 0, 255]
        assert set(np.unique(seg.data)) <= {0, 255}


# -------------------------------------------------------------------------
# 5. MCP conformance: goldens + wire/in-process equivalence
# -------------------------------------------------------------------------


def test_criterion_5_mcp_conformance(tmp_path):
    with criterion(5, "MCP wire conformance"):
        ws = Workspace(tmp_path)
        write_raster(tmp_path / "img.tif", [[1.0, 2.0], [3.0, 4.0]])
        registry = build_registry(ToolContext(
            workspace=ws, perception=MockExpertBackend([], ws)))
        server = McpServer(registry)

        for golden_path in sorted(GOLDEN_DIR.glob("*.json")):
            doc = json.loads(golden_path.read_text())
            response = server.handle_line(json.dumps(doc["request"]))
            assert response == doc["expected_response"], golden_path.name

        # the three error classes over the wire
        for args, expected_class in (
            ({"name": "not_a_tool", "arguments": {}}, "ToolHallucination"),
            ({"name": "calculate_area",
              "arguments": {"image_path": "nope.tif"}}, "FileHallucination"),
            ({"name": "mean", "arguments": {"data": 3}}, "InvalidParameters"),
        ):
            out = server.handle_line(json.dumps(
                {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                 "params": args}))["result"]
            assert out["isError"] is True
            assert out["structured"]["error_class"] == expected_class

        # 50 randomized calls: wire result equals in-process result
        with tcp_server(tmp_path) as (_, port):
            client = McpClient("127.0.0.1", port)
            try:
                rng = np.random.default_rng(7)
                calls = [
                    lambda: ("kelvin_to_celsius",
                             {"kelvin": float(rng.uniform(250, 320))}),
                    lambda: ("mean", {"data": rng.uniform(0, 5, 4).tolist()}),
                    lambda: ("calculate_area", {"image_path": "img.tif"}),
                    lambda: ("sens_slope", {"values": rng.normal(size=6).tolist()}),
                    lambda: ("ghost", {}),
                    lambda: ("division", {"a": 1.0, "b": 0.0}),
                    lambda: ("calculate_area", {"image_path": "missing.tif"}),
                ]
                for _ in range(50):
                    name, args = calls[rng.integers(0, len(calls))]()
                    wire = client.request(
                        "tools/call", {"name": name, "arguments": args})["result"]
                    local = registry.call_tool(name, args)
                    assert wire["isError"] == local.is_error
                    assert wire["content"][0]["text"] == local.text
                    structured = wire.get("structured", {})
                    if local.error_class:
                        assert structured["error_class"] == local.error_class
                    if local.value is not None:
                        assert structured["value"] == local.value
            finally:
                client.close()


# -------------------------------------------------------------------------
# 6. error-taxonomy histogram from an adversarial policy
# -------------------------------------------------------------------------


def test_criterion_6_error_taxonomy(tmp_path):
    with criterion(6, "five-class error taxonomy histogram"):
        ws = Workspace(tmp_path)
        write_raster(tmp_path / "ok.tif", [[1.0, 2.0]])
        registry = build_registry(ToolContext(
            workspace=ws, perception=MockExpertBackend([], ws)))
        adversarial = ScriptedPolicy([
            ToolCallDecision("invented_tool", {}),                     # ToolHallucination
            ToolCallDecision("calculate_area",
                             {"image_path": "phantom.tif"}),           # FileHallucination
            ToolCallDecision("mean", {"data": "not-a-list"}),          # InvalidParameters
            ToolCallDecision("SAM2", {"image_path": "ok.tif"}),        # SystemError (no fixture)
        ])
        goal = Goal(query="break things", regime="AutoPlanning")
        trajectory = run_episode(goal, adversarial, registry, max_steps=4)
        assert trajectory.stop_reason == "max_steps"
        # the same histogram from the live trajectory and, through scoring,
        # from its persisted file
        task = TaskSpec(id="adversarial", modality="RGB", query_ap="break things",
                        query_if="break things", data_dir=".", answer_rule={},
                        ground_truth=GroundTruth(
                            steps=(GtStep("calculate_area", {"image_path": "ok.tif"}, {}),),
                            answer_text="0", answer_value=0.0))
        save_record(trajectory, tmp_path / "adversarial.json")
        stored = load_record(tmp_path / "adversarial.json")
        for histogram in (count_errors(trajectory),
                          score_trajectory(task, stored, ws).error_counts):
            assert histogram == {
                "UnawareOfTermination": 1,
                "ToolHallucination": 1,
                "FileHallucination": 1,
                "InvalidParameters": 1,
                "SystemError": 1,
            }


# -------------------------------------------------------------------------
# 7. raster round-trips and GeoRef preservation through every writer tool
# -------------------------------------------------------------------------


def test_criterion_7_raster_round_trip(tmp_path):
    with criterion(7, "raster round-trip and GeoRef preservation"):
        rng = np.random.default_rng(31)
        geo = make_georef()
        for i in range(200):
            dtype = ("u8", "u16", "f32")[int(rng.integers(0, 3))]
            bands = int(rng.integers(1, 4))
            h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            if dtype == "f32":
                data = rng.normal(size=(bands, h, w)) * 100
            else:
                data = rng.integers(0, 250, size=(bands, h, w))
            r = from_array(data, dtype=dtype, geo=geo)
            path = tmp_path / f"rt_{i}.tif"
            store(r, path, compress=bool(rng.integers(0, 2)))
            back = load_raster(path)
            assert back.data.dtype == r.data.dtype
            assert np.array_equal(back.data, r.data)
            assert back.geo == r.geo

        # GeoRef bytes preserved by every raster-writing tool
        ws = Workspace(tmp_path)
        registry = build_registry(ToolContext(
            workspace=ws, perception=MockExpertBackend([], ws)))
        d = tmp_path / "src"
        d.mkdir()
        write_raster(d / "a.tif", rng.uniform(0.1, 0.9, (6, 6)), geo=geo)
        write_raster(d / "b.tif", rng.uniform(0.1, 0.9, (6, 6)), geo=geo)
        write_raster(d / "t1.tif", rng.uniform(285, 310, (6, 6)), geo=geo)
        write_raster(d / "t2.tif", rng.uniform(284, 309, (6, 6)), geo=geo)
        write_raster(d / "t3.tif", rng.uniform(284, 309, (6, 6)), geo=geo)
        write_raster(d / "night.tif", rng.uniform(275, 284, (6, 6)), geo=geo)
        write_raster(d / "dn.tif", rng.integers(8000, 40000, (6, 6)),
                     dtype="u16", geo=geo)
        write_raster(d / "qa.tif", rng.integers(0, 2, (6, 6)) << 3,
                     dtype="u16", geo=geo)
        write_raster(d / "refl.tif", rng.uniform(0.0, 0.15, (6, 6)), geo=geo)

        writer_calls = [
            ("calculate_batch_ndvi", {"nir_paths": ["src/a.tif"],
                                      "red_paths": ["src/b.tif"],
                                      "output_dir": "o1"}),
            ("calculate_batch_ndwi", {"nir_paths": ["src/a.tif"],
                                      "swir_paths": ["src/b.tif"],
                                      "output_dir": "o2"}),
            ("calculate_batch_ndbi", {"swir_paths": ["src/a.tif"],
                                      "nir_paths": ["src/b.tif"],
                                      "output_dir": "o3"}),
            ("calculate_batch_evi", {"nir_paths": ["src/a.tif"],
                                     "red_paths": ["src/b.tif"],
                                     "blue_paths": ["src/b.tif"],
                                     "output_dir": "o4"}),
            ("calculate_batch_nbr", {"nir_paths": ["src/a.tif"],
                                     "swir_paths": ["src/b.tif"],
                                     "output_dir": "o5"}),
            ("calculate_batch_wri", {"green_paths": ["src/a.tif"],
                                     "red_paths": ["src/b.tif"],
                                     "nir_paths": ["src/a.tif"],
                                     "swir_paths": ["src/b.tif"],
                                     "output_dir": "o6"}),
            ("calculate_batch_ndti", {"red_paths": ["src/a.tif"],
                                      "green_paths": ["src/b.tif"],
                                      "output_dir": "o7"}),
            ("calculate_batch_ndsi", {"green_paths": ["src/a.tif"],
                                      "swir_paths": ["src/b.tif"],
                                      "output_dir": "o8"}),
            ("calculate_batch_fvc", {"nir_paths": ["src/a.tif"],
                                     "red_paths": ["src/b.tif"],
                                     "output_dir": "o9"}),
            ("calculate_batch_frp", {"frp_paths": ["src/t1.tif"],
                                     "threshold": 300.0, "output_dir": "o10"}),
            ("compute_tvdi", {"ndvi_path": "src/a.tif", "lst_path": "src/t1.tif",
                              "bins": 3, "output_path": "o11/tvdi.tif"}),
            ("band_ratio", {"absorption_band_path": "src/a.tif",
                            "window_band_path": "src/b.tif",
                            "output_path": "o12/pwv.tif"}),
            ("lst_single_channel", {"bt_path": "src/t1.tif",
                                    "red_path": "src/b.tif",
                                    "nir_path": "src/a.tif",
                                    "output_path": "o13/lst.tif"}),
            ("lst_multi_channel", {"band31_path": "src/t1.tif",
                                   "band32_path": "src/t2.tif",
                                   "output_path": "o14/lst.tif"}),
            ("split_window", {"band31_path": "src/t1.tif",
                              "band32_path": "src/t2.tif",
                              "output_path": "o15/lst.tif"}),
            ("temperature_emissivity_separation",
             {"band_paths": ["src/t1.tif", "src/t2.tif", "src/t3.tif"],
              "output_path": "o16/lst.tif"}),
            ("modis_day_night_lst", {"day_path": "src/t1.tif",
                                     "night_path": "src/night.tif",
                                     "output_path": "o17/lst.tif"}),
            ("ttm_lst", {"band_paths": ["src/t1.tif", "src/t2.tif", "src/t3.tif"],
                         "output_path": "o18/lst.tif"}),
            ("ATI", {"albedo_path": "src/a.tif", "day_temp_path": "src/t1.tif",
                     "night_temp_path": "src/night.tif",
                     "output_path": "o19/ati.tif"}),
            ("dual_polarization_differential",
             {"v_path": "src/t1.tif", "h_path": "src/t2.tif",
              "output_path": "o20/out.tif"}),
            ("dual_frequency_diff", {"band1_path": "src/t1.tif",
                                     "band2_path": "src/t2.tif",
                                     "output_path": "o21/out.tif"}),
            ("multi_freq_bt", {"band_paths": ["src/t1.tif", "src/t2.tif"],
                               "output_path": "o22/out.tif"}),
            ("chang_single_param_inversion", {"tb_18h_path": "src/t1.tif",
                                              "tb_37h_path": "src/t2.tif",
                                              "output_path": "o23/sd.tif"}),
            ("nasa_team_sea_ice_concentration",
             {"tb_19v_path": "src/t1.tif", "tb_19h_path": "src/t2.tif",
              "tb_37v_path": "src/t3.tif", "output_path": "o24/sic.tif"}),
            ("dual_polarization_ratio", {"v_path": "src/t1.tif",
                                         "h_path": "src/t2.tif",
                                         "output_path": "o25/pr.tif"}),
            ("calculate_water_turbidity_ntu", {"red_band_path": "src/refl.tif",
                                               "output_path": "o26/ntu.tif"}),
            ("threshold_segmentation", {"image_path": "src/a.tif",
                                        "threshold": 0.5,
                                        "output_path": "o27/seg.tif"}),
            ("getis_ord_gi_star", {"image_path": "src/a.tif",
                                   "output_path": "o28/z.tif"}),
            ("calc_batch_image_hotspot_tif", {"image_paths": ["src/t1.tif"],
                                              "threshold": 295.0,
                                              "output_dir": "o29"}),
            ("create_fire_increase_map", {"before_path": "src/t1.tif",
                                          "after_path": "src/t2.tif",
                                          "threshold": 1.0,
                                          "output_path": "o30/fire.tif"}),
            ("identify_fire_prone_areas", {"hotspot_map_path": "src/t1.tif",
                                           "percentile": 80.0,
                                           "output_path": "o31/prone.tif"}),
            ("calculate_tif_difference", {"image_a_path": "src/a.tif",
                                          "image_b_path": "src/b.tif",
                                          "output_path": "o32/diff.tif"}),
            ("subtract", {"image_a_path": "src/a.tif",
                          "image_b_path": "src/b.tif",
                          "output_path": "o33/sub.tif"}),
            ("grayscale_to_colormap", {"image_path": "src/a.tif",
                                       "output_path": "o34/rgb.tif"}),
            ("radiometric_correction_sr", {"band_path": "src/dn.tif",
                                           "output_path": "o35/refl.tif"}),
            ("apply_cloud_mask", {"band_path": "src/a.tif",
                                  "qa_pixel_path": "src/qa.tif",
                                  "output_path": "o36/masked.tif"}),
        ]
        for name, args in writer_calls:
            result = registry.call_tool(name, args)
            assert not result.is_error, f"{name}: {result.text}"
            assert result.files, name
            for f in result.files:
                assert load_raster(f).geo == geo, name


# -------------------------------------------------------------------------
# 8. env-gated live-LLM smoke test
# -------------------------------------------------------------------------


@pytest.mark.skipif(not os.environ.get("LLM_ENDPOINT"),
                    reason="LLM_ENDPOINT not configured")
def test_criterion_8_live_llm_smoke(suite):
    with criterion(8, "live chat-with-tools smoke test"):
        root, tasks, registry, ws = suite
        task = next(t for t in tasks if t.id == "r3_count")
        policy = LLMPolicy(os.environ["LLM_ENDPOINT"],
                           os.environ.get("LLM_MODEL", "default"),
                           api_key=os.environ.get("LLM_API_KEY", ""),
                           registry=registry)
        trajectory, _ = run_task(task, registry, ws, lambda t, r: policy,
                                 "AutoPlanning", max_steps=10, model_tag="live")
        assert trajectory.stop_reason == "final_answer"
        doc = json.loads(json.dumps(trajectory.as_json()))
        assert Trajectory.from_json(doc).as_json() == trajectory.as_json()
