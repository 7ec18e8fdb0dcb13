"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the
checkout root. The self-check runs every workload at tiny scale."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tiff  # noqa: E402
from perfbench.tracing import Tracer, per_layer  # noqa: E402


def test_self_check():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-check ok"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scenes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tiff_round_trip_and_layout(tmp_path):
    geo = tiff.georef(1.0, 2.0, 30.0)
    data = np.arange(3 * 5 * 7, dtype=np.float32).reshape(3, 5, 7)
    for dtype, deflate in (("u16", False), ("f32", True)):
        path = tmp_path / f"{dtype}.tif"
        tiff.write(path, data, dtype, geo, deflate, rows_per_strip=2)
        back, geo_bytes = tiff.read(path)
        assert back.shape == data.shape and np.array_equal(back, data.astype(back.dtype))
        assert geo_bytes and tiff.layout(path) == f"{dtype}_{'deflate' if deflate else 'raw'}"


def test_per_layer_self_time_and_nesting(tmp_path):
    tracer = Tracer()
    samples = lambda _args, _r: {"samples": 10**6}  # noqa: E731
    inner = tracer.wrap("kits.index.inner", lambda: None, samples)
    outer = tracer.wrap("kits.index.outer", lambda: inner(), samples)
    tool = tracer.wrap("tools.registry.call_tool", lambda _self, name: outer(),
                       lambda args, _r: {"tool": args[1], "error": None})
    tool(None, "ndvi")
    tool(None, "ndvi")
    tracer.write(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    by_name = {s["name"]: s for s in spans[:3]}
    assert by_name["kits.index.inner"]["parent"] == by_name["kits.index.outer"]["id"]
    assert len({s["trace"] for s in spans}) == 2
    values, tools = per_layer(tmp_path / "spans.jsonl", passes=2, parallelism=1,
                              traced_wall_s=1.0)
    assert values["tools.registry.calls"] == 1 and len(tools["ndvi"]) == 2
    # the nested kit call is counted once, inside its outer span
    outer_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "kits.index.outer")
    assert abs(values["kits.index.s"] * 2 - outer_s) < 1e-12
    assert values["kits.index.mpix"] == 1.0
    assert values["kits.self_s"] <= values["kits.index.s"]


def test_quiet_window_leaves_out_stolen_intervals():
    path = list(sys.path)
    from perfbench import run  # puts the checkout root first on sys.path
    sys.path[:] = path

    def counters(steal, total):  # user time, then steal in the eighth field
        return [total - steal, 0, 0, 0, 0, 0, 0, steal]

    # 0-1 s quiet, 1-2 s half stolen, 2-3 s quiet
    readings = [(0.0, counters(0, 0)), (1.0, counters(1, 100)), (2.0, counters(51, 200)),
                (3.0, counters(52, 300))]
    phase = {"window": [0.0, 3.0],
             "op_times": [[0.1, 0.5], [0.6, 1.2], [1.5, 1.8], [2.1, 2.9], [0.9, 2.5]]}
    quiet = run.quiet_window(readings, phase)
    assert quiet["keep"] == [0, 3]
    assert quiet["completed"] == 3 and quiet["quiet_s"] == 2.0
    assert abs(quiet["share"] - 2 / 3) < 1e-12
    # two windows of 3 s with 2 s and 1 s quiet: 3 s pooled, enough to count
    assert run.comparable([({"untraced": phase}, quiet), ({"untraced": phase}, {
        "keep": [], "quiet_s": 1.0})])
    assert not run.comparable([({"untraced": phase}, quiet | {"quiet_s": 1.0})])
