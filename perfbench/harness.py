"""Pieces shared by the workloads: timed passes, the output gate and digests.

The gate compares outputs with the ground truth the same run froze, and the
digests summarise them so two commits can be compared on one seed. Digests
cover decoded raster pixels, georeference tags, tool values, error classes
and scores; they leave out message text, absolute workspace paths and file
bytes, so a change of file layout or wording still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from time import perf_counter

from perfbench import tiff

WS_TOKEN = "$WS"
STEP_METRICS = ("eff", "tao", "tio", "tem", "param_acc")


def mask(doc, root: str):
    """Replace the absolute workspace root in every string with a token."""
    if isinstance(doc, str):
        return doc.replace(root, WS_TOKEN)
    if isinstance(doc, list):
        return [mask(v, root) for v in doc]
    if isinstance(doc, dict):
        return {k: mask(v, root) for k, v in doc.items()}
    return doc


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def outcomes(steps) -> list:
    """(tool, value, error class) of recorded steps; text and file lists left out."""
    return [[s["tool"], s["output"].get("value"), s["output"].get("error_class")]
            for s in steps]


def gt_outcomes(task) -> list:
    return outcomes([s.as_json() for s in task.ground_truth.steps])


def full_loop_identity(score) -> bool:
    """Accuracy 1, every step metric 1.0, no errors, stopped on the answer."""
    return (score.acc == 1 and all(getattr(score, m) == 1.0 for m in STEP_METRICS)
            and not score.error_counts and score.stop_reason == "final_answer")


def replay_bad(task, record, score) -> bool:
    """A replayed task fails the gate unless it reaches the full-loop identity
    with the ground truth's step outcomes."""
    return not full_loop_identity(score) or outcomes(record.steps) != gt_outcomes(task)


def answer_digest(tasks) -> str:
    return digest([[t.id, gt_outcomes(t), t.ground_truth.answer_value]
                   for t in sorted(tasks, key=lambda t: t.id)])


def output_files(tasks) -> list[str]:
    """Workspace-relative raster outputs named by the ground truth."""
    files = set()
    for t in tasks:
        for s in t.ground_truth.steps:
            files.update(f.replace(WS_TOKEN + "/", "", 1) for f in s.output.get("files", [])
                         if f.endswith(".tif"))
    return sorted(files)


def raster_digest(root: Path, files: list[str]) -> str:
    h = hashlib.sha256()
    for rel in files:
        data, geo = tiff.read(root / rel)
        h.update(f"{rel}|{data.dtype.str}|{data.shape}|".encode())
        h.update(data.tobytes())
        h.update(geo)
    return h.hexdigest()[:16]


def peak_rss_mb(pid: int) -> float:
    """High-water resident memory of a process's current image (VmHWM).

    Unlike getrusage's ru_maxrss, it does not inherit the peak of the parent
    that spawned the process.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not reported")


def run_passes(make_state, one_pass, seconds: float, tracer) -> dict:
    """Repeat `one_pass(state)` for `seconds`, at least once.

    `one_pass` returns (ops, [start, end] perf_counter times of each timed
    op, failed ops). Without a tracer every pass is untraced. With one,
    untraced and traced passes alternate, each kind on its own state built
    while the tracer was out or in, so that their pass times give the
    tracing overhead.
    """
    phases = {"untraced": make_state()}
    if tracer is not None:
        tracer.install()
        try:
            phases["traced"] = make_state()
        finally:
            tracer.uninstall()
    out = {k: {"walls": [], "op_times": [], "ops": 0, "failed": 0} for k in phases}
    start = perf_counter()
    while perf_counter() - start < seconds or not out["untraced"]["walls"]:
        for kind, state in phases.items():
            if kind == "traced":
                tracer.install()
            try:
                t0 = perf_counter()
                ops, op_times, failed = one_pass(state)
                wall = perf_counter() - t0
            finally:
                if kind == "traced":
                    tracer.uninstall()
            o = out[kind]
            o["walls"].append(wall)
            o["op_times"] += op_times
            o["ops"] += ops
            o["failed"] += failed
    for o in out.values():
        o["window"] = [start, perf_counter()]
    return out
