"""Perception tools: native image processing plus adapters for external
expert models.

The expert models themselves (classifiers, detectors, grounding and
segmentation networks) are never reimplemented here; they are reached over a
single-POST HTTP contract, or served by a deterministic mock backend driven
by a fixture manifest so episodes can run hermetically.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .. import finite_json
from ..errors import ExternalServiceError, InvalidInputError, SchemaError
from ..raster import Raster, load_raster, mask_like, save_raster
from ..workspace import Workspace
from .common import as_binary, count_beyond

MOCK_MANIFEST = "mock_manifest.json"  # the mock backend's default, at the workspace root

# the expert tasks whose mock result may derive a mask from a `mask_threshold`
MASK_TASKS = ("segment", "change")

# the closest/farthest pair scan is O(n^2); 4000 centroids take about 1 s
# through the registry on a 2-vCPU Xeon VM
MAX_CENTROIDS = 4000


# ---------------------------------------------------------------------------
# expert-model adapters
# ---------------------------------------------------------------------------


class ExpertBackend:
    """Dispatch surface for expert-model calls; `image_paths` arrive
    resolved against the workspace by the tool layer."""

    def call(self, model: str, task: str, image_paths: list[str],
             prompt: str | None) -> dict:
        raise NotImplementedError


class MockExpertBackend(ExpertBackend):
    """Deterministic backend answering from a fixture manifest.

    The manifest maps (image stem, task, prompt) to a typed result. For
    segment/change tasks the result may carry a `mask_threshold`; the mask is
    then the `threshold_segmentation` of the first input image, which keeps
    the backend referentially transparent.
    """

    def __init__(self, entries: list[dict], workspace: Workspace):
        """`entries` is the manifest: a list of {"image": stem, "task": name,
        "prompt": text or null (optional), "result": object}."""
        if not isinstance(entries, list):
            raise SchemaError("mock manifest must be a list of entries")
        self.workspace = workspace
        self._table: dict[tuple[str, str, str], dict] = {}
        for i, e in enumerate(entries):
            if not (isinstance(e, dict) and isinstance(e.get("image"), str)
                    and isinstance(e.get("task"), str)
                    and isinstance(e.get("prompt"), (str, type(None)))
                    and isinstance(e.get("result"), dict)):
                raise SchemaError(f"mock manifest entry {i} needs a string image and "
                                  "task, an optional string prompt and an object result")
            if (e["task"] in MASK_TASKS and "mask_threshold" in e["result"]
                    and not finite_json.is_finite_number(e["result"]["mask_threshold"])):
                raise SchemaError(f"mock manifest entry {i}: mask_threshold must be "
                                  "a finite number")
            self._table[(e["image"], e["task"], e.get("prompt") or "")] = e["result"]

    def call(self, model, task, image_paths, prompt):
        stem = Path(image_paths[0]).stem
        key = (stem, task, prompt or "")
        if key not in self._table:
            raise ExternalServiceError(
                f"no mock fixture for image={stem!r} task={task!r} prompt={prompt!r}"
            )
        result = self._table[key]
        if task in MASK_TASKS and "mask_threshold" in result:
            return {"mask": self._write_mask(image_paths, float(result["mask_threshold"]),
                                             stem, task)}
        return result

    def _write_mask(self, image_paths, threshold, stem, task) -> str:
        mask = threshold_segmentation(load_raster(image_paths[0]), threshold)
        out = self.workspace.resolve(f"perception/{task}_{stem}.tif", "out_file")
        save_raster(mask, out)
        return str(out)


class HttpExpertBackend(ExpertBackend):
    """Single-POST JSON adapter for remote expert models."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # load the HTTP client now: a TCP listener then loads it once, before
        # it forks, and its connection processes share those pages
        finite_json.http_opener()

    def call(self, model, task, image_paths, prompt):
        payload = {"model": model, "task": task, "prompt": prompt,
                   "images": [str(p) for p in image_paths]}
        try:
            reply = finite_json.post_json(self.base_url + "/infer",
                                          json.dumps(payload).encode("utf-8"),
                                          {"Content-Type": "application/json"}, self.timeout)
        except finite_json.ReplyError as exc:
            raise ExternalServiceError(f"expert endpoint failed: {exc}") from exc
        if not isinstance(reply, dict):
            raise ExternalServiceError(
                f"expert reply must be a JSON object, got {type(reply).__name__}")
        if not isinstance(reply.get("mask", ""), str):
            raise ExternalServiceError("expert reply `mask` must be a path string")
        return reply


# ---------------------------------------------------------------------------
# native image ops
# ---------------------------------------------------------------------------


def threshold_segmentation(r: Raster, threshold: float) -> Raster:
    """Binary segmentation: strictly greater -> 255, otherwise 0."""
    if r.bands != 1:
        raise InvalidInputError(f"segmentation expects a single band, got {r.bands}")
    return mask_like(r, r.band() > threshold, 255)


def count_above_threshold(r: Raster, threshold: float) -> int:
    if r.bands != 1:
        raise InvalidInputError(f"count expects a single band, got {r.bands}")
    return count_beyond(r.samples(), np.greater, threshold)


def _refuse_degenerate(*stages: np.ndarray) -> None:
    """Refuse the first box, in order, with x_min > x_max or y_min > y_max in
    any of `stages`, (n, 4) forms of the same boxes, naming its earliest
    degenerate form."""
    if any((s[:, :2] > s[:, 2:]).any() for s in stages):
        forms = np.stack(stages, axis=1)
        bad = (forms[..., :2] > forms[..., 2:]).any(axis=2)
        box, stage = np.argwhere(bad)[0]  # row-major: box first, then stage
        raise InvalidInputError(f"degenerate bounding box {forms[box, stage].tolist()}")


def expand_bboxes(boxes: np.ndarray, radius: float, image_width: int | None = None,
                  image_height: int | None = None) -> list[list[float]]:
    """Grow each [x_min, y_min, x_max, y_max] row by `radius` on every side,
    clamped to [0, width] x [0, height] when both are given."""
    lo, hi = boxes[:, :2] - radius, boxes[:, 2:] + radius
    if image_width is not None and image_height is not None:
        # max(0.0, x) and min(w, x), the first operand kept on a tie
        size = np.array([image_width, image_height], np.float64)
        lo, hi = np.where(lo > 0.0, lo, 0.0), np.where(hi < size, hi, size)
    out = np.concatenate([lo, hi], axis=1)
    _refuse_degenerate(boxes, out)
    return out.tolist()


def bbox_centroids(boxes: np.ndarray) -> list[list[float]]:
    """Centers [x, y] of [x_min, y_min, x_max, y_max] rows."""
    _refuse_degenerate(boxes)
    return ((boxes[:, :2] + boxes[:, 2:]) / 2.0).tolist()


def centroid_distance_extremes(points) -> dict:
    """Closest and farthest pairs of (x, y) points with indices and distances."""
    if len(points) > MAX_CENTROIDS:
        raise InvalidInputError(f"at most {MAX_CENTROIDS} centroids, got {len(points)}")
    # math.dist copies any point that is not a tuple on every call
    points = list(map(tuple, np.asarray(points, np.float64).tolist()))
    if len(points) < 2:
        raise InvalidInputError("need at least 2 centroids for pairwise distances")
    best = (math.inf, -1, -1)
    worst = (-math.inf, -1, -1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = math.dist(points[i], points[j])
            if d < best[0]:
                best = (d, i, j)
            if d > worst[0]:
                worst = (d, i, j)
    return {
        "closest": {"indices": [best[1], best[2]], "distance": best[0]},
        "farthest": {"indices": [worst[1], worst[2]], "distance": worst[0]},
    }


def total_bbox_area(boxes_xywh) -> float:
    """Total area of boxes given as [x, y, w, h] rows, summed in order."""
    total = 0.0
    for b in np.asarray(boxes_xywh, np.float64).tolist():
        if b[2] < 0 or b[3] < 0:
            raise InvalidInputError(f"negative box extent in {b}")
        total += b[2] * b[3]
    return total


def _erode(img: np.ndarray) -> np.ndarray:
    """One pass of 3x3 binary erosion (edges treated as background)."""
    padded = np.pad(img, 1, constant_values=0)
    out = np.ones_like(img)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out &= padded[1 + dy: 1 + dy + img.shape[0], 1 + dx: 1 + dx + img.shape[1]]
    return out


def _zhang_suen(img: np.ndarray) -> np.ndarray:
    """Zhang-Suen thinning of a binary image to a 1-pixel skeleton."""
    skel = np.pad(img.copy(), 1, constant_values=0)

    def neighbors(y, x):
        return [skel[y - 1, x], skel[y - 1, x + 1], skel[y, x + 1], skel[y + 1, x + 1],
                skel[y + 1, x], skel[y + 1, x - 1], skel[y, x - 1], skel[y - 1, x - 1]]

    changed = True
    while changed:
        changed = False
        for phase in (0, 1):
            to_clear = []
            ys, xs = np.nonzero(skel[1:-1, 1:-1])
            for y, x in zip(ys + 1, xs + 1):
                p = neighbors(y, x)
                b = sum(p)
                if not 2 <= b <= 6:
                    continue
                a = sum(1 for k in range(8) if p[k] == 0 and p[(k + 1) % 8] == 1)
                if a != 1:
                    continue
                if phase == 0:
                    if p[0] * p[2] * p[4] != 0 or p[2] * p[4] * p[6] != 0:
                        continue
                else:
                    if p[0] * p[2] * p[6] != 0 or p[0] * p[4] * p[6] != 0:
                        continue
                to_clear.append((y, x))
            if to_clear:
                changed = True
                for y, x in to_clear:
                    skel[y, x] = 0
    return skel[1:-1, 1:-1]


def _count_components(img: np.ndarray) -> int:
    """Count 8-connected components of a binary image, walking only its
    foreground pixels."""
    ys, xs = np.nonzero(img)
    starts = list(zip(ys.tolist(), xs.tolist()))  # row-major
    unvisited = set(starts)
    count = 0
    for start in starts:
        if start not in unvisited:
            continue
        count += 1
        unvisited.remove(start)
        stack = [start]
        while stack:
            y, x = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    pixel = (y + dy, x + dx)
                    if pixel in unvisited:
                        unvisited.remove(pixel)
                        stack.append(pixel)
    return count


def count_skeleton_contours(r: Raster) -> int:
    """Erode once, thin with Zhang-Suen, count 8-connected skeleton pieces."""
    band = as_binary(r.band(), "image")
    img = np.where(np.isnan(band), 0, band).astype(np.uint8)
    eroded = _erode(img)
    skeleton = _zhang_suen(eroded)
    return _count_components(skeleton)
