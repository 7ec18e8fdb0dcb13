from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from geoagent.errors import ExternalServiceError, InvalidInputError, SchemaError
from geoagent.kits import perception as perc
from geoagent.raster import from_array, load_raster, save_raster
from geoagent.workspace import Workspace


@pytest.fixture
def mock_backend(tmp_path):
    ws = Workspace(tmp_path)
    img = from_array(np.arange(16, dtype=float).reshape(4, 4))
    save_raster(img, tmp_path / "airport_01.tif")
    manifest = [
        {"image": "airport_01", "task": "classify", "prompt": None,
         "result": {"label": "Airport"}},
        {"image": "airport_01", "task": "detect", "prompt": "plane",
         "result": {"boxes": [[1, 1, 3, 3], [0, 0, 2, 2]]}},
        {"image": "airport_01", "task": "count", "prompt": "plane",
         "result": {"count": 2}},
        {"image": "airport_01", "task": "segment", "prompt": None,
         "result": {"mask_threshold": 7.5}},
        {"image": "airport_01", "task": "change", "prompt": None,
         "result": {"mask_threshold": 3.0}},
    ]
    return perc.MockExpertBackend(manifest, ws), tmp_path


class TestExpertCall:
    def test_mock_classify(self, mock_backend):
        backend, root = mock_backend
        out = backend.call("MSCN", "classify", [str(root / "airport_01.tif")], None)
        assert out == {"label": "Airport"}

    def test_change_with_same_path_twice(self, mock_backend):
        backend, root = mock_backend
        p = str(root / "airport_01.tif")
        out = backend.call("ChangeOS", "change", [p, p], None)
        mask = load_raster(out["mask"])
        assert set(np.unique(mask.data)) <= {0, 255}

    def test_mask_is_the_threshold_segmentation(self, mock_backend):
        backend, root = mock_backend
        p = str(root / "airport_01.tif")
        mask = load_raster(backend.call("SAM2", "segment", [p], None)["mask"])
        want = perc.threshold_segmentation(load_raster(p), 7.5)
        assert mask.data.tobytes() == want.data.tobytes()
        assert mask.data.dtype == want.data.dtype and mask.geo == want.geo

    def test_multi_band_mask_input_refused(self, mock_backend):
        backend, root = mock_backend
        save_raster(from_array(np.zeros((3, 4, 4))), root / "airport_01.tif")
        with pytest.raises(InvalidInputError, match="expects a single band, got 3"):
            backend.call("SAM2", "segment", [str(root / "airport_01.tif")], None)

    def test_missing_fixture_is_service_error(self, mock_backend):
        backend, root = mock_backend
        with pytest.raises(ExternalServiceError):
            backend.call("InstructSAM", "count", [str(root / "airport_01.tif")],
                         "storage tank")

    def test_mock_referentially_transparent(self, mock_backend):
        backend, root = mock_backend
        p = [str(root / "airport_01.tif")]
        a = backend.call("SAM2", "segment", p, None)
        b = backend.call("SAM2", "segment", p, None)
        assert a == b
        first = load_raster(a["mask"]).data.copy()
        again = load_raster(b["mask"]).data
        assert np.array_equal(first, again)

    @pytest.mark.parametrize("entries", [
        {"a": 1},
        [{"task": "classify", "result": {}}],
        [{"image": "x", "task": "classify", "result": [1]}],
        [{"image": "x", "task": "detect", "prompt": 3, "result": {}}],
        ["x"],
    ], ids=["not-a-list", "no-image", "result-not-object", "prompt-not-string",
            "entry-not-object"])
    def test_malformed_manifest_rejected(self, tmp_path, entries):
        with pytest.raises(SchemaError):
            perc.MockExpertBackend(entries, Workspace(tmp_path))


@pytest.mark.parametrize("threshold", ["abc", None, [1], True, float("nan"),
                                       float("inf"), 10**400],
                         ids=["string", "null", "list", "bool", "nan", "inf", "10**400"])
@pytest.mark.parametrize("task", ["segment", "change"])
def test_manifest_mask_threshold_must_be_a_finite_number(tmp_path, task, threshold):
    entries = [{"image": "x", "task": task, "result": {"mask_threshold": threshold}}]
    with pytest.raises(SchemaError, match="entry 0: mask_threshold must be a finite"):
        perc.MockExpertBackend(entries, Workspace(tmp_path))


def test_bad_manifest_threshold_exits_1(tmp_path, capsys):
    from geoagent.cli import main

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"image": "x", "task": "segment",
                                     "result": {"mask_threshold": "abc"}}]))
    assert main(["tools", "--workspace", str(tmp_path),
                 "--mock-manifest", str(manifest)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


class TestThresholdSegmentation:
    def test_strict_greater_rule(self):
        img = from_array([[1.0, 5.0, 9.0]])
        out = perc.threshold_segmentation(img, 5.0)
        assert out.data.ravel().tolist() == [0, 0, 255]

    def test_threshold_at_max_gives_all_zero(self):
        img = from_array([[1.0, 5.0, 9.0]])
        out = perc.threshold_segmentation(img, 9.0)
        assert out.data.ravel().tolist() == [0, 0, 0]

    def test_output_binary_255(self):
        rng = np.random.default_rng(0)
        out = perc.threshold_segmentation(from_array(rng.normal(size=(5, 5))), 0.0)
        assert set(np.unique(out.data)) <= {0, 255}

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(1)
        seg = perc.threshold_segmentation(from_array(rng.normal(size=(6, 6))), 0.3)
        again = perc.threshold_segmentation(seg, 127.0)
        assert np.array_equal(seg.data, again.data)

    def test_multi_band_rejected(self):
        with pytest.raises(InvalidInputError):
            perc.threshold_segmentation(from_array(np.zeros((2, 3, 3))), 1.0)


class TestCountAboveThreshold:
    def test_strict(self):
        assert perc.count_above_threshold(from_array([[1.0, 5.0, 9.0]]), 5.0) == 1

    def test_below_min(self):
        assert perc.count_above_threshold(from_array([[1.0, 5.0, 9.0]]), 0.0) == 3

    def test_equals_mask_sum(self):
        rng = np.random.default_rng(3)
        img = from_array(rng.uniform(0, 10, (4, 4)))
        n = perc.count_above_threshold(img, 4.0)
        mask = perc.threshold_segmentation(img, 4.0)
        assert n == int(np.count_nonzero(mask.data))


def box_array(*rows) -> np.ndarray:
    """Boxes as the registry hands them to a kit: one (n, 4) float64 array."""
    return np.asarray(rows, np.float64).reshape(-1, 4)


class TestBBoxOps:
    def test_expand_with_clamp(self):
        out = perc.expand_bboxes(box_array([10, 10, 20, 20]), 5, image_width=100,
                                 image_height=100)
        assert out == [[5, 5, 25, 25]]

    def test_expand_clamps_at_edges(self):
        out = perc.expand_bboxes(box_array([2, 2, 98, 98]), 5, image_width=100,
                                 image_height=100)
        assert out == [[0, 0, 100, 100]]

    def test_expand_zero_identity(self):
        assert perc.expand_bboxes(box_array([3, 4, 8, 9]), 0) == [[3, 4, 8, 9]]

    def test_expand_monotone(self):
        [small] = perc.expand_bboxes(box_array([10, 10, 20, 20]), 2)
        [big] = perc.expand_bboxes(box_array([10, 10, 20, 20]), 7)
        assert big[0] <= small[0] and big[2] >= small[2]

    def test_centroids(self):
        assert perc.bbox_centroids(box_array([0, 0, 10, 10])) == [[5.0, 5.0]]

    def test_extremes_match_bruteforce(self):
        rng = np.random.default_rng(5)
        pts = [tuple(p) for p in rng.uniform(0, 100, (6, 2))]
        got = perc.centroid_distance_extremes(pts)
        dists = {(i, j): math.dist(pts[i], pts[j])
                 for i in range(6) for j in range(i + 1, 6)}
        closest = min(dists, key=dists.get)
        farthest = max(dists, key=dists.get)
        assert tuple(got["closest"]["indices"]) == closest
        assert tuple(got["farthest"]["indices"]) == farthest

    def test_extremes_needs_two(self):
        with pytest.raises(InvalidInputError):
            perc.centroid_distance_extremes([(0.0, 0.0)])

    @pytest.mark.parametrize("bad", [[], [1.0], [1, 2, 3], ["1", 2], [None, 2], [True, 2]],
                             ids=["empty", "one", "three", "string", "null", "bool"])
    def test_extremes_tool_refuses_centroid_not_two_numbers(self, tool_registry, bad):
        result = tool_registry.call_tool("centroid_distance_extremes",
                                         {"centroids": [[0, 0], bad]})
        assert result.error_class == "InvalidParameters"
        assert "expects rows of 2 finite numbers" in result.text

    def test_extremes_tool_takes_integer_centroids(self, tool_registry):
        result = tool_registry.call_tool("centroid_distance_extremes",
                                         {"centroids": [[0, 0], [3, 4]]})
        assert not result.is_error, result.text
        assert result.value["closest"] == {"indices": [0, 1], "distance": 5.0}

    def test_extremes_tool_refuses_past_bound_at_once(self, tool_registry):
        centroids = [[float(i), 0.0] for i in range(perc.MAX_CENTROIDS + 1)]
        start = time.perf_counter()
        result = tool_registry.call_tool("centroid_distance_extremes",
                                         {"centroids": centroids})
        assert time.perf_counter() - start < 0.5
        assert result.error_class == "InvalidParameters"
        assert f"at most {perc.MAX_CENTROIDS} centroids, got " \
            f"{perc.MAX_CENTROIDS + 1}" in result.text

    def test_extremes_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(perc, "MAX_CENTROIDS", 3)
        got = perc.centroid_distance_extremes([(0.0, 0.0), (3.0, 4.0), (0.0, 1.0)])
        assert got == {"closest": {"indices": [0, 2], "distance": 1.0},
                       "farthest": {"indices": [0, 1], "distance": 5.0}}
        with pytest.raises(InvalidInputError, match="at most 3 centroids, got 4"):
            perc.centroid_distance_extremes([(0.0, 0.0)] * 4)

    def test_total_area_xywh(self):
        assert perc.total_bbox_area([[0, 0, 4, 5], [10, 10, 2, 3]]) == 26.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(InvalidInputError,
                           match=r"degenerate bounding box \[5\.0, 5\.0, 1\.0, 1\.0\]"):
            perc.bbox_centroids(box_array([0, 0, 1, 1], [5, 5, 1, 1]))


# The per-box code that `expand_bboxes` and `bbox_centroids` replaced, kept
# as the oracle of their values and refusal texts.
@dataclass(frozen=True)
class OldBBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise InvalidInputError(f"degenerate bounding box {self.as_list()}")

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def old_expand_bbox(box: OldBBox, radius: float,
                    image_size: tuple[int, int] | None = None) -> OldBBox:
    x0, y0 = box.x_min - radius, box.y_min - radius
    x1, y1 = box.x_max + radius, box.y_max + radius
    if image_size is not None:
        w, h = image_size
        x0, y0 = max(0.0, x0), max(0.0, y0)
        x1, y1 = min(float(w), x1), min(float(h), y1)
    return OldBBox(x0, y0, x1, y1)


def old_bboxes_to_centroids(boxes: list[OldBBox]) -> list[tuple[float, float]]:
    return [((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0) for b in boxes]


def outcome(fn, *args, **kwargs) -> str:
    """The repr of `fn`'s value (it tells -0.0 from 0.0), or its refusal."""
    try:
        return repr(fn(*args, **kwargs))
    except InvalidInputError as exc:
        return f"refused: {exc}"


# few distinct values, so ties and -0.0 edges are common
coordinate = hst.sampled_from([-0.0, 0.0, 1.0, 2.5, 5.0, 10.0, -3.0]) | hst.floats(
    -100, 100, allow_nan=False)
radius = (hst.sampled_from([0, -0.0, 0.0, 1, -1, 2.5, -2.5])
          | hst.integers(-2**63, 2**63 - 1) | hst.integers(-20, 20)
          | hst.floats(-1e3, 1e3, allow_nan=False))
side = hst.none() | hst.integers(-3, 30)


@settings(max_examples=300, deadline=None)
@example(rows=[[-0.0, -0.0, 1.0, 1.0]], radius=0, width=5, height=5)  # lo is -0.0
@example(rows=[[-0.0, -0.0, -0.0, -0.0]], radius=-0.0, width=0, height=0)  # hi is -0.0
@example(rows=[[0.0, 0.0, 4.0, 4.0], [3.0, 3.0, 1.0, 1.0]], radius=1, width=2,
         height=None)  # one side only: no clamp, the second box refused
@example(rows=[[1.0, 1.0, 2.0, 2.0], [5.0, 5.0, 1.0, 1.0]], radius=0, width=0,
         height=0)  # the first box degenerate only once clamped
@given(rows=hst.lists(hst.lists(coordinate, min_size=4, max_size=4), max_size=6),
       radius=radius, width=side, height=side)
def test_box_kits_match_the_per_box_oracle(rows, radius, width, height):
    arr = box_array(*rows)
    rows = arr.tolist()
    size = (width, height) if width is not None and height is not None else None
    given_size = {k: v for k, v in (("image_width", width), ("image_height", height))
                  if v is not None}
    assert outcome(perc.expand_bboxes, arr, radius, **given_size) == outcome(
        lambda: [old_expand_bbox(OldBBox(*b), radius, size).as_list() for b in rows])
    assert outcome(perc.bbox_centroids, arr) == outcome(
        lambda: [list(c) for c in old_bboxes_to_centroids([OldBBox(*b) for b in rows])])


class TestSkeletonContours:
    def test_two_squares(self):
        grid = np.zeros((16, 16), dtype=np.uint8)
        grid[2:7, 2:7] = 1
        grid[9:14, 9:14] = 1
        assert perc.count_skeleton_contours(from_array(grid, dtype="u8")) == 2

    def test_empty_image(self):
        assert perc.count_skeleton_contours(
            from_array(np.zeros((8, 8)), dtype="u8")) == 0

    def test_translation_invariant(self):
        base = np.zeros((20, 20), dtype=np.uint8)
        base[3:8, 3:8] = 1
        shifted = np.roll(base, (6, 6), axis=(0, 1))
        a = perc.count_skeleton_contours(from_array(base, dtype="u8"))
        b = perc.count_skeleton_contours(from_array(shifted, dtype="u8"))
        assert a == b == 1

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            perc.count_skeleton_contours(from_array([[0, 9]], dtype="u8"))


def count_components_loop(img: np.ndarray) -> int:
    """The former `perception._count_components`, which visits all h x w
    pixels in Python."""
    visited = np.zeros_like(img, dtype=bool)
    h, w = img.shape
    count = 0
    for sy in range(h):
        for sx in range(w):
            if img[sy, sx] == 0 or visited[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            visited[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and img[ny, nx] \
                                and not visited[ny, nx]:
                            visited[ny, nx] = True
                            stack.append((ny, nx))
    return count


def checkerboard(h: int, w: int) -> np.ndarray:
    return (np.add.outer(np.arange(h), np.arange(w)) % 2 == 0).astype(np.uint8)


@hst.composite
def binary_images(draw):
    """Empty, full, diagonal-only (pixels touching at corners alone) and
    random binary images, of any shape up to 24 x 24."""
    h, w = draw(hst.integers(0, 24)), draw(hst.integers(0, 24))
    kind = draw(hst.sampled_from(["empty", "full", "diagonal", "random"]))
    if kind == "empty":
        return np.zeros((h, w), np.uint8)
    if kind == "full":
        return np.ones((h, w), np.uint8)
    if kind == "diagonal":  # a checkerboard: every foreground pixel touches only at corners
        keep = draw(hst.integers(0, 2**32 - 1))
        return checkerboard(h, w) & (np.random.default_rng(keep).uniform(size=(h, w)) < 0.8)
    density = draw(hst.floats(0.0, 1.0))
    seed = draw(hst.integers(0, 2**32 - 1))
    return (np.random.default_rng(seed).uniform(size=(h, w)) < density).astype(np.uint8)


class TestCountComponents:
    """The foreground walk counts what the all-pixel loop counted."""

    @settings(max_examples=250, deadline=None)
    @given(img=binary_images())
    @example(img=np.zeros((0, 0), np.uint8))
    @example(img=np.ones((5, 7), np.uint8))
    @example(img=np.eye(6, dtype=np.uint8))
    def test_matches_the_all_pixel_loop(self, img):
        assert perc._count_components(img) == count_components_loop(img)

    def test_diagonal_pixels_are_one_component(self):
        assert perc._count_components(np.eye(6, dtype=np.uint8)[::-1]) == 1
        assert perc._count_components(np.eye(6, dtype=np.uint8)[::2]) == 3


def zhang_suen_loop(img: np.ndarray) -> np.ndarray:
    """The former `perception._zhang_suen`, which tests each foreground pixel
    in Python on every pass."""
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


@hst.composite
def thinning_images(draw):
    """Empty, solid, one-pixel-line, checkerboard and random binary images of
    any shape up to 24 x 24, each eroded once or not."""
    h, w = draw(hst.integers(0, 24)), draw(hst.integers(0, 24))
    kind = draw(hst.sampled_from(["empty", "solid", "row", "column", "diagonal",
                                  "checkerboard", "random"]))
    img = np.zeros((h, w), np.uint8)
    if kind == "solid":
        img[:] = 1
    elif kind == "row":
        img[h // 2: h // 2 + 1, :] = 1
    elif kind == "column":
        img[:, w // 2: w // 2 + 1] = 1
    elif kind == "diagonal":
        img = np.eye(h, w, dtype=np.uint8)
    elif kind == "checkerboard":
        img = checkerboard(h, w)
    elif kind == "random":
        density = draw(hst.floats(0.2, 0.95))
        seed = draw(hst.integers(0, 2**32 - 1))
        img = (np.random.default_rng(seed).uniform(size=(h, w)) < density).astype(np.uint8)
    return perc._erode(img) if draw(hst.booleans()) else img


def eroded_random(side: int, density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return perc._erode((rng.uniform(size=(side, side)) < density).astype(np.uint8))


class TestZhangSuen:
    """The array sub-iterations thin to the skeleton the per-pixel loop did."""

    @settings(max_examples=300, deadline=None)
    @given(img=thinning_images())
    @example(img=np.zeros((0, 0), np.uint8))
    @example(img=np.zeros((0, 7), np.uint8))
    @example(img=np.zeros((5, 0), np.uint8))
    @example(img=np.zeros((6, 6), np.uint8))
    @example(img=np.ones((1, 1), np.uint8))
    @example(img=np.ones((2, 2), np.uint8))
    @example(img=np.ones((7, 7), np.uint8))
    @example(img=np.ones((20, 20), np.uint8))
    @example(img=np.ones((1, 12), np.uint8))
    @example(img=np.ones((12, 1), np.uint8))
    @example(img=np.eye(9, dtype=np.uint8)[::-1])
    @example(img=checkerboard(9, 8))
    @example(img=eroded_random(24, 0.9, 3))
    def test_matches_the_per_pixel_loop(self, img):
        before = img.copy()
        got, want = perc._zhang_suen(img), zhang_suen_loop(img)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(img, before)  # the input is not thinned in place
