"""Batch tools: memory that does not grow with the batch, and outputs that
appear only when the whole batch succeeds.

`_batch_handler` computes and writes item i, to a temporary file beside its
output, before it loads item i + 1, and renames the temporaries onto the
outputs only after the last item. A per-image reducer loads each image as
its kit reaches it. So the traced peak of a batch of 16 images exceeds that
of 4 by less than two images; a failed batch leaves no file behind; and an
item that reads another item's output path reads the file as it was before
the call.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from geoagent.kits.index import normalized_difference
from geoagent.raster import load_raster

from conftest import write_raster

SIDE = 256
IMAGE_BYTES = SIDE * SIDE * 4  # one f32 image


def _files(root) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*")}


class TestPeakMemory:
    @pytest.fixture
    def images(self, workspace):
        rng = np.random.default_rng(11)
        for k in range(16):
            for role, (lo, hi) in (("nir", (0.3, 0.8)), ("red", (0.05, 0.3))):
                write_raster(workspace.root / f"{role}/{k:02d}.tif",
                             rng.uniform(lo, hi, (SIDE, SIDE)))
        return workspace

    @staticmethod
    def peak(registry, name, args) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = registry.call_tool(name, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.error_class is None, result.text
        return peak

    @pytest.mark.parametrize("name", ["calc_batch_image_mean", "calculate_batch_ndvi"])
    def test_peak_does_not_grow_with_the_batch(self, tool_registry, images, name):
        def args(n):
            if name == "calc_batch_image_mean":
                return {"image_paths": [f"nir/{k:02d}.tif" for k in range(n)]}
            return {"nir_paths": [f"nir/{k:02d}.tif" for k in range(n)],
                    "red_paths": [f"red/{k:02d}.tif" for k in range(n)],
                    "output_dir": f"ndvi{n}"}

        self.peak(tool_registry, name, args(1))  # first-call allocations
        small, large = (self.peak(tool_registry, name, args(n)) for n in (4, 16))
        assert large - small < 2 * IMAGE_BYTES, (small, large)


class TestBatchOutputs:
    def test_a_failed_batch_leaves_no_file(self, tool_registry, workspace):
        root = workspace.root
        write_raster(root / "src/a.tif", [[0.5, 0.6]])
        write_raster(root / "src/b.tif", [[0.5, 0.6]])
        write_raster(root / "src/r.tif", [[0.2, 0.1]])
        write_raster(root / "src/small.tif", [[0.2]])
        before = _files(root)
        result = tool_registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["src/a.tif", "src/b.tif"],
            "red_paths": ["src/r.tif", "src/small.tif"],
            "output_dir": "new/out"})
        assert result.error_class == "InvalidParameters"
        assert result.text.startswith("calculate_batch_ndvi: batch item 1: grids differ")
        assert _files(root) == before

    def test_a_failed_batch_keeps_earlier_outputs(self, tool_registry, workspace):
        root = workspace.root
        write_raster(root / "src/a.tif", [[0.5, 0.6]])
        write_raster(root / "src/r.tif", [[0.2, 0.1]])
        write_raster(root / "out/ndvi_a.tif", [[7.0, 7.0]])
        old = (root / "out/ndvi_a.tif").read_bytes()
        before = _files(root)
        result = tool_registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["src/a.tif", "src/ghost_free.tif"],
            "red_paths": ["src/r.tif", "src/r.tif"],
            "output_dir": "out"})
        assert result.error_class == "FileHallucination"
        result = tool_registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["src/a.tif", "out/ndvi_a.tif"],
            "red_paths": ["src/r.tif", "src/a.tif"],
            "output_dir": "out"})
        assert result.error_class is None, result.text
        # the second item read the old ndvi_a.tif, then the first replaced it
        assert (root / "out/ndvi_a.tif").read_bytes() != old
        expected = normalized_difference(np.array([[7.0, 7.0]]), np.array([[0.5, 0.6]]))
        got = load_raster(root / "out/ndvi_ndvi_a.tif").band()
        assert np.array_equal(got, expected.astype(np.float32).astype(np.float64))
        assert _files(root) == before | {"out/ndvi_ndvi_a.tif"}

    def test_an_output_that_is_a_later_input_is_read_as_it_was(self, tool_registry,
                                                                  workspace):
        root = workspace.root
        original = np.array([[0.7, 0.9, 0.4]])
        red = np.array([[0.1, 0.2, 0.3]])
        write_raster(root / "src/a.tif", [[0.5, 0.6, 0.2]])
        write_raster(root / "src/r.tif", red)
        write_raster(root / "out/ndvi_a.tif", original)
        result = tool_registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["src/a.tif", "out/ndvi_a.tif"],
            "red_paths": ["src/r.tif", "src/r.tif"],
            "output_dir": "out"})
        assert result.error_class is None, result.text
        want = normalized_difference(original.astype(np.float32).astype(np.float64),
                                     red.astype(np.float32).astype(np.float64))
        got = load_raster(root / "out/ndvi_ndvi_a.tif").band()
        assert np.array_equal(got, want.astype(np.float32).astype(np.float64))
        assert not [name for name in os.listdir(root / "out") if name.startswith(".")]
