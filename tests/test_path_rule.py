"""The one path rule: every bad path a model can write, for every path kind
and every tool that takes that kind, ends in `FileHallucination` (an input
that names nothing of its kind) or `InvalidParameters` (an output that
cannot be written as its kind), never in `SystemError`. A refused or failed
call creates no directory, and `Workspace.mask` writes `$WS` only where the
root ends at a path boundary.
"""

from __future__ import annotations

import pytest

from geoagent.errors import MissingFileError, WorkspaceEscapeError
from geoagent.tools.registry import classify_exception
from geoagent.workspace import Workspace

from test_catalog_sweep import build_args, make_sweep_registry

FH, IP = "FileHallucination", "InvalidParameters"
NUL = "a\0b.tif"

# (kind, value, class); the sweep workspace holds the file src/a.tif, the
# directory src, and `outlink`, a symlink to a directory outside the root
CASES = [
    ("file", "ghost.tif", FH),
    ("file", "src", FH),          # a directory given as a file
    ("file", "", FH),
    ("file", "/", FH),
    ("file", NUL, FH),
    ("files", ["ghost.tif"], FH),
    ("files", ["src"], FH),
    ("files", [""], FH),
    ("files", ["/"], FH),
    ("files", [NUL], FH),
    ("files", [], IP),            # multi_freq_bt divided by zero on this
    ("dir", "ghost", FH),
    ("dir", "src/a.tif", FH),     # a file given as a directory
    ("dir", "", FH),
    ("dir", NUL, FH),
    ("out_file", "src", IP),      # an existing directory
    ("out_file", "", IP),
    ("out_file", NUL, IP),
    ("out_file", "src/a.tif/x.tif", IP),  # a file among the parents
    ("out_file", "../x.tif", IP),
    ("out_file", "outlink/x.tif", IP),
    ("out_dir", "src/a.tif", IP),  # an existing file
    ("out_dir", "", IP),
    ("out_dir", NUL, IP),
    ("out_dir", "src/a.tif/d", IP),
    ("out_dir", "../d", IP),
    ("out_dir", "outlink/d", IP),
]


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("paths")
    (root / "outlink").symlink_to(tmp_path_factory.mktemp("outside"))
    registry, _ = make_sweep_registry(root)
    return registry, Workspace(root)


@pytest.mark.parametrize("kind, value, cls", CASES,
                         ids=[f"{k}-{v!r}" for k, v, _ in CASES])
def test_resolve_classifies(env, kind, value, cls):
    _, ws = env
    with pytest.raises(Exception) as info:
        ws.resolve(value, kind)
    assert classify_exception(info.value) == cls


@pytest.mark.parametrize("kind, value, cls", CASES,
                         ids=[f"{k}-{v!r}" for k, v, _ in CASES])
def test_every_tool_classifies(env, kind, value, cls):
    registry, _ = env
    calls = 0
    for spec in registry.list_specs():
        for param in spec.params:
            if param.kind != kind:
                continue
            args = {**build_args(registry, spec.name), param.name: value}
            result = registry.call_tool(spec.name, args)
            assert result.error_class == cls, (spec.name, param.name, result.text)
            calls += 1
    assert calls > 0


def test_inputs_come_back_unresolved_and_outputs_resolved(env):
    _, ws = env
    assert ws.resolve("src/../src/a.tif", "file") == ws.root / "src/../src/a.tif"
    assert ws.resolve(["src/a.tif"], "files") == [ws.root / "src/a.tif"]
    assert ws.resolve(str(ws.root / "src"), "dir") == ws.root / "src"
    assert ws.resolve("src/../q/x.tif", "out_file") == ws.root / "q/x.tif"
    assert ws.resolve("src", "out_dir") == ws.root / "src"


def test_list_item_errors_name_the_item(env):
    _, ws = env
    with pytest.raises(MissingFileError, match="batch item 1: "):
        ws.resolve(["src/a.tif", "ghost.tif"], "files")
    with pytest.raises(WorkspaceEscapeError):
        ws.resolve("outlink/x.tif", "out_file")


@pytest.mark.parametrize("tool, args, cls", [
    ("subtract", {"image_a_path": "src/a.tif", "image_b_path": "src/odd.tif"}, IP),
    ("subtract", {"image_a_path": "src/a.tif", "image_b_path": "ghost.tif"}, FH),
    # item 0 meets a grid fault in the kit, item 1 is missing: resolution
    # comes first, so the missing file is what the call reports
    ("calculate_batch_ndvi", {"nir_paths": ["src/odd.tif", "ghost.tif"],
                              "red_paths": ["src/a.tif", "src/a.tif"]}, FH),
], ids=["kit-fails", "refused-input", "missing-before-kit-fault"])
def test_failed_call_creates_no_directory(env, tool, args, cls):
    registry, ws = env
    out = {"output_path": "newdir/x.tif"} if tool == "subtract" else {"output_dir": "newdir"}
    result = registry.call_tool(tool, {**args, **out})
    assert result.error_class == cls, result.text
    assert not (ws.root / "newdir").exists()


def test_argument_types_are_checked_before_paths(env):
    registry, _ = env
    result = registry.call_tool("threshold_segmentation", {
        "image_path": "ghost.tif", "threshold": "high", "output_path": "x.tif"})
    assert result.error_class == IP
    assert result.text == ("argument 'threshold' of tool threshold_segmentation "
                           'expects number, got "high"')


def test_paths_resolve_in_parameter_order(env):
    registry, _ = env
    # the map names the bad output first; the input parameter comes first
    result = registry.call_tool("threshold_segmentation", {
        "output_path": "../x.tif", "threshold": 1.0, "image_path": "ghost.tif"})
    assert result.error_class == FH
    assert result.text == "threshold_segmentation: no such file or directory: ghost.tif"


ROOT = str(Workspace("/tmp/ws").root)


@pytest.mark.parametrize("text, masked", [
    (f"{ROOT}/x.tif", "$WS/x.tif"),
    (ROOT, "$WS"),
    (f"no such file: '{ROOT}'", "no such file: '$WS'"),
    (f"{ROOT}2/x.tif", f"{ROOT}2/x.tif"),
    (f"{ROOT}.bak/x", f"{ROOT}.bak/x"),
    (f"saved at {ROOT}/a.tif, {ROOT}: done", "saved at $WS/a.tif, $WS: done"),
])
def test_mask_at_path_boundary(text, masked):
    assert Workspace(ROOT).mask({"k": [text]}) == {"k": [masked]}
