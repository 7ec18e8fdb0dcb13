from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import write_raster


class TestBatchItemErrors:
    def test_error_carries_item_index(self, tmp_path):
        from geoagent.kits.perception import MockExpertBackend
        from geoagent.tools import ToolContext, build_registry
        from geoagent.workspace import Workspace

        ws = Workspace(tmp_path)
        write_raster(tmp_path / "n0.tif", [[0.5]])
        write_raster(tmp_path / "r0.tif", [[0.2]])
        registry = build_registry(ToolContext(
            workspace=ws, perception=MockExpertBackend([], ws)))
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["n0.tif", "n1_missing.tif"],
            "red_paths": ["r0.tif", "r0.tif"],
            "output_dir": "out"})
        assert res.is_error and res.error_class == "FileHallucination"
        assert "batch item 1" in res.text

    def test_repeated_output_name_refused_before_any_write(self, tmp_path):
        from geoagent.kits.perception import MockExpertBackend
        from geoagent.tools import ToolContext, build_registry
        from geoagent.workspace import Workspace

        ws = Workspace(tmp_path)
        for name in ("src/a.tif", "d2/a.tif", "src/r.tif"):
            write_raster(tmp_path / name, [[0.5]])
        registry = build_registry(ToolContext(
            workspace=ws, perception=MockExpertBackend([], ws)))
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["src/a.tif", "d2/a.tif"],
            "red_paths": ["src/r.tif", "src/r.tif"],
            "output_dir": "out"})
        assert res.error_class == "InvalidParameters"
        assert res.text == ("calculate_batch_ndvi: batch items 0 and 1 would both "
                            "be saved as ndvi_a.tif")
        assert not (tmp_path / "out").exists()

    def test_unequal_band_lists_refused_before_any_write(self, tmp_path):
        from geoagent.kits.perception import MockExpertBackend
        from geoagent.tools import ToolContext, build_registry
        from geoagent.workspace import Workspace

        ws = Workspace(tmp_path)
        for name in ("src/a.tif", "src/b.tif", "src/r.tif"):
            write_raster(tmp_path / name, [[0.5]])
        registry = build_registry(ToolContext(
            workspace=ws, perception=MockExpertBackend([], ws)))
        res = registry.call_tool("calculate_batch_ndvi", {
            "nir_paths": ["src/a.tif", "src/b.tif"],
            "red_paths": ["src/r.tif"],
            "output_dir": "out"})
        assert res.error_class == "InvalidParameters"
        assert res.text == ("calculate_batch_ndvi: band path lists must have equal "
                            "lengths, got [1, 2]")
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_workspace_from_config(self, tmp_path, capsys):
        from geoagent.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workspace": str(tmp_path)}))
        assert main(["tools", "--config", str(cfg)]) == 0
        assert "tools registered" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        from geoagent.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workzpace": "x"}))
        assert main(["tools", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("document,message", [
        ([], "config must be object, got array"),
        (5, "config must be object, got number"),
        ({"workspace": 5}, "config workspace must be string or null, got number"),
    ], ids=["array", "number", "number_value"])
    def test_config_that_is_not_an_object_of_strings(self, tmp_path, capsys, document,
                                                     message):
        from geoagent.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        assert main(["tools", "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "SchemaError",
                                                       "message": message}

    def test_flag_beats_config(self, tmp_path, capsys):
        from geoagent.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workspace": "/nonexistent/elsewhere"}))
        assert main(["tools", "--config", str(cfg),
                     "--workspace", str(tmp_path)]) == 0


class TestMockManifest:
    @pytest.fixture
    def annotate(self, tmp_path, capsys):
        from geoagent.cli import main

        write_raster(tmp_path / "x.tif", [[1.0, 5.0]])
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"steps": [
            {"tool": "calc_batch_image_mean", "input": {"image_paths": ["x.tif"]}}]}))

        def run(*flags):
            code = main(["annotate", "--plan", str(plan), "--workspace", str(tmp_path),
                         *flags])
            err = capsys.readouterr().err
            return code, json.loads(err)["error"] if err else None

        return run

    @pytest.mark.parametrize("text,error", [
        (None, "FileNotFoundError"),
        ("[", "JSONDecodeError"),
        ('{"a": 1}', "SchemaError"),
        ('[{"task": "classify", "result": {}}]', "SchemaError"),
    ], ids=["missing", "not-json", "not-a-list", "entry-without-image"])
    def test_bad_explicit_manifest(self, tmp_path, annotate, text, error):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        assert annotate("--mock-manifest", str(path)) == (1, error)

    def test_manifest_is_a_directory(self, tmp_path, annotate):
        assert annotate("--mock-manifest", str(tmp_path)) == (1, "IsADirectoryError")

    def test_default_manifest_optional_but_checked(self, tmp_path, annotate):
        assert annotate() == (0, None)
        (tmp_path / "mock_manifest.json").write_text('[{"image": "x"}]')
        assert annotate() == (1, "SchemaError")


class TestStdioServerSubprocess:
    def test_initialize_list_call_over_stdio(self, tmp_path):
        write_raster(tmp_path / "img.tif", [[1.0, 5.0]])
        requests = "\n".join([
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                        "params": {"protocolVersion": "2025-06-18"}}),
            json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/list"}),
            json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                        "params": {"name": "count_above_threshold",
                                   "arguments": {"image_path": "img.tif",
                                                 "threshold": 2.0}}}),
        ]) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "geoagent.cli", "serve",
             "--transport", "stdio", "--workspace", str(tmp_path)],
            input=requests.encode(), capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        lines = [json.loads(l) for l in proc.stdout.decode().splitlines() if l]
        assert lines[0]["result"]["serverInfo"]["name"] == "geoagent"
        assert len(lines[1]["result"]["tools"]) >= 60
        call = lines[2]["result"]
        assert call["isError"] is False
        assert call["structured"]["value"] == 1
