from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import ToolContext, build_registry
from geoagent.tools.mcp import McpClient, McpServer, serve_tcp
from geoagent.workspace import Workspace

from conftest import write_raster

GOLDEN_DIR = Path(__file__).parent / "data" / "mcp"


@pytest.fixture
def server(tmp_path):
    ws = Workspace(tmp_path)
    (tmp_path / "manifest.json").write_text("[]")
    write_raster(tmp_path / "img.tif", [[1.0, 2.0], [3.0, 4.0]])
    write_raster(tmp_path / "bt.tif", [[300.0, 301.0]])
    registry = build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend(tmp_path / "manifest.json", ws)))
    return McpServer(registry)


class TestGoldenWire:
    @pytest.mark.parametrize("golden_path", sorted(GOLDEN_DIR.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_golden_response(self, server, golden_path):
        doc = json.loads(golden_path.read_text())
        response = server.handle_line(json.dumps(doc["request"]))
        assert response == doc["expected_response"]

    def test_parse_error(self, server):
        response = server.handle_line("{not json")
        assert response["error"]["code"] == -32700

    def test_unknown_method(self, server):
        response = server.handle_line(json.dumps(
            {"jsonrpc": "2.0", "id": 9, "method": "resources/list"}))
        assert response["error"]["code"] == -32601

    def test_call_without_name(self, server):
        response = server.handle_line(json.dumps(
            {"jsonrpc": "2.0", "id": 10, "method": "tools/call", "params": {}}))
        assert response["error"]["code"] == -32602

    def test_notification_silent(self, server):
        assert server.handle_line(json.dumps(
            {"jsonrpc": "2.0", "method": "notifications/initialized"})) is None

    def test_schema_round_trips_through_listing(self, server):
        listing = server.handle_line(json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": "tools/list"}))
        for tool in listing["result"]["tools"]:
            spec = server.registry.spec(tool["name"])
            assert spec.input_schema() == tool["inputSchema"]


def random_calls(rng, n):
    """A mix of valid and deliberately broken calls across tool families."""
    pool = [
        ("kelvin_to_celsius", lambda: {"kelvin": float(rng.uniform(200, 330))}),
        ("celsius_to_kelvin", lambda: {"celsius": float(rng.uniform(-50, 50))}),
        ("mean", lambda: {"data": rng.uniform(0, 9, rng.integers(1, 6)).tolist()}),
        ("difference", lambda: {"a": float(rng.uniform(-5, 5)),
                                "b": float(rng.uniform(-5, 5))}),
        ("max_value_and_index", lambda: {"values": rng.uniform(0, 9, 4).tolist()}),
        ("count_spikes_from_values",
         lambda: {"values": rng.uniform(0, 9, 6).tolist(),
                  "threshold": float(rng.uniform(0, 3))}),
        ("calculate_area", lambda: {"image_path": "img.tif"}),
        ("get_percentile_value_from_image",
         lambda: {"image_path": "img.tif", "percentile": float(rng.uniform(0, 100))}),
        ("calc_batch_image_mean", lambda: {"image_paths": ["img.tif", "bt.tif"]}),
        # broken on purpose:
        ("tool_that_never_was", lambda: {}),
        ("calculate_area", lambda: {"image_path": "missing.tif"}),
        ("mean", lambda: {"data": "oops"}),
        ("division", lambda: {"a": 1.0, "b": 0.0}),
    ]
    for _ in range(n):
        name, argfn = pool[rng.integers(0, len(pool))]
        yield name, argfn()


class TestWireEqualsInProcess:
    def test_fifty_randomized_calls(self, server):
        tcp = serve_tcp(server.registry, port=0)
        host, port = tcp.server_address
        thread = threading.Thread(target=tcp.serve_forever, daemon=True)
        thread.start()
        client = McpClient(host, port)
        try:
            rng = np.random.default_rng(2024)
            for name, args in random_calls(rng, 50):
                wire = client.request("tools/call",
                                      {"name": name, "arguments": args})["result"]
                local = server.registry.call_tool(name, args)
                assert wire["isError"] == local.is_error
                assert wire["content"][0]["text"] == local.text
                structured = wire.get("structured", {})
                assert structured.get("error_class") == local.error_class or (
                    local.error_class is None and "error_class" not in structured)
                if local.value is not None:
                    assert structured["value"] == local.value
        finally:
            client.close()
            tcp.shutdown()
            tcp.server_close()

    def test_multiple_sequential_sessions(self, server):
        tcp = serve_tcp(server.registry, port=0)
        host, port = tcp.server_address
        thread = threading.Thread(target=tcp.serve_forever, daemon=True)
        thread.start()
        try:
            for _ in range(3):
                client = McpClient(host, port)
                out = client.request("initialize", {"protocolVersion": "2025-06-18"})
                assert out["result"]["serverInfo"]["name"] == "geoagent"
                client.close()
        finally:
            tcp.shutdown()
            tcp.server_close()
