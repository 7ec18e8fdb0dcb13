"""HTTP expert-model adapter against a local scripted inference server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from geoagent import finite_json
from geoagent.errors import ExternalServiceError
from geoagent.kits.perception import HttpExpertBackend
from geoagent.tools import ToolContext, build_registry
from geoagent.tools.mcp import McpServer
from geoagent.workspace import Workspace

from conftest import write_raster


class InferenceHandler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    reply: dict | bytes = {}  # bytes go out verbatim

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests.append({"path": self.path, "body": body})
        reply = type(self).reply
        payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def inference_server():
    InferenceHandler.requests = []
    InferenceHandler.reply = {}
    server = HTTPServer(("127.0.0.1", 0), InferenceHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server, InferenceHandler
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_single_post_contract(self, inference_server, tmp_path):
        server, handler = inference_server
        handler.reply = {"label": "Harbor", "score": 0.93}
        host, port = server.server_address
        backend = HttpExpertBackend(f"http://{host}:{port}")
        out = backend.call("RemoteCLIP", "classify", [str(tmp_path / "scene.png")], None)
        assert out == {"label": "Harbor", "score": 0.93}
        req = handler.requests[0]
        assert req["path"] == "/infer"
        assert req["body"]["model"] == "RemoteCLIP"
        assert req["body"]["task"] == "classify"
        assert req["body"]["images"] == [str(tmp_path / "scene.png")]
        assert req["body"]["prompt"] is None

    def test_prompt_forwarded(self, inference_server, tmp_path):
        server, handler = inference_server
        handler.reply = {"count": 4}
        host, port = server.server_address
        backend = HttpExpertBackend(f"http://{host}:{port}")
        out = backend.call("InstructSAM", "count", [str(tmp_path / "x.png")],
                           "storage tank")
        assert out == {"count": 4}
        assert handler.requests[0]["body"]["prompt"] == "storage tank"

    def test_reply_past_the_byte_bound_is_service_error(self, inference_server, tmp_path,
                                                         monkeypatch):
        server, handler = inference_server
        handler.reply = {"label": "Harbor"}
        size = len(json.dumps(handler.reply).encode())
        host, port = server.server_address
        backend = HttpExpertBackend(f"http://{host}:{port}")
        monkeypatch.setattr(finite_json, "MAX_REPLY_BYTES", size - 1)
        with pytest.raises(ExternalServiceError, match="exceeds"):
            backend.call("MSCN", "classify", [str(tmp_path / "scene.png")], None)
        monkeypatch.setattr(finite_json, "MAX_REPLY_BYTES", size)
        assert backend.call("MSCN", "classify", [str(tmp_path / "scene.png")],
                            None) == {"label": "Harbor"}

    def test_unreachable_endpoint_raises_service_error(self):
        backend = HttpExpertBackend("http://127.0.0.1:1", timeout=0.3)
        with pytest.raises(ExternalServiceError):
            backend.call("MSCN", "classify", ["a.png"], None)

    def test_unreachable_maps_to_system_error_via_registry(self, tmp_path):
        ws = Workspace(tmp_path)
        write_raster(tmp_path / "pre.tif", [[1.0]])
        registry = build_registry(ToolContext(
            workspace=ws,
            perception=HttpExpertBackend("http://127.0.0.1:1", timeout=0.3)))
        res = registry.call_tool("ChangeOS", {"pre_image_path": "pre.tif",
                                              "post_image_path": "pre.tif"})
        assert res.is_error and res.error_class == "SystemError"

    @pytest.mark.parametrize("reply", [
        b'{"label": NaN}',
        b'{"label": -Infinity}',
        b'{"area": 1e999}',
        b'[1, 2]',
        b'"text"',
        b'{"mask": 5}',
        b'{"label": "Harbor"',
    ], ids=["nan", "infinity", "overflow", "array", "string", "mask-not-string",
            "truncated"])
    def test_untrusted_reply_is_system_error(self, inference_server, tmp_path, reply):
        server, handler = inference_server
        handler.reply = reply
        host, port = server.server_address
        backend = HttpExpertBackend(f"http://{host}:{port}")
        with pytest.raises(ExternalServiceError):
            backend.call("MSCN", "classify", [str(tmp_path / "scene.tif")], None)
        write_raster(tmp_path / "scene.tif", [[1.0]])
        mcp = McpServer(build_registry(ToolContext(
            workspace=Workspace(tmp_path), perception=backend)))
        response = mcp.handle_line(json.dumps({
            "jsonrpc": "2.0", "id": 1, "method": "tools/call",
            "params": {"name": "MSCN", "arguments": {"image_path": "scene.tif"}}}))
        result = response["result"]
        assert result["isError"]
        assert result["structured"] == {"error_class": "SystemError"}
        json.dumps(response, allow_nan=False)
