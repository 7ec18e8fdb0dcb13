from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import ToolContext, build_registry
from geoagent.tools import mcp
from geoagent.tools.mcp import McpServer, serve_stream
from geoagent.tools.registry import ToolSpec
from geoagent.workspace import Workspace

from conftest import write_raster
from mcp_wire import SRC, McpClient, connection_pids, tcp_server

GOLDEN_DIR = Path(__file__).parent / "data" / "mcp"


def make_server(root):
    ws = Workspace(root)
    write_raster(root / "img.tif", [[1.0, 2.0], [3.0, 4.0]])
    write_raster(root / "bt.tif", [[300.0, 301.0]])
    registry = build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend([], ws)))
    return McpServer(registry)


@pytest.fixture
def server(tmp_path):
    return make_server(tmp_path)


@pytest.fixture(scope="module")
def shared_server(tmp_path_factory):
    return make_server(tmp_path_factory.mktemp("shared"))


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
        specs = server.registry.list_specs()
        assert [t["name"] for t in listing["result"]["tools"]] == [s.name for s in specs]
        for tool, spec in zip(listing["result"]["tools"], specs):
            assert spec.input_schema() == tool["inputSchema"]

    @pytest.mark.parametrize("request_id", [
        1, 0, -7, 2**70, 1.5, "abc", "\u00e9\"", None, True, [3, {"b": 1, "a": 2}],
        {"z": [1, 2], "a": {"y": None, "b": "x"}}])
    def test_listing_reply_splices_the_id(self, shared_server, request_id):
        """The encoded listing with the id spliced in is the bytes that
        encoding the whole response gives."""
        line = json.dumps({"jsonrpc": "2.0", "id": request_id, "method": "tools/list"})
        want = json.dumps(shared_server.handle_line(line), sort_keys=True, allow_nan=False)
        assert mcp._reply(shared_server, line.encode()) == want
        assert json.loads(want)["id"] == request_id

    def test_listing_id_past_float_range_is_an_internal_error(self, shared_server):
        reply = json.loads(mcp._reply(shared_server, b'{"jsonrpc": "2.0", "id": 1e400, '
                                                     b'"method": "tools/list"}'))
        assert reply["error"]["code"] == mcp.INTERNAL_ERROR

    @staticmethod
    def count_schemas(monkeypatch) -> list:
        """Each `ToolSpec.input_schema` call, recorded from now on."""
        calls, original = [], ToolSpec.input_schema
        monkeypatch.setattr(ToolSpec, "input_schema",
                            lambda spec: calls.append(spec.name) or original(spec))
        return calls

    def test_listing_is_encoded_once(self, tmp_path, monkeypatch):
        server = make_server(tmp_path)
        calls = self.count_schemas(monkeypatch)
        line = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/list"}).encode()
        assert len({mcp._reply(server, line) for _ in range(3)}) == 1
        assert len(calls) == len(server.registry)

    def test_tcp_listener_encodes_the_listing_before_any_connection(self, tmp_path,
                                                                     monkeypatch):
        registry = make_server(tmp_path).registry
        calls = self.count_schemas(monkeypatch)
        mcp.serve_tcp(registry, port=0).server_close()
        assert len(calls) == len(registry)

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
    def test_fifty_randomized_calls(self, server, tmp_path):
        with tcp_server(tmp_path) as (_, port):
            client = McpClient("127.0.0.1", port)
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

    def test_multiple_sequential_sessions(self, tmp_path):
        with tcp_server(tmp_path) as (_, port):
            for _ in range(3):
                client = McpClient("127.0.0.1", port)
                out = client.request("initialize", {"protocolVersion": "2025-06-18"})
                assert out["result"]["serverInfo"]["name"] == "geoagent"
                client.close()


def initialized(port):
    client = McpClient("127.0.0.1", port, timeout=10)
    assert "result" in client.request("initialize", {"protocolVersion": "2025-06-18"})
    return client


def wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not (value := condition()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return value


def exited(pid):
    """True once the process has exited, reaped or not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestConnectionProcesses:
    """One process per connection: the cap, shutdown and crash isolation."""

    def test_connection_past_the_cap_is_refused(self, tmp_path):
        with tcp_server(tmp_path, max_connections=2) as (proc, port):
            first = initialized(port)
            [first_pid] = wait_for(lambda: connection_pids(proc))
            second = initialized(port)
            third = McpClient("127.0.0.1", port, timeout=10)
            refusal = json.loads(third.readline())
            assert refusal == {"jsonrpc": "2.0", "id": None, "error": {
                "code": -32000,
                "message": "too many connections: at most 2 are served at once"}}
            assert third.readline() == b""
            third.close()
            assert "result" in second.request("tools/list")
            first.close()
            # an exited connection process frees its slot for the next accept
            assert wait_for(lambda: exited(first_pid))
            fourth = initialized(port)
            fourth.close()
            second.close()

    def test_sigterm_ends_held_connections_and_leaves_no_process(self, tmp_path):
        with tcp_server(tmp_path) as (proc, port):
            held = initialized(port)
            pids = wait_for(lambda: connection_pids(proc))
            assert len(pids) == 1
            proc.terminate()
            started = time.monotonic()
            assert held.readline() == b""
            assert time.monotonic() - started < 5
            assert proc.wait(timeout=5) == 0
            held.close()
        assert not any(Path(f"/proc/{pid}").exists() for pid in pids)

    def test_killed_connection_leaves_the_others_served(self, tmp_path):
        with tcp_server(tmp_path) as (proc, port):
            doomed = initialized(port)
            [doomed_pid] = wait_for(lambda: connection_pids(proc))
            survivor = initialized(port)
            os.kill(doomed_pid, signal.SIGKILL)
            assert doomed.readline() == b""
            doomed.close()
            out = survivor.request("tools/call", {"name": "multiply",
                                                  "arguments": {"a": 6, "b": 7}})
            assert out["result"]["structured"]["value"] == 42
            fresh = initialized(port)
            fresh.close()
            survivor.close()


class TestOpenFileLimit:
    def test_inputs_past_the_limit_are_a_system_error_and_serving_goes_on(self, tmp_path):
        """A band-sequential raster holds its file until its last plane is
        read, so a call that holds more rasters than the process may open
        files ends as a SystemError, and the files it opened are closed: the
        next call on the same server opens as many, one at a time."""
        names = [f"s{i:02d}.tif" for i in range(80)]
        for name in names:
            write_raster(tmp_path / name, np.ones((4, 2, 2)))
        calls = [("multi_freq_bt", {"band_paths": names, "output_path": "out.tif"}),
                 ("calc_batch_image_mean", {"image_paths": names})]
        lines = "".join(request("tools/call", {"name": n, "arguments": a}, id=i) + "\n"
                        for i, (n, a) in enumerate(calls))
        script = ("import resource, sys\n"
                  "from geoagent import cli\n"
                  "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
                  "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
                  f"sys.exit(cli.main(['serve', '--workspace', {str(tmp_path)!r}]))\n")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], input=lines, text=True,
                              capture_output=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stderr
        replies = {r["id"]: r["result"] for r in map(json.loads, done.stdout.splitlines())}
        assert replies[0]["isError"] is True
        assert replies[0]["structured"] == {"error_class": "SystemError"}
        assert "Too many open files" in replies[0]["content"][0]["text"]
        assert not (tmp_path / "out.tif").exists()
        assert replies[1]["isError"] is False
        assert replies[1]["structured"]["value"] == [1.0] * len(names)


def request(method, params=None, **extra):
    body = {"jsonrpc": "2.0", "id": 7, "method": method, **extra}
    if params is not None:
        body["params"] = params
    return json.dumps(body)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)


class TestHostileLines:
    """No line makes `handle_line` raise; each gets a JSON-RPC answer."""

    @pytest.mark.parametrize("line,code", [
        ("[" * 100_000, -32700),  # nesting deeper than the parser's recursion limit
        ("1" * 5000, -32700),  # an integer longer than int() converts
        (json.dumps({"jsonrpc": "2.0", "id": 3, "method": 5}), -32600),
        (request("initialize", [1, 2]), -32602),
        (request("initialize", "2025-06-18"), -32602),
        (request("tools/call", {"name": "multiply", "arguments": {"a": float("nan"), "b": 1}}),
         -32700),
        ('{"jsonrpc": "2.0", "id": 7, "method": "tools/list", "x": [-Infinity]}', -32700),
    ], ids=["deep_nesting", "long_integer", "method_not_str", "initialize_list_params",
            "initialize_str_params", "nan_literal", "infinity_literal"])
    def test_rejected_with_rpc_error(self, shared_server, line, code):
        assert shared_server.handle_line(line)["error"]["code"] == code

    @settings(max_examples=200, deadline=None)
    @given(line=st.one_of(
        st.text(),
        JSON.map(json.dumps),
        st.builds(request,
                  st.sampled_from(["initialize", "tools/list", "tools/call",
                                   "notifications/x", "nope"]) | st.text(max_size=8),
                  JSON,
                  id=JSON),
    ))
    def test_any_line_gets_json_or_nothing(self, shared_server, line):
        response = shared_server.handle_line(line)
        assert response is None or isinstance(response, dict)
        json.dumps(response, allow_nan=False)

    def test_overflowing_number_is_invalid_parameters(self, shared_server):
        # 1e999 is standard JSON; it decodes to inf, which no tool takes
        response = shared_server.handle_line(
            '{"jsonrpc": "2.0", "id": 8, "method": "tools/call", '
            '"params": {"name": "multiply", "arguments": {"a": 1e999, "b": 1}}}')
        result = response["result"]
        assert result["isError"]
        assert result["structured"] == {"error_class": "InvalidParameters"}
        assert result["content"][0]["text"] == (
            "argument 'a' of tool multiply expects a finite number, got Infinity")

    def test_reply_is_standard_json(self, shared_server, monkeypatch):
        # a value no tool should return ends in an internal error, not in NaN
        monkeypatch.setattr(shared_server, "handle_line", lambda line: {"x": float("nan")})
        replies = self.serve_bytes(shared_server, request("tools/list").encode() + b"\n")
        assert replies[0]["error"]["code"] == -32603

    def test_stream_survives_unforeseen_failure(self, shared_server, monkeypatch):
        handle = shared_server.handle_line

        def flaky(line):
            if "boom" in line:
                raise RuntimeError("boom")
            return handle(line)

        monkeypatch.setattr(shared_server, "handle_line", flaky)
        lines = [request("tools/list"), request("boom"), request("initialize", {})]
        out = io.BytesIO()
        serve_stream(shared_server, io.BytesIO("\n".join(lines).encode() + b"\n"), out)
        replies = [json.loads(r) for r in out.getvalue().splitlines()]
        assert len(replies) == 3
        assert replies[1]["error"]["code"] == -32603
        assert "tools" in replies[0]["result"]
        assert replies[2]["result"]["serverInfo"]["name"] == "geoagent"

    def serve_bytes(self, server, data):
        out = io.BytesIO()
        serve_stream(server, io.BytesIO(data), out)
        return [json.loads(r) for r in out.getvalue().splitlines()]

    def test_overlong_line_refused_and_serving_goes_on(self, shared_server, monkeypatch):
        monkeypatch.setattr(mcp, "MAX_LINE_BYTES", 64)
        fits = request("tools/list").ljust(63).encode() + b"\n"  # 64 bytes with its newline
        over = request("tools/list").ljust(64).encode() + b"\n"
        replies = self.serve_bytes(shared_server,
                                   b"x" * 300 + b"\n" + fits + over + fits)
        assert [r.get("error", {}).get("code") for r in replies] == [-32700, None, -32700, None]
        assert "line longer than 64 bytes" in replies[0]["error"]["message"]
        assert "tools" in replies[1]["result"] and "tools" in replies[3]["result"]

    def test_overlong_line_at_end_of_stream(self, shared_server, monkeypatch):
        monkeypatch.setattr(mcp, "MAX_LINE_BYTES", 64)
        replies = self.serve_bytes(shared_server, request("tools/list").encode() * 5)
        assert len(replies) == 1 and replies[0]["error"]["code"] == -32700
