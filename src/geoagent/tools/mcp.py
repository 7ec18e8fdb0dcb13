"""JSON-RPC 2.0 server exposing the tool registry.

Implements `initialize`, `tools/list`, and `tools/call` over newline-delimited
UTF-8 JSON, on stdio or TCP. Protocol problems use JSON-RPC error objects;
tool failures travel inside successful responses flagged `isError`, carrying
their taxonomy class in the structured payload, so the wire result is
equivalent to an in-process call.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import traceback
from typing import Any, BinaryIO

from .registry import ToolRegistry

PROTOCOL_VERSION = "2025-06-18"
SERVER_NAME = "geoagent"
SERVER_VERSION = "0.1.0"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

MAX_LINE_BYTES = 16 * 2**20


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not standard JSON")


# standard JSON only: the NaN, Infinity and -Infinity literals are parse errors
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _rpc_error(request_id: Any, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": request_id,
            "error": {"code": code, "message": message}}


def _rpc_result(request_id: Any, result: dict) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


class McpServer:
    """Transport-independent request handler over a populated registry."""

    def __init__(self, registry: ToolRegistry):
        self.registry = registry

    def handle_line(self, line: str) -> dict | None:
        try:
            request = _DECODER.decode(line)
        except (ValueError, RecursionError) as exc:  # nesting too deep, integer too long
            return _rpc_error(None, PARSE_ERROR, f"parse error: {exc}")
        if not isinstance(request, dict) or not isinstance(request.get("method"), str):
            return _rpc_error(None, INVALID_REQUEST, "not a JSON-RPC request object")
        request_id = request.get("id")
        method = request["method"]
        params = request.get("params") or {}
        if method == "initialize":
            if not isinstance(params, dict):
                return _rpc_error(request_id, INVALID_PARAMS,
                                  "initialize params must be an object")
            return _rpc_result(request_id, self._initialize(params))
        if method == "tools/list":
            return _rpc_result(request_id, self._tools_list())
        if method == "tools/call":
            if not isinstance(params, dict) or not isinstance(params.get("name"), str):
                return _rpc_error(request_id, INVALID_PARAMS,
                                  "tools/call params need a string `name`")
            return _rpc_result(request_id, self._tools_call(params))
        if method.startswith("notifications/"):
            return None  # notifications carry no response
        return _rpc_error(request_id, METHOD_NOT_FOUND, f"unknown method: {method}")

    def _initialize(self, params: dict) -> dict:
        client_version = params.get("protocolVersion")
        version = PROTOCOL_VERSION
        if isinstance(client_version, str) and client_version < PROTOCOL_VERSION:
            version = client_version
        return {
            "protocolVersion": version,
            "capabilities": {"tools": {}},
            "serverInfo": {"name": SERVER_NAME, "version": SERVER_VERSION},
        }

    def _tools_list(self) -> dict:
        tools = [
            {
                "name": spec.name,
                "description": spec.description,
                "inputSchema": spec.input_schema(),
            }
            for spec in self.registry.list_specs()
        ]
        return {"tools": tools}

    def _tools_call(self, params: dict) -> dict:
        result = self.registry.call_tool(params["name"], params.get("arguments", {}))
        out: dict[str, Any] = {
            "content": [{"type": "text", "text": result.text}],
            "isError": result.is_error,
        }
        structured = result.to_json()
        del structured["status"], structured["text"]
        if structured:
            out["structured"] = structured
        return out


def _reply(server: McpServer, raw: bytes) -> str | None:
    """The JSON text that answers one input line, or None for no answer."""
    if len(raw) > MAX_LINE_BYTES:
        return json.dumps(_rpc_error(None, PARSE_ERROR, "parse error: line longer "
                                     f"than {MAX_LINE_BYTES} bytes"), sort_keys=True)
    line = raw.decode("utf-8", "replace").strip()
    try:
        response = server.handle_line(line) if line else None
        return (None if response is None
                else json.dumps(response, sort_keys=True, allow_nan=False))
    except Exception as exc:  # one request must not end the session
        traceback.print_exc()
        return json.dumps(_rpc_error(None, INTERNAL_ERROR,
                                     f"internal error: {type(exc).__name__}"))


def serve_stream(server: McpServer, rfile: BinaryIO, wfile: BinaryIO) -> None:
    """Serve newline-delimited JSON-RPC until the input stream closes.

    No line is read past `MAX_LINE_BYTES`, its newline included: a longer
    line is skipped up to its newline and answered with one parse error. A
    request that fails in a way `handle_line` did not foresee is answered
    with an internal error, its traceback goes to stderr, and serving goes on.
    """
    while raw := rfile.readline(MAX_LINE_BYTES + 1):
        text = _reply(server, raw)
        while len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            raw = rfile.readline(MAX_LINE_BYTES + 1)
        if text is not None:
            wfile.write((text + "\n").encode("utf-8"))
            wfile.flush()


def serve_stdio(registry: ToolRegistry) -> None:
    serve_stream(McpServer(registry), sys.stdin.buffer, sys.stdout.buffer)


def serve_tcp(registry: ToolRegistry, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
    """Blocking TCP server; one request in flight per connection."""
    server = McpServer(registry)

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            serve_stream(server, self.rfile, self.wfile)

    class ThreadingServer(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    return ThreadingServer((host, port), Handler)


class McpClient:
    """Minimal newline-delimited JSON-RPC client, used by the tests."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def request(self, method: str, params: dict | None = None) -> dict:
        self._next_id += 1
        body = {"jsonrpc": "2.0", "id": self._next_id, "method": method}
        if params is not None:
            body["params"] = params
        self._sock.sendall((json.dumps(body) + "\n").encode("utf-8"))
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()
