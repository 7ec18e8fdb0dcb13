"""JSON-RPC 2.0 server exposing the tool registry.

Implements `initialize`, `tools/list`, and `tools/call` over newline-delimited
UTF-8 JSON, on stdio or TCP (one process per connection). Protocol problems
use JSON-RPC error objects; tool failures travel inside successful responses
flagged `isError`, carrying their taxonomy class in the structured payload, so
the wire result is equivalent to an in-process call.
"""

from __future__ import annotations

import functools
import json
import math
import os
import signal
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
SERVER_ERROR = -32000  # implementation-defined: the connection cap

MAX_LINE_BYTES = 16 * 2**20
MAX_CONNECTIONS = 32  # live TCP connections; one more is refused unserved


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
            return _rpc_result(request_id, self.tools_list[0])
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

    @functools.cached_property
    def tools_list(self) -> tuple[dict, str]:
        """The `tools/list` result and its `sort_keys` JSON text, built once
        per server; every reply shares the one result object, unmodified."""
        tools = [
            {
                "name": spec.name,
                "description": spec.description,
                "inputSchema": spec.input_schema(),
            }
            for spec in self.registry.list_specs()
        ]
        result = {"tools": tools}
        return result, json.dumps(result, sort_keys=True, allow_nan=False)

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
        if response is None:
            return None
        listing, text = server.tools_list
        if response.get("result") is listing:  # the id spliced into the encoded listing
            return (f'{{"id": {json.dumps(response["id"], sort_keys=True, allow_nan=False)}, '
                    f'"jsonrpc": "2.0", "result": {text}}}')
        return json.dumps(response, sort_keys=True, allow_nan=False)
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


_STOP_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def serve_tcp(registry: ToolRegistry, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
    """Blocking TCP server, POSIX only: each accepted connection is served by
    its own forked process, one request in flight per connection.

    The listening process only accepts, forks and reaps, so connections share
    no interpreter lock; the registry reaches each connection process
    copy-on-write. Past `MAX_CONNECTIONS` live connections a new one gets one
    JSON-RPC error line and is closed unserved. `server_close` stops
    accepting, sends SIGTERM to the live connection processes and reaps them.
    """
    server = McpServer(registry)
    server.tools_list  # encoded once here, not once per connection process

    class Handler(socketserver.StreamRequestHandler):
        def setup(self):
            # the default actions: the listener's SIGTERM ends this process at
            # once, mid-kernel too, and so does Ctrl-C at a terminal
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
            self.server.socket.close()
            super().setup()

        def handle(self):
            serve_stream(server, self.rfile, self.wfile)

    class ForkingServer(socketserver.ForkingTCPServer):
        allow_reuse_address = True
        # MAX_CONNECTIONS bounds connections; the mixin's own bound would
        # block the accept loop in waitpid
        max_children = math.inf

        def process_request(self, request, client_address):
            self.collect_children()  # a closed connection frees its slot at once
            if len(self.active_children or ()) >= MAX_CONNECTIONS:
                refusal = _rpc_error(None, SERVER_ERROR, "too many connections: at "
                                     f"most {MAX_CONNECTIONS} are served at once")
                try:
                    request.sendall(json.dumps(refusal, sort_keys=True).encode() + b"\n")
                except OSError:  # the client is gone already
                    pass
                self.shutdown_request(request)
                return
            # a stop signal is held until the new pid is in active_children
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
            try:
                super().process_request(request, client_address)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)

        def server_close(self):
            self.socket.close()
            for pid in self.active_children or ():  # unreaped, so still ours to signal
                os.kill(pid, signal.SIGTERM)
            super().server_close()  # reaps every connection process

    return ForkingServer((host, port), Handler)

