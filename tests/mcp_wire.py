"""The TCP side of the server tests: a JSON-RPC client, and `geoagent serve
--transport tcp` run as a process of its own.

The server forks one process per connection, so it runs outside the test
process: a fork of the test process would copy the test's own client sockets
into the connection process, which then never sees EOF on them.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class McpClient:
    """Minimal newline-delimited JSON-RPC client."""

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

    def readline(self) -> bytes:
        """The next line the server sends unasked; b"" at EOF."""
        return self._rfile.readline()

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()


@contextmanager
def tcp_server(workspace, max_connections: int | None = None):
    """Yield `(process, port)` of `geoagent serve --transport tcp` on a free
    loopback port, with `mcp.MAX_CONNECTIONS` set first when given; the
    process is terminated on exit."""
    argv = ["serve", "--transport", "tcp", "--port", "0", "--workspace", str(workspace)]
    if max_connections is None:
        command = ["-m", "geoagent.cli", *argv]
    else:
        command = ["-c", "import sys; from geoagent import cli; from geoagent.tools import mcp; "
                   f"mcp.MAX_CONNECTIONS = {max_connections}; sys.exit(cli.main({argv!r}))"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *command], stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("tool server exited before listening")
        yield proc, int(json.loads(line)["listening"].rsplit(":", 1)[1])
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def connection_pids(proc: subprocess.Popen) -> list[int]:
    """The pids of the server's live (or unreaped) connection processes."""
    return [int(pid) for pid in
            Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()]
