"""Broken HTTP framing from the LLM and expert endpoints ends in the clients'
own error types, never in an escaped `http.client` exception."""

from __future__ import annotations

import json
import socketserver
import threading

import pytest

from geoagent.agent import Goal, LLMPolicy, PolicyUnreachable
from geoagent.bench import generate_fixture_suite
from geoagent.errors import ExternalServiceError
from geoagent.kits.perception import HttpExpertBackend

BAD_REPLIES = {
    "bad_status_line": b"garbage\r\n\r\n",
    "bad_chunk_size": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                       b"Transfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n"),
    "header_line_too_long": (b"HTTP/1.1 200 OK\r\nX-Filler: " + b"a" * 70_000
                             + b"\r\nContent-Length: 2\r\n\r\n{}"),
}


class RawReplyHandler(socketserver.StreamRequestHandler):
    """Reads one request and answers it with `server.reply`, byte for byte."""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        self.rfile.read(length)
        self.wfile.write(self.server.reply)


@pytest.fixture
def raw_server():
    """A one-thread loopback stub; set `.reply` before the request."""
    server = socketserver.TCPServer(("127.0.0.1", 0), RawReplyHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def url(server):
    host, port = server.server_address
    return f"http://{host}:{port}"


@pytest.mark.parametrize("reply", BAD_REPLIES.values(), ids=BAD_REPLIES.keys())
class TestBadFraming:
    def test_llm_policy_unreachable(self, raw_server, reply):
        raw_server.reply = reply
        policy = LLMPolicy(url(raw_server) + "/v1", "m", retries=1, timeout=5)
        with pytest.raises(PolicyUnreachable, match="chat endpoint unreachable"):
            policy.next(Goal(query="anything", regime="AutoPlanning"), [])

    def test_expert_backend_service_error(self, raw_server, reply, tmp_path):
        raw_server.reply = reply
        backend = HttpExpertBackend(url(raw_server), timeout=5)
        with pytest.raises(ExternalServiceError, match="expert endpoint failed"):
            backend.call("MSCN", "classify", [str(tmp_path / "scene.png")], None)


def test_run_with_bad_status_stops_with_policy_failure(raw_server, tmp_path, capsys):
    from geoagent.cli import main

    raw_server.reply = BAD_REPLIES["bad_status_line"]
    root = tmp_path / "suite"
    generate_fixture_suite(root)
    task = next((root / "tasks").glob("*.json"))
    assert main(["run", "--task", str(task), "--workspace", str(root), "--policy", "llm",
                 "--llm-endpoint", url(raw_server) + "/v1", "--tool-timeout", "5"]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["stop_reason"] == "policy_failure"
