"""End-to-end episode against a local scripted chat-completions server,
exercising the real HTTP transport path of the LLM policy."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from geoagent import finite_json
from geoagent.agent import (FinalAnswerDecision, Goal, LLMPolicy, PolicyUnreachable,
                            run_episode)
from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import ToolContext, build_registry
from geoagent.workspace import Workspace

from conftest import write_raster


class ScriptedChatHandler(BaseHTTPRequestHandler):
    """Replies with queued messages; records request bodies."""

    script: list[dict] = []
    requests: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests.append({"path": self.path, "body": body})
        if not type(self).script:
            self.send_response(500)
            self.end_headers()
            return
        message = type(self).script.pop(0)
        payload = json.dumps({"choices": [{"message": message}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    ScriptedChatHandler.script = []
    ScriptedChatHandler.requests = []
    server = HTTPServer(("127.0.0.1", 0), ScriptedChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, ScriptedChatHandler
    server.shutdown()
    server.server_close()


def test_full_episode_over_http(tmp_path, chat_server):
    server, handler = chat_server
    ws = Workspace(tmp_path)
    write_raster(tmp_path / "lake.tif", [[0.1, 0.9], [0.4, 0.7]])
    registry = build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend([], ws)))

    handler.script = [
        {"content": None, "tool_calls": [{
            "id": "c1", "type": "function",
            "function": {"name": "count_above_threshold",
                         "arguments": json.dumps({"image_path": "lake.tif",
                                                  "threshold": 0.5})}}]},
        {"content": "2"},
    ]
    host, port = server.server_address
    policy = LLMPolicy(f"http://{host}:{port}/v1", "scripted-model",
                       api_key="secret-token", registry=registry, timeout=10)
    goal = Goal(query="how many pixels exceed 0.5?", regime="AutoPlanning")
    trajectory = run_episode(goal, policy, registry, max_steps=5,
                             model_tag="loopback")

    assert trajectory.stop_reason == "final_answer"
    assert trajectory.answer_value == 2.0
    assert [a.tool for a in trajectory.actions] == ["count_above_threshold"]
    assert trajectory.actions[0].output.value == 2

    first, second = handler.requests
    assert first["path"] == "/v1/chat/completions"
    assert first["body"]["model"] == "scripted-model"
    assert len(first["body"]["tools"]) == len(registry)
    # the observation flowed back to the model on the next turn
    tool_msgs = [m for m in second["body"]["messages"] if m["role"] == "tool"]
    assert tool_msgs and "2" in tool_msgs[0]["content"]


def test_server_error_becomes_policy_failure(tmp_path, chat_server):
    server, handler = chat_server
    ws = Workspace(tmp_path)
    registry = build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend([], ws)))
    handler.script = []  # every request gets a 500
    host, port = server.server_address
    policy = LLMPolicy(f"http://{host}:{port}/v1", "m", registry=registry,
                       retries=1, timeout=5)
    goal = Goal(query="anything", regime="AutoPlanning")
    trajectory = run_episode(goal, policy, registry, max_steps=3)
    assert trajectory.stop_reason == "policy_failure"
    assert trajectory.actions == []


def test_reply_past_the_byte_bound_is_unreachable(chat_server, monkeypatch):
    server, handler = chat_server
    message = {"content": "42"}
    size = len(json.dumps({"choices": [{"message": message}]}).encode())
    host, port = server.server_address
    policy = LLMPolicy(f"http://{host}:{port}/v1", "m", retries=1, timeout=5)
    goal = Goal(query="anything", regime="AutoPlanning")

    monkeypatch.setattr(finite_json, "MAX_REPLY_BYTES", size - 1)
    handler.script = [message, message]  # one byte over, twice
    with pytest.raises(PolicyUnreachable, match="exceeds"):
        policy.next(goal, [])
    assert len(handler.requests) == 2

    monkeypatch.setattr(finite_json, "MAX_REPLY_BYTES", size)
    handler.script = [message]
    assert policy.next(goal, []) == FinalAnswerDecision(text="42", value=42.0)
