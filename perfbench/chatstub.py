"""Stub chat-completions server for the `chat_replay` workload.

Replays each task's expert steps, keyed by the first line of the goal text,
with no think time. When the request names the model PERTURBED_MODEL, the
stub first calls a tool that does not exist, then reads a file that does
not exist, then sends a reply with neither a tool call nor text, and only
then follows the plan. The next step is worked out from the request alone,
so the server keeps no per-episode state.

Usage: python3 perfbench/chatstub.py SCRIPT.json  (prints {"port": N})
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

PERTURBED_MODEL = "stub-perturbed"
PERTURBATION = (
    {"name": "estimate_scene_magic_index", "arguments": "{}"},
    {"name": "get_percentile_value_from_image",
     "arguments": json.dumps({"image_path": "data/no_such_scene.tif", "percentile": 50.0})},
)


def reply_for(script: dict, body: dict) -> dict:
    messages = body["messages"]
    entry = script[messages[1]["content"].split("\n", 1)[0]]
    done = sum(1 for m in messages if m["role"] == "assistant" and m.get("tool_calls"))
    if body["model"] == PERTURBED_MODEL:
        if done < len(PERTURBATION):
            call = PERTURBATION[done]
            return {"content": None, "tool_calls": [
                {"id": f"x{done}", "type": "function", "function": call}]}
        reprompted = messages[-1]["role"] == "user" and len(messages) > 2
        if done == len(PERTURBATION) and not reprompted:
            return {"content": ""}
        done -= len(PERTURBATION)
    if done < len(entry["steps"]):
        tool, arguments = entry["steps"][done]
        return {"content": None, "tool_calls": [{
            "id": f"s{done}", "type": "function",
            "function": {"name": tool, "arguments": arguments}}]}
    return {"content": entry["answer"]}


_DECODER = json.JSONDecoder()


def read_body(raw: bytes) -> dict:
    """The request's model and messages.

    The tool schemas, most of each request, are skipped rather than parsed,
    so that the stub's own share of a turn stays small.
    """
    text = raw.decode()
    body = {}
    for key in ("model", "messages"):
        at = text.find(f'"{key}": ')
        if at < 0:
            return json.loads(text)
        body[key], _ = _DECODER.raw_decode(text, at + len(key) + 4)
    return body


class Handler(BaseHTTPRequestHandler):
    script: dict = {}

    def do_POST(self):
        body = read_body(self.rfile.read(int(self.headers["Content-Length"])))
        payload = json.dumps({"choices": [{"message": reply_for(self.script, body)}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def main() -> None:
    with open(sys.argv[1]) as fh:
        Handler.script = json.load(fh)
    server = HTTPServer(("127.0.0.1", 0), Handler)  # one request at a time
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
