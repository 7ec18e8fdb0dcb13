"""`geoagent serve` loads only what serving runs.

Every stdio session and every TCP connection process pays for the modules
the server imports, in start-up time and in resident memory. Building the
parser, the context and the registry, and listing the tools, must load
neither the HTTP client stack (which only an expert or LLM endpoint uses)
nor the benchmark runner and evaluation (which only `run`, `bench`, `eval`,
`annotate` and `fixtures` use). An expert endpoint loads the HTTP client
when its backend is built, before a TCP listener forks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from mcp_wire import SRC

SCRIPT = """
import json, sys
from geoagent import cli
from geoagent.tools.mcp import McpServer

cli.build_parser()
registry = cli.build_registry(cli.make_context(sys.argv[1]))
McpServer(registry).tools_list
serving = sorted(m for m in sys.modules if m in sys.argv[2:])
cli.make_context(sys.argv[1], expert_endpoint="http://127.0.0.1:9")
print(json.dumps({"serving": serving, "http_client": "http.client" in sys.modules}))
"""

NOT_FOR_SERVING = ["geoagent.bench", "geoagent.evaluation", "http.client", "ssl",
                   "urllib.request"]


def test_serving_loads_no_http_client_runner_or_evaluation(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), *NOT_FOR_SERVING],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["serving"] == []
    assert loaded["http_client"] is True
