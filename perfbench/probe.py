"""Set-up probe: starts the package as `geoagent bench` would, up to the
first operation it could issue, and prints how long each part took.

Usage: python3 perfbench/probe.py WORKSPACE [TASKS_DIR]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src")]


def main() -> None:
    t0 = perf_counter()
    from geoagent import cli
    t1 = perf_counter()
    ctx = cli.make_context(sys.argv[1])
    registry = cli.build_registry(ctx)
    t2 = perf_counter()
    if len(sys.argv) > 2:
        cli.load_suite(sys.argv[2], workspace_root=ctx.workspace.root, registry=registry)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_registry_s": t2 - t1,
                      "load_suite_s": t3 - t2}), flush=True)


if __name__ == "__main__":
    main()
