"""Runs one workload against the package in a process of its own, so that
its peak resident memory is the system's, not the input generator's.

Usage: python3 perfbench/worker.py WORKLOAD WORKDIR SECONDS TRACE NPROC
Writes WORKDIR/result.json and, when TRACE is 1, WORKDIR/spans.jsonl.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    import importlib

    from perfbench import harness
    from perfbench.tracing import Tracer

    workload, work, seconds, trace, nproc = sys.argv[1:6]
    work = Path(work)
    tracer = Tracer() if trace == "1" else None
    module = importlib.import_module(f"perfbench.{workload}")
    result = module.run(work, float(seconds), tracer, int(nproc))
    result.setdefault("peak_rss_mb", harness.peak_rss_mb(os.getpid()))
    if tracer is not None:
        tracer.write(work / "spans.jsonl")
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
