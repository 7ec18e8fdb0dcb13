"""Spans recorded from outside the package.

For a traced run the benchmark replaces the layers' public entry points at
the names through which the package calls them (module attributes and class
methods); `src/` is never edited. Each span holds a name, start, end, parent
and a trace id (the id of the root span of its thread), plus a few counts.
Spans stay in memory and are written as JSONL when the traced run ends;
`per_layer` derives the per-layer table from that file alone.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import tiff

KITS = ("index", "inversion", "statistics", "analysis", "perception")


def _samples(args) -> int:
    """Raster samples among a kit call's arguments (rasters, arrays, lists of them)."""
    from geoagent.raster import Raster

    total = 0
    for a in args:
        if isinstance(a, Raster):
            total += a.data.size
        elif isinstance(a, np.ndarray) and a.ndim >= 2:
            total += a.size
        elif isinstance(a, (list, tuple)) and a and isinstance(a[0], Raster):
            total += sum(r.data.size for r in a)
        elif isinstance(a, dict):
            total += _samples(list(a.values()))
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._layouts: dict[str, str] = {}
        self.installed = False

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None, root: bool = False):
        """`fn` recording one span per call.

        `attrs(args, result)` adds counts to a span whose call returned. A
        root span starts a new trace even inside another span.
        """
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent, trace = stack[-1] if stack else (0, sid)
            if root:
                trace = sid
            stack.append((sid, trace))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, trace, name, t0, t1,
                              {"raised": type(exc).__name__}))
                raise
            t1 = perf_counter()
            stack.pop()
            spans.append((sid, parent, trace, name, t0, t1,
                          attrs(args, result) if attrs is not None else None))
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, attrs=None, root: bool = False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs, root))

    def transport(self, fn):
        """Wrap an LLMPolicy transport; records request bytes."""
        return self.wrap("agent.policy.transport", fn,
                         lambda args, _r: {"bytes": len(args[1])})

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every layer's entry points; `uninstall` restores them."""
        self.installed = True
        from geoagent.agent import policies
        from geoagent.bench import runner
        from geoagent.kits import analysis, index, inversion, perception, statistics
        from geoagent.raster.model import Raster
        from geoagent.tools import catalog, mcp, registry

        def read_attrs(args, raster):
            path = str(args[0])
            layout = self._layouts.get(path)
            if layout is None:
                layout = self._layouts[path] = tiff.layout(path)
            return {"layout": layout, "bytes": raster.data.nbytes}

        for module in (catalog, perception):
            self._patch(module, "load_raster", "raster.read", read_attrs)
            self._patch(module, "save_raster", "raster.write",
                        lambda args, _r: {"bytes": args[0].data.nbytes})
        self._patch(Raster, "band", "raster.band")

        for kit, module in zip(KITS, (index, inversion, statistics, analysis, perception)):
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._patch(module, attr, f"kits.{kit}.{attr}",
                                lambda args, _r: {"samples": _samples(args)})

        self._patch(registry.ToolRegistry, "validate_args", "tools.registry.validate")
        self._patch(registry.ToolRegistry, "call_tool", "tools.registry.call_tool",
                    lambda args, r: {"tool": args[1], "error": r.error_class})
        self._patch(mcp.McpServer, "handle_line", "tools.mcp.handle_line", root=True)
        self._patch(mcp, "serve_stream", "tools.mcp.serve_stream",
                    lambda args, _r: {"bytes_in": len(args[1].getvalue()),
                                      "bytes_out": len(args[2].getvalue())})

        self._patch(policies.LLMPolicy, "next", "agent.policy.next")
        self._patch(runner, "run_episode", "agent.engine.run_episode",
                    lambda args, t: {"steps": len(t.actions)})
        self._patch(runner, "score_trajectory", "evaluation.score")
        self._patch(runner, "run_task", "bench.runner.run_task", root=True)

    def uninstall(self) -> None:
        self.installed = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, trace, name, t0, t1, extra in self.spans:
                doc = {"id": sid, "parent": parent, "trace": trace, "name": name,
                       "start": t0, "end": t1}
                if extra:
                    doc.update(extra)
                fh.write(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# analysis of a spans file
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(spans_path: Path, passes: int, parallelism: int,
              traced_wall_s: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer metrics per pass, and tool latencies in ms, from a spans file.

    `traced_wall_s` is the wall time of the traced passes, for the busy ratio.
    """
    spans = [json.loads(line) for line in open(spans_path)]
    names = {s["id"]: s["name"] for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    call_child_s: dict[int, float] = defaultdict(float)
    transports: dict[int, int] = defaultdict(int)
    for s in spans:
        d = s["end"] - s["start"]
        if s["parent"]:
            child_s[s["parent"]] += d
        if s["name"] == "tools.registry.call_tool":
            call_child_s[s["parent"]] += d
        elif s["name"] == "agent.policy.transport":
            call_child_s[s["parent"]] += d
            transports[s["parent"]] += 1

    def top(s) -> bool:  # outermost span of its layer: nested calls count once
        return _layer(names.get(s["parent"], "")) != _layer(s["name"])

    m: dict[str, float] = defaultdict(float)
    tools: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        name, d = s["name"], s["end"] - s["start"]
        m[f"{_layer(name)}.self_s"] += d - child_s[s["id"]]
        if "raised" in s:
            continue
        if name == "raster.read":
            m[f"raster.read_s.{s['layout']}"] += d
            m["raster.read_mb"] += s["bytes"] / 1e6
            m["raster.read_calls"] += 1
        elif name == "raster.write":
            m["raster.write_s"] += d
            m["raster.write_mb"] += s["bytes"] / 1e6
            m["raster.write_calls"] += 1
        elif name == "raster.band":
            m["raster.band_s"] += d
            m["raster.band_calls"] += 1
        elif name.startswith("kits.") and top(s):
            kit = name.split(".")[1]
            m[f"kits.{kit}.s"] += d
            m[f"kits.{kit}.mpix"] += s["samples"] / 1e6
        elif name == "tools.registry.validate":
            m["tools.registry.validate_s"] += d
        elif name == "tools.registry.call_tool":
            m["tools.registry.call_s"] += d
            m["tools.registry.calls"] += 1
            if s["error"]:
                m[f"tools.registry.errors.{s['error']}"] += 1
            tools[s["tool"]].append(d * 1e3)
        elif name == "tools.mcp.handle_line":
            m["tools.mcp.handle_self_s"] += d - call_child_s[s["id"]]
        elif name == "tools.mcp.serve_stream":
            m["tools.mcp.stream_s"] += d
            m["tools.mcp.bytes_in"] += s["bytes_in"]
            m["tools.mcp.bytes_out"] += s["bytes_out"]
        elif name == "agent.policy.next":
            m["agent.policy.next_self_s"] += d - call_child_s[s["id"]]
            m["next_calls"] += 1
            m["reprompts"] += transports[s["id"]] > 1
        elif name == "agent.policy.transport":
            m["agent.policy.transport_s"] += d
            m["agent.policy.request_bytes"] += s["bytes"]
        elif name == "agent.engine.run_episode":
            m["agent.engine.steps"] += s["steps"]
        elif name == "evaluation.score":
            m["evaluation.score_s"] += d
            m["evaluation.score_calls"] += 1
        elif name == "bench.runner.run_task":
            m["bench.runner.task_s"] += d
    out = {k: v / passes for k, v in m.items() if k not in ("next_calls", "reprompts")}
    out["raster.band_per_read"] = m["raster.band_calls"] / max(m["raster.read_calls"], 1)
    out["agent.policy.reprompt_ratio"] = m["reprompts"] / max(m["next_calls"], 1)
    out["bench.runner.busy_ratio"] = m["bench.runner.task_s"] / (traced_wall_s * parallelism)
    out["trace.spans"] = len(spans) / passes
    return out, dict(tools)
