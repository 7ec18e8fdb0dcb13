"""Checks of BENCHMARK.json and of a run's result line, for the self-check."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_spec(bench: dict, root: Path) -> list[str]:
    """The keys the benchmark reads and the names and units of its metrics."""
    problems = []
    if set(bench) != KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    e2e, layers = bench.get("end_to_end", []), bench.get("per_layer", [])
    names = [w.get("name", "") for w in bench.get("workloads", [])]
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end metric {m}")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m}")
    for m in e2e + layers:
        names.append(m.get("name", ""))
        if not UNIT.fullmatch(m.get("unit", "")) or m.get("better") not in ("lower", "higher"):
            problems.append(f"metric {m}")
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    if "setup_s" not in {m.get("name") for m in e2e}:
        problems.append("no setup_s end-to-end metric")
    return problems + check_map(bench, root)


def check_map(bench: dict, root: Path) -> list[str]:
    """Every per-layer metric is mapped to end-to-end metrics and workloads."""
    doc = json.loads((root / "perfbench" / "metric_map.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    mapped, problems = {}, []
    for row in doc["layers"]:
        mapped.update(dict.fromkeys(row["metrics"], row))
        problems += [f"metric map: unknown target {move}"
                     for move in row["moves"] + row.get("stays", [])
                     if move["metric"] not in e2e or move["workload"] not in workloads]
    problems += [f"metric map: {m['name']} not mapped" for m in bench["per_layer"]
                 if m["name"] not in mapped]
    problems += [f"metric map: {n} not in BENCHMARK.json" for n in mapped
                 if n not in {m["name"] for m in bench["per_layer"]}]
    problems += [f"metric map: workload {w} has no reason" for w in workloads
                 if w not in doc["workloads"]]
    return problems


def check_result(line: str, wanted: list[dict]) -> list[str]:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]!r}"]
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(doc)}"]
    if doc["correct"] is not True or doc["failed"] != 0:
        problems.append(f"outputs failed the gate: {doc['failed']} of {doc['attempted']}")
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1 \
            or not isinstance(doc["failed"], int):
        problems.append("attempted and failed must be whole numbers, attempted >= 1")
    if list(doc["metrics"]) != [m["name"] for m in wanted]:
        problems.append(f"metric names {sorted(doc['metrics'])}")
    for m in wanted:
        got = doc["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {m['name']}: {got}")
        elif "bound" in m and value <= 0:
            problems.append(f"end-to-end metric {m['name']} is not positive: {value}")
    return problems
