"""`chat_replay` workload: two client threads run `bench.runner.run_task`
with `agent.LLMPolicy` against the stub chat server (chatstub.py), which
runs in a process of its own on loopback.

Closed loop: each thread starts its next episode when the last one is
scored. Tasks are the package's seeded 12-task fixture suite in both
regimes; each thread has its own copy of the workspace so that two episodes
of one task never share output files. The episode cycle holds every goal
`SLOTS` times, one of them perturbed (see chatstub.py), in seeded order, so
every seed asks for the same mix of work.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import harness
from perfbench.chatstub import PERTURBATION, PERTURBED_MODEL

CLIENTS = 2
REGIMES = ("AutoPlanning", "InstructionFollowing")
SLOTS = 4  # episodes of each goal per cycle; the first is perturbed


def generate(work: Path, seed: int, tiny: bool) -> dict:
    (work / "seed.json").write_text(json.dumps({"seed": seed}))
    return {"clients": CLIENTS, "goals": 24, "episodes_per_cycle": 24 * SLOTS,
            "perturbed_share": 1 / SLOTS}


def _expected(task, perturbed: bool) -> tuple[list, dict]:
    steps = harness.gt_outcomes(task)
    if perturbed:
        injected = [[call["name"], None, cls] for call, cls in
                    zip(PERTURBATION, ("ToolHallucination", "FileHallucination"))]
        return injected + steps, {"ToolHallucination": 1, "FileHallucination": 1}
    return steps, {}


def episode_bad(task, record, score, perturbed: bool) -> bool:
    """Clean episodes need the full-loop identity; perturbed ones exactly the
    injected error classes, then the plan's outputs and the right answer."""
    steps, errors = _expected(task, perturbed)
    if harness.outcomes(record.steps) != steps:
        return True
    if not perturbed:
        return not harness.full_loop_identity(score)
    return not (score.acc == 1 and score.error_counts == errors
                and score.stop_reason == "final_answer")


def run(work: Path, seconds: float, tracer, nproc: int) -> dict:
    from geoagent.agent import LLMPolicy, policies
    from geoagent.bench import generate_fixture_suite, load_suite, runner
    from geoagent.cli import make_context
    from geoagent.tools import build_registry

    seed = json.loads((work / "seed.json").read_text())["seed"]
    roots = [work / f"ws{k}" for k in range(CLIENTS)]
    for root in roots:
        generate_fixture_suite(root, seed=seed)
    tasks = load_suite(roots[0] / "tasks")
    goals = [(t, regime) for t in tasks for regime in REGIMES]
    cycle = [(task, regime, k == 0) for task, regime in goals for k in range(SLOTS)]
    cycle = [cycle[i] for i in np.random.default_rng(seed).permutation(len(cycle))]
    script = {}
    for task, regime in goals:
        script[task.query(regime).split("\n", 1)[0]] = {
            "steps": [[s.tool, json.dumps(s.input, sort_keys=True)]
                      for s in task.ground_truth.steps],
            "answer": task.ground_truth.answer_text}
    (work / "stub.json").write_text(json.dumps(script))

    stub = subprocess.Popen([sys.executable, str(Path(__file__).with_name("chatstub.py")),
                             str(work / "stub.json")], stdout=subprocess.PIPE)
    try:
        port = json.loads(stub.stdout.readline())["port"]
        endpoint = f"http://127.0.0.1:{port}/v1"

        def make_state():
            transport = policies._urllib_transport
            if tracer is not None and tracer.installed:
                transport = tracer.transport(transport)
            clients = []
            for root in roots:
                ctx = make_context(str(root))
                registry = build_registry(ctx)
                suite = {t.id: t for t in load_suite(root / "tasks", root, registry)}

                def factory(perturbed: bool, registry=registry):
                    model = PERTURBED_MODEL if perturbed else "stub"
                    return lambda task, regime: LLMPolicy(
                        endpoint, model, registry=registry, timeout=30, transport=transport)
                clients.append((ctx, registry, suite, factory))
            return clients

        def window(clients, count: int | None, budget: float):
            """Run episodes from the shared episode cycle on every client until
            `count` episodes were started, or else until `budget` seconds."""
            ticket = itertools.count()
            start = perf_counter()
            deadline = start + budget
            op_times, failed = [], [0]
            lock = threading.Lock()

            def client(ctx, registry, suite, factory):
                while True:
                    n = next(ticket)
                    if (n >= count) if count is not None else (perf_counter() >= deadline):
                        return
                    task, regime, perturbed = cycle[n % len(cycle)]
                    task = suite[task.id]
                    t0 = perf_counter()
                    try:
                        record, score = runner.run_task(task, registry, ctx.workspace,
                                                        factory(perturbed), regime,
                                                        model_tag="stub")
                    except Exception:  # counted as a failed episode; the loop goes on
                        traceback.print_exc()
                        record = None
                    t1 = perf_counter()
                    bad = record is None or episode_bad(task, record, score, perturbed)
                    with lock:
                        op_times.append([t0, t1])
                        failed[0] += bad

            threads = [threading.Thread(target=client, args=c) for c in clients]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return len(op_times), op_times, failed[0], start

        if tracer is None:
            ops, op_times, failed, start = window(make_state(), None, seconds)
            out = {"untraced": {"ops": ops, "op_times": op_times, "failed": failed,
                                "window": [start, max(t1 for _, t1 in op_times)]}}
        else:  # one pass is the episode cycle once
            out = harness.run_passes(make_state, lambda c: window(c, len(cycle), 0.0)[:3],
                                     seconds, tracer)
    finally:
        stub.terminate()
        stub.wait()
        stub.stdout.close()
    out["digests"] = {"answers": harness.answer_digest(tasks)}
    out["gate_ok"] = True
    out["parallelism"] = CLIENTS
    return out
