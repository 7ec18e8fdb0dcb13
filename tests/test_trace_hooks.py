"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
their module attribute names. Replaying one task under it here means a
rename of any of those names fails this suite, not only a traced
benchmark run."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402

from geoagent.bench import generate_fixture_suite, runner  # noqa: E402
from geoagent.cli import make_context  # noqa: E402
from geoagent.tools import build_registry  # noqa: E402


def test_tracer_sees_episode_scoring_and_task(tmp_path):
    tasks = generate_fixture_suite(tmp_path)
    ctx = make_context(str(tmp_path))
    registry = build_registry(ctx)
    task = tasks[0]
    tracer = Tracer()
    tracer.install()
    try:
        trajectory, score = runner.run_task(task, registry, ctx.workspace,
                                            runner.replay_factory, "AutoPlanning",
                                            model_tag="traced")
    finally:
        tracer.uninstall()
    assert score.acc == 1
    spans = {}
    for _sid, _parent, _trace, name, _t0, _t1, extra in tracer.spans:
        spans.setdefault(name, []).append(extra)
    assert spans["agent.engine.run_episode"] == [{"steps": len(trajectory.actions)}]
    assert len(spans["evaluation.score"]) == 1
    assert len(spans["bench.runner.run_task"]) == 1
    assert len(spans["tools.registry.call_tool"]) == len(task.ground_truth.steps)
