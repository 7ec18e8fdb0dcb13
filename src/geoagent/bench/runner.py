"""Benchmark runner: execute tasks under a policy, persist trajectories,
score them, and emit grouped report tables.

Per-task failures are recorded as zero-scoring results; they never abort the
run. Tasks may execute in parallel — task ids prefix all output paths, so
parallel episodes touch disjoint files, and aggregation sorts by id.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..agent import AUTO_PLANNING, Goal, Trajectory, replay_policy, run_episode
from ..agent.engine import MAX_STEPS
from ..evaluation import TaskScore, aggregate, overall, render_table, score_trajectory
from ..tools.registry import ToolRegistry, ToolResult
from ..workspace import Workspace
from .schema import TaskSpec, canonical_json, save_record

PolicyFactory = Callable[[TaskSpec, str], object]


@dataclass
class BenchResult:
    scores: list[TaskScore]
    records: dict[str, Trajectory]
    failures: dict[str, str]

    def report_json(self) -> dict:
        return {
            "tasks": [s.as_json() for s in self.scores],
            "groups": [g.as_json() for g in aggregate(self.scores)],
            "overall": overall(self.scores).as_json(),
            "failures": dict(self.failures),
        }

    def table(self) -> str:
        return render_table(aggregate(self.scores))


def replay_factory(task: TaskSpec, regime: str):
    gt = task.ground_truth
    return replay_policy(gt.step_pairs(), answer_text=gt.answer_text,
                         answer_value=gt.answer_value)


def require_registry_workspace(registry: ToolRegistry, workspace: Workspace) -> None:
    """Refuse a workspace other than the one the registry resolves paths in:
    masking another root would leave the resolved paths in the record."""
    if workspace.root != registry.workspace.root:
        raise ValueError(f"workspace {workspace.root} is not the registry's "
                         f"workspace {registry.workspace.root}")


def run_task(task: TaskSpec, registry: ToolRegistry, workspace: Workspace,
             policy_factory: PolicyFactory, regime: str, max_steps: int = MAX_STEPS,
             model_tag: str = "replay") -> tuple[Trajectory, TaskScore]:
    """Run one episode and score it. The returned trajectory is the one its
    file holds: the workspace root is masked out of every step output.
    `workspace` must be the registry's (ValueError otherwise)."""
    require_registry_workspace(registry, workspace)
    goal = Goal(query=task.query(regime), regime=regime, data_dir=task.data_dir)
    trajectory = run_episode(goal, policy_factory(task, regime), registry,
                             max_steps, model_tag=model_tag)
    trajectory = replace(trajectory, task_id=task.id, actions=[
        replace(a, output=ToolResult.from_json(workspace.mask(a.output.to_json())))
        for a in trajectory.actions])
    return trajectory, score_trajectory(task, trajectory, workspace)


def run_benchmark(tasks: list[TaskSpec], registry: ToolRegistry,
                  workspace: Workspace, regime: str = AUTO_PLANNING,
                  policy_factory: PolicyFactory = replay_factory,
                  parallelism: int = 1, max_steps: int = MAX_STEPS,
                  model_tag: str = "replay",
                  out_dir: str | Path | None = None) -> BenchResult:
    require_registry_workspace(registry, workspace)
    records: dict[str, Trajectory] = {}
    scores: dict[str, TaskScore] = {}
    failures: dict[str, str] = {}

    def one(task: TaskSpec):
        try:
            record, score = run_task(task, registry, workspace, policy_factory,
                                     regime, max_steps, model_tag)
            return task.id, record, score, None
        except Exception as exc:  # never abort the suite
            return task.id, None, None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        outcomes = list(pool.map(one, tasks))

    for task_id, record, score, failure in outcomes:
        if failure is not None:
            failures[task_id] = failure
            continue
        records[task_id] = record
        scores[task_id] = score

    ordered = [scores[t.id] for t in sorted(tasks, key=lambda t: t.id)
               if t.id in scores]
    result = BenchResult(scores=ordered, records=records, failures=failures)

    if out_dir is not None:
        out = Path(out_dir)
        (out / "trajectories").mkdir(parents=True, exist_ok=True)
        for task_id, record in sorted(records.items()):
            save_record(record, out / "trajectories" / f"{task_id}.json")
        (out / "report.json").write_text(canonical_json(result.report_json()))
        (out / "report.txt").write_text(result.table() + "\n")
    return result


def load_suite(tasks_dir: str | Path, workspace_root: str | Path | None = None,
               registry: ToolRegistry | None = None) -> list[TaskSpec]:
    from .schema import load_task

    paths = sorted(Path(tasks_dir).glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no task files in {tasks_dir}")
    return [load_task(p, workspace_root, registry) for p in paths]
