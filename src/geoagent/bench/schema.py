"""Task, trajectory and plan file formats.

One JSON document per task (queries for both regimes, data folder, expert
trajectory, answer rule), one per recorded episode (`Trajectory.as_json`),
and plan files that script a policy or an annotation. Documents are
validated on read and write; serialization is canonical (sorted keys) so
re-serialization is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..agent.types import AUTO_PLANNING, REGIMES, Trajectory
from ..errors import SchemaError, of_type
from ..evaluation.metrics import answer_matcher

MODALITIES = ("Spectrum", "Products", "RGB")


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# ground truth and tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GtStep:
    tool: str
    input: dict
    output: dict

    def as_json(self) -> dict:
        return {"tool": self.tool, "input": self.input, "output": self.output}


@dataclass(frozen=True)
class GroundTruth:
    steps: tuple[GtStep, ...]
    answer_text: str
    answer_value: Any

    def as_json(self) -> dict:
        return {
            "steps": [s.as_json() for s in self.steps],
            "answer": {"text": self.answer_text, "value": self.answer_value},
        }

    @staticmethod
    def from_json(doc: dict) -> "GroundTruth":
        try:
            steps = tuple(
                GtStep(tool=of_type(s["tool"], str, f"ground truth step {i} 'tool'"),
                       input=of_type(s["input"], dict, f"ground truth step {i} 'input'"),
                       output=of_type(s["output"], dict, f"ground truth step {i} 'output'"))
                for i, s in enumerate(of_type(doc["steps"], list, "ground truth 'steps'"))
            )
            answer = of_type(doc["answer"], dict, "ground truth 'answer'")
            return GroundTruth(
                steps=steps,
                answer_text=of_type(answer["text"], str, "ground truth answer 'text'"),
                answer_value=answer.get("value"))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad ground truth document: {exc}") from exc

    def step_pairs(self) -> list[tuple[str, dict]]:
        return [(s.tool, s.input) for s in self.steps]


@dataclass(frozen=True)
class TaskSpec:
    id: str
    modality: str
    query_ap: str
    query_if: str
    data_dir: str
    answer_rule: dict
    ground_truth: GroundTruth

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise SchemaError(f"unknown modality {self.modality!r}")
        if not self.query_ap or not self.query_if:
            raise SchemaError("both query regimes must be present")
        if not self.ground_truth.steps:
            raise SchemaError("ground truth needs at least one step")
        answer_matcher(self.answer_rule, self.ground_truth.answer_value)

    def query(self, regime: str) -> str:
        if regime not in REGIMES:
            raise SchemaError(f"unknown regime {regime!r}")
        return self.query_ap if regime == AUTO_PLANNING else self.query_if

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "modality": self.modality,
            "query_ap": self.query_ap,
            "query_if": self.query_if,
            "data_dir": self.data_dir,
            "answer_rule": self.answer_rule,
            "ground_truth": self.ground_truth.as_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "TaskSpec":
        try:
            fields = {key: of_type(doc[key], str, f"task {key!r}")
                      for key in ("id", "modality", "query_ap", "query_if", "data_dir")}
            return TaskSpec(
                **fields,
                answer_rule=of_type(doc["answer_rule"], dict, "task 'answer_rule'"),
                ground_truth=GroundTruth.from_json(
                    of_type(doc["ground_truth"], dict, "task 'ground_truth'")),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad task document: {exc}") from exc


def save_task(task: TaskSpec, path: str | Path) -> None:
    Path(path).write_text(canonical_json(task.as_json()), encoding="utf-8")


def load_task(path: str | Path, workspace_root: str | Path | None = None,
              registry=None) -> TaskSpec:
    """Parse and validate a task file.

    When a workspace root is given the data folder must exist beneath it;
    when a registry is given every ground-truth tool name must be known.
    """
    task = TaskSpec.from_json(_read_json(path))
    if workspace_root is not None:
        data = Path(workspace_root) / task.data_dir
        if not data.is_dir():
            raise SchemaError(f"{path}: data folder missing: {data}")
    if registry is not None:
        unknown = sorted({s.tool for s in task.ground_truth.steps
                          if s.tool not in registry})
        if unknown:
            raise SchemaError(f"{path}: ground truth references unknown tools "
                              f"{unknown}")
    return task


# ---------------------------------------------------------------------------
# trajectories and plans
# ---------------------------------------------------------------------------


def save_record(trajectory: Trajectory, path: str | Path) -> None:
    Path(path).write_text(canonical_json(trajectory.as_json()), encoding="utf-8")


def load_record(path: str | Path) -> Trajectory:
    return Trajectory.from_json(_read_json(path))


def load_plan(path: str | Path) -> tuple[list[tuple[str, dict]], dict]:
    """Read a plan file, `{"steps": [{"tool": name, "input": {...}}, ...]}`.

    Returns the (tool, input) pairs and the whole document, whose answer
    keys (`answer` for a scripted policy, `answer_path` and `answer_text`
    for annotation) belong to the command that reads the plan.
    """
    doc = _read_json(path)
    steps = doc.get("steps") if isinstance(doc, dict) else None
    if not isinstance(steps, list):
        raise SchemaError(f"{path}: a plan is an object with a list of steps")
    for i, step in enumerate(steps):
        if not (isinstance(step, dict) and isinstance(step.get("tool"), str)
                and isinstance(step.get("input"), dict)):
            raise SchemaError(f"{path}: plan step {i} needs a tool name and an "
                              "input object")
    for key, kind, name in (("answer", dict, "an object"),
                            ("answer_path", list, "a list"),
                            ("answer_text", str, "a string")):
        if key in doc and not isinstance(doc[key], kind):
            raise SchemaError(f"{path}: plan {key!r} must be {name}")
    # the scripted answer becomes the trajectory's `answer_text`
    of_type(doc.get("answer", {}).get("text"), (str, type(None)),
            f"{path}: plan answer 'text'")
    return [(s["tool"], s["input"]) for s in steps], doc
