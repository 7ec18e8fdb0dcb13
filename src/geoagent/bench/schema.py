"""Task and trajectory file formats.

One JSON document per task (queries for both regimes, data folder, expert
trajectory, answer rule) and one per recorded episode. Documents are
validated on read and write; serialization is canonical (sorted keys) so
re-serialization is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..agent.types import REGIMES, Trajectory

MODALITIES = ("Spectrum", "Products", "RGB")

WORKSPACE_TOKEN = "$WS"


class SchemaError(ValueError):
    """A task or trajectory document violates its schema."""


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
                GtStep(tool=s["tool"], input=dict(s["input"]),
                       output=dict(s["output"]))
                for s in doc["steps"]
            )
            answer = doc["answer"]
            return GroundTruth(steps=steps, answer_text=str(answer["text"]),
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

    def query(self, regime: str) -> str:
        if regime not in REGIMES:
            raise SchemaError(f"unknown regime {regime!r}")
        return self.query_ap if regime == "AutoPlanning" else self.query_if

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
            return TaskSpec(
                id=str(doc["id"]),
                modality=str(doc["modality"]),
                query_ap=str(doc["query_ap"]),
                query_if=str(doc["query_if"]),
                data_dir=str(doc["data_dir"]),
                answer_rule=dict(doc["answer_rule"]),
                ground_truth=GroundTruth.from_json(doc["ground_truth"]),
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    task = TaskSpec.from_json(doc)
    if workspace_root is not None:
        data = Path(workspace_root) / task.data_dir
        if not data.is_dir():
            raise SchemaError(f"{path}: data folder missing: {data}")
    if registry is not None:
        unknown = sorted({s.tool for s in task.ground_truth.steps}
                         - {sp.name for sp in registry.list_specs()})
        if unknown:
            raise SchemaError(f"{path}: ground truth references unknown tools "
                              f"{unknown}")
    return task


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    task_id: str
    model_tag: str
    regime: str
    steps: list[dict] = field(default_factory=list)
    answer_text: str | None = None
    answer_value: Any = None
    stop_reason: str = "max_steps"
    started_at: float | None = None
    finished_at: float | None = None

    def as_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "metadata": {
                "model_tag": self.model_tag,
                "regime": self.regime,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            },
            "steps": self.steps,
            "final": {
                "answer_text": self.answer_text,
                "answer_value": self.answer_value,
                "stop_reason": self.stop_reason,
            },
        }

    @staticmethod
    def from_json(doc: dict) -> "TrajectoryRecord":
        try:
            meta = doc.get("metadata", {})
            record = TrajectoryRecord(
                task_id=str(doc["task_id"]),
                model_tag=str(meta.get("model_tag", "unknown")),
                regime=str(meta.get("regime", "AutoPlanning")),
                steps=[{"tool": s["tool"], "input": dict(s["input"]),
                        "output": dict(s["output"])} for s in doc["steps"]],
                answer_text=doc["final"].get("answer_text"),
                answer_value=doc["final"].get("answer_value"),
                stop_reason=str(doc["final"]["stop_reason"]),
                started_at=meta.get("started_at"),
                finished_at=meta.get("finished_at"),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad trajectory document: {exc}") from exc
        return record

    def step_pairs(self) -> list[tuple[str, dict]]:
        return [(s["tool"], s["input"]) for s in self.steps]

    @staticmethod
    def from_trajectory(task_id: str, trajectory: Trajectory,
                        workspace_root: str | Path | None = None
                        ) -> "TrajectoryRecord":
        steps = []
        for action in trajectory.actions:
            out = action.output.to_json()
            if workspace_root is not None:
                out = mask_workspace(out, workspace_root)
            steps.append({"tool": action.tool, "input": action.input, "output": out})
        return TrajectoryRecord(
            task_id=task_id,
            model_tag=trajectory.model_tag,
            regime=trajectory.goal.regime,
            steps=steps,
            answer_text=trajectory.answer_text,
            answer_value=trajectory.answer_value,
            stop_reason=trajectory.stop_reason,
            started_at=trajectory.started_at,
            finished_at=trajectory.finished_at,
        )


def save_record(record: TrajectoryRecord, path: str | Path) -> None:
    Path(path).write_text(canonical_json(record.as_json()), encoding="utf-8")


def load_record(path: str | Path) -> TrajectoryRecord:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return TrajectoryRecord.from_json(doc)


def mask_workspace(doc: Any, root: str | Path) -> Any:
    """Replace absolute workspace prefixes with a stable token, recursively."""
    prefix = str(Path(root).resolve())
    if isinstance(doc, str):
        return doc.replace(prefix, WORKSPACE_TOKEN)
    if isinstance(doc, list):
        return [mask_workspace(v, root) for v in doc]
    if isinstance(doc, dict):
        return {k: mask_workspace(v, root) for k, v in doc.items()}
    return doc
