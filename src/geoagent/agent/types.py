"""Episode data model: goals, actions, decisions, trajectories."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import SchemaError, of_type
from ..tools.registry import ToolResult

AUTO_PLANNING = "AutoPlanning"
INSTRUCTION_FOLLOWING = "InstructionFollowing"
REGIMES = (AUTO_PLANNING, INSTRUCTION_FOLLOWING)

STOP_FINAL_ANSWER = "final_answer"
STOP_MAX_STEPS = "max_steps"
STOP_POLICY_FAILURE = "policy_failure"


@dataclass(frozen=True)
class Goal:
    query: str
    regime: str = AUTO_PLANNING
    data_dir: str = ""

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class Action:
    """One executed tool invocation: name, arguments, observed result."""

    tool: str
    input: dict
    output: ToolResult


@dataclass(frozen=True)
class ToolCallDecision:
    name: str
    args: dict


@dataclass(frozen=True)
class FinalAnswerDecision:
    text: str
    value: Any = None


Decision = ToolCallDecision | FinalAnswerDecision


@dataclass
class Trajectory:
    """One episode, from the engine through its file to its score.

    `as_json` is the trajectory file: `task_id`, `metadata` (model tag,
    regime, timestamps), `steps` and `final` (answer and stop reason).
    `bench.runner.run_task` masks the workspace root out of the step
    outputs, so its trajectory equals the one its file loads back.
    """

    task_id: str = ""
    regime: str = AUTO_PLANNING
    model_tag: str = "scripted"
    actions: list[Action] = field(default_factory=list)
    answer_text: str | None = None
    answer_value: Any = None
    stop_reason: str = STOP_MAX_STEPS
    started_at: float | None = field(default_factory=time.time)
    finished_at: float | None = None

    def step_pairs(self) -> list[tuple[str, dict]]:
        return [(a.tool, a.input) for a in self.actions]

    @property
    def steps(self) -> list[dict]:
        """The steps as stored: `{"tool", "input", "output"}` dicts."""
        return [{"tool": a.tool, "input": a.input, "output": a.output.to_json()}
                for a in self.actions]

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
    def from_json(doc: Any) -> "Trajectory":
        """Parse a trajectory file; a malformed document raises SchemaError."""
        try:
            meta = of_type(doc.get("metadata", {}), dict, "trajectory 'metadata'")
            final = of_type(doc["final"], dict, "trajectory 'final'")
            return Trajectory(
                task_id=of_type(doc["task_id"], str, "trajectory 'task_id'"),
                regime=of_type(meta.get("regime", AUTO_PLANNING), str,
                               "trajectory metadata 'regime'"),
                model_tag=of_type(meta.get("model_tag", "unknown"), str,
                                  "trajectory metadata 'model_tag'"),
                actions=[Action(
                    tool=of_type(s["tool"], str, f"trajectory step {i} 'tool'"),
                    input=of_type(s["input"], dict, f"trajectory step {i} 'input'"),
                    output=ToolResult.from_json(
                        of_type(s["output"], dict, f"trajectory step {i} 'output'")))
                    for i, s in enumerate(of_type(doc["steps"], list,
                                                  "trajectory 'steps'"))],
                answer_text=of_type(final.get("answer_text"), (str, type(None)),
                                    "trajectory final 'answer_text'"),
                answer_value=final.get("answer_value"),
                stop_reason=of_type(final["stop_reason"], str,
                                    "trajectory final 'stop_reason'"),
                started_at=meta.get("started_at"),
                finished_at=meta.get("finished_at"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad trajectory document: {exc}") from exc
