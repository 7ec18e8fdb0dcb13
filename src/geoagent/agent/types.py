"""Episode data model: goals, actions, memory, trajectories."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..tools.registry import ToolResult

AUTO_PLANNING = "AutoPlanning"
INSTRUCTION_FOLLOWING = "InstructionFollowing"
REGIMES = (AUTO_PLANNING, INSTRUCTION_FOLLOWING)

STOP_FINAL_ANSWER = "final_answer"
STOP_MAX_STEPS = "max_steps"
STOP_POLICY_FAILURE = "policy_failure"
STOP_REASONS = (STOP_FINAL_ANSWER, STOP_MAX_STEPS, STOP_POLICY_FAILURE)


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


class Memory:
    """Append-only interleaving of the goal context and (action, observation)
    pairs; each appended action carries the observation it produced."""

    def __init__(self, goal_context: str):
        self.goal_context = goal_context
        self._actions: list[Action] = []

    def append(self, action: Action) -> None:
        self._actions.append(action)

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(self._actions)

    def __len__(self) -> int:
        return len(self._actions)


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
    goal: Goal
    actions: list[Action] = field(default_factory=list)
    answer_text: str | None = None
    answer_value: Any = None
    stop_reason: str = STOP_MAX_STEPS
    model_tag: str = "scripted"
    started_at: float = field(default_factory=time.time)
    finished_at: float | None = None

    @property
    def tool_names(self) -> list[str]:
        return [a.tool for a in self.actions]


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 25

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
