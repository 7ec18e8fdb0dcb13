"""The episode loop: decide, call, observe, append, repeat.

Tool errors are observations, never terminators; the three stop reasons are
a final answer, the step ceiling, and an unrecoverable policy failure.
"""

from __future__ import annotations

import time

from ..tools.registry import ToolRegistry
from .policies import Policy, PolicyError
from .types import (
    STOP_FINAL_ANSWER,
    STOP_MAX_STEPS,
    STOP_POLICY_FAILURE,
    Action,
    FinalAnswerDecision,
    Goal,
    ToolCallDecision,
    Trajectory,
)

MAX_STEPS = 25  # the default step ceiling of an episode


def run_episode(goal: Goal, policy: Policy, registry: ToolRegistry,
                max_steps: int = MAX_STEPS, model_tag: str = "scripted") -> Trajectory:
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    trajectory = Trajectory(regime=goal.regime, model_tag=model_tag)

    for _ in range(max_steps):
        try:
            decision = policy.next(goal, trajectory.actions)
        except PolicyError as exc:
            trajectory.stop_reason = STOP_POLICY_FAILURE
            trajectory.answer_text = f"policy failure: {exc}"
            break
        if isinstance(decision, FinalAnswerDecision):
            trajectory.stop_reason = STOP_FINAL_ANSWER
            trajectory.answer_text = decision.text
            trajectory.answer_value = decision.value
            break
        assert isinstance(decision, ToolCallDecision)
        result = registry.call_tool(decision.name, decision.args)
        trajectory.actions.append(Action(tool=decision.name, input=decision.args,
                                         output=result))
    else:
        trajectory.stop_reason = STOP_MAX_STEPS

    trajectory.finished_at = time.time()
    return trajectory
