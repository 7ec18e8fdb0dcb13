"""ReAct episode engine and decision policies."""

from .engine import run_episode
from .policies import (
    LLMPolicy,
    MalformedModelOutput,
    PolicyError,
    PolicyUnreachable,
    ScriptedPolicy,
    render_goal,
    render_memory,
    replay_policy,
)
from .types import (
    AUTO_PLANNING,
    INSTRUCTION_FOLLOWING,
    REGIMES,
    STOP_FINAL_ANSWER,
    STOP_MAX_STEPS,
    STOP_POLICY_FAILURE,
    Action,
    FinalAnswerDecision,
    Goal,
    ToolCallDecision,
    Trajectory,
)

__all__ = [
    "AUTO_PLANNING",
    "Action",
    "FinalAnswerDecision",
    "Goal",
    "INSTRUCTION_FOLLOWING",
    "LLMPolicy",
    "MalformedModelOutput",
    "PolicyError",
    "PolicyUnreachable",
    "REGIMES",
    "STOP_FINAL_ANSWER",
    "STOP_MAX_STEPS",
    "STOP_POLICY_FAILURE",
    "ScriptedPolicy",
    "ToolCallDecision",
    "Trajectory",
    "render_goal",
    "render_memory",
    "replay_policy",
    "run_episode",
]
