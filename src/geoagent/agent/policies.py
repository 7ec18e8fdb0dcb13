"""Decision policies: scripted replay and an HTTP chat-with-tools backend.

A policy maps a goal and the actions taken so far to either a tool call or
a final answer. The scripted backend is a pure function of its plan; the LLM
backend renders the goal and actions as a chat transcript, sends the
registered tool schemas, and maps the model's reply back to a decision.
"""

from __future__ import annotations

import json
import math
import weakref
from typing import Any, Callable, Protocol, Sequence

from .. import finite_json
from ..errors import GeoAgentError
from ..tools.registry import ToolRegistry
from .types import Action, Decision, FinalAnswerDecision, Goal, ToolCallDecision

OBSERVATION_BUDGET = 8192  # transcript bytes kept per tool result
LLM_TIMEOUT_S = 120.0  # seconds allowed per LLM request

SYSTEM_PREAMBLE = (
    "You are a geoscience analysis agent. Solve the task by calling the "
    "available tools step by step; file outputs must use paths relative to "
    "the workspace. Observe each tool result before deciding the next step. "
    "When the task is solved, reply with plain text containing only the "
    "final answer."
)

TRUNCATION_MARKER = "...[truncated {omitted} bytes]"


class PolicyError(GeoAgentError):
    """Unrecoverable policy failure; the episode stops with policy_failure."""


class PolicyUnreachable(PolicyError):
    """The decision backend could not be reached after retries."""


class MalformedModelOutput(PolicyError):
    """The model reply could not be mapped to a decision."""


class Policy(Protocol):
    def next(self, goal: Goal, actions: Sequence[Action]) -> Decision: ...


def render_goal(goal: Goal) -> str:
    parts = [goal.query]
    if goal.data_dir:
        parts.append(f"Data folder: {goal.data_dir}")
    return "\n".join(parts)


def _truncate(text: str, budget: int) -> str:
    raw = text.encode("utf-8")
    if len(raw) <= budget:
        return text
    keep = raw[:budget].decode("utf-8", "ignore")
    return keep + TRUNCATION_MARKER.format(omitted=len(raw) - budget)


def render_memory(goal: Goal, actions: Sequence[Action],
                  observation_budget: int = OBSERVATION_BUDGET) -> list[dict]:
    """Deterministic chat transcript: system, goal, then one assistant
    tool-call + tool-result message pair per executed action."""
    messages: list[dict] = [
        {"role": "system", "content": SYSTEM_PREAMBLE},
        {"role": "user", "content": render_goal(goal)},
    ]
    for i, action in enumerate(actions):
        call_id = f"call_{i}"
        messages.append({
            "role": "assistant",
            "content": None,
            "tool_calls": [{
                "id": call_id,
                "type": "function",
                "function": {
                    "name": action.tool,
                    "arguments": json.dumps(action.input, sort_keys=True),
                },
            }],
        })
        messages.append({
            "role": "tool",
            "tool_call_id": call_id,
            "content": _truncate(action.output.text, observation_budget),
        })
    return messages


class ScriptedPolicy:
    """Replays a fixed plan of decisions regardless of observations.

    When the plan runs out without a final answer the last step repeats,
    which models an agent unaware of its termination condition.
    """

    def __init__(self, plan: list[Decision]):
        if not plan:
            raise ValueError("scripted plan must contain at least one decision")
        self.plan = list(plan)
        self._cursor = 0

    def next(self, goal: Goal, actions: Sequence[Action]) -> Decision:
        if self._cursor < len(self.plan):
            decision = self.plan[self._cursor]
            self._cursor += 1
            return decision
        return self.plan[-1]


def replay_policy(steps: list[tuple[str, dict]], answer_text: str | None = None,
                  answer_value: Any = None) -> ScriptedPolicy:
    """Plan of tool calls followed by a final answer (when given)."""
    plan: list[Decision] = [ToolCallDecision(name, dict(args)) for name, args in steps]
    if answer_text is not None or answer_value is not None:
        plan.append(FinalAnswerDecision(text=answer_text or "", value=answer_value))
    return ScriptedPolicy(plan)


# a transport returns the decoded reply or raises finite_json.ReplyError
Transport = Callable[[str, bytes, dict, float], Any]

_urllib_transport = finite_json.post_json


# registry -> its chat `tools` array as JSON text
_TOOLS_JSON: "weakref.WeakKeyDictionary[ToolRegistry, str]" = weakref.WeakKeyDictionary()


def _tools_json(registry: ToolRegistry) -> str:
    """The registry's tools as the chat `tools` array, in JSON text.

    The text is encoded once per registry and reused by every policy that
    shares it; a registry is fixed when it is built. Two threads may both
    encode a missing entry; they store the same text.
    """
    text = _TOOLS_JSON.get(registry)
    if text is None:
        text = _TOOLS_JSON[registry] = json.dumps([
            {
                "type": "function",
                "function": {
                    "name": spec.name,
                    "description": spec.description,
                    "parameters": spec.input_schema(),
                },
            }
            for spec in registry.list_specs()
        ])
    return text


class LLMPolicy:
    """Chat-completions backend with function calling.

    Tool schemas come from the registry; in no-tool mode the schemas are
    omitted and any tool call in the reply is treated as malformed. A
    malformed reply earns one reprompt carrying the parse error, then the
    policy fails.
    """

    def __init__(self, endpoint: str, model: str, api_key: str = "",
                 registry: ToolRegistry | None = None, no_tool_mode: bool = False,
                 timeout: float = LLM_TIMEOUT_S, retries: int = 2,
                 observation_budget: int = OBSERVATION_BUDGET,
                 transport: Transport = _urllib_transport):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.registry = registry
        self.no_tool_mode = no_tool_mode
        self.timeout = timeout
        self.retries = retries
        self.observation_budget = observation_budget
        self.transport = transport

    def next(self, goal: Goal, actions: Sequence[Action]) -> Decision:
        messages = render_memory(goal, actions, self.observation_budget)
        try:
            return self._parse(self._post(messages))
        except MalformedModelOutput as exc:
            feedback = messages + [{
                "role": "user",
                "content": f"Your previous reply could not be used: {exc}. "
                           "Reply with a single tool call or a plain-text final answer.",
            }]
            return self._parse(self._post(feedback))

    def _post(self, messages: list[dict]) -> dict:
        text = json.dumps({"model": self.model, "messages": messages})
        if self.registry is not None and len(self.registry) and not self.no_tool_mode:
            # the bytes json.dumps gives for the body with these two keys last
            text = (text[:-1] + ', "tools": ' + _tools_json(self.registry)
                    + ', "tool_choice": "auto"}')
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = text.encode("utf-8")
        last: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                return self.transport(self.endpoint + "/chat/completions",
                                      payload, headers, self.timeout)
            except finite_json.ReplyError as exc:
                last = exc
        raise PolicyUnreachable(f"chat endpoint unreachable: {last}")

    def _parse(self, reply: Any) -> Decision:
        """Map any decoded JSON reply to a decision or MalformedModelOutput."""
        try:
            message = reply["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedModelOutput(f"reply missing choices[0].message: {exc}")
        if not isinstance(message, dict):
            raise MalformedModelOutput("choices[0].message must be an object")
        tool_calls = message.get("tool_calls") or []
        if tool_calls:
            if self.no_tool_mode:
                raise MalformedModelOutput("tool call received in no-tool mode")
            try:
                function = tool_calls[0]["function"]
                name = function["name"]
                args = finite_json.loads(function["arguments"] or "{}")
            except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
                raise MalformedModelOutput(f"unparseable tool call: {exc}")
            if not isinstance(name, str):
                raise MalformedModelOutput("tool name must be a string")
            if not isinstance(args, dict):
                raise MalformedModelOutput("tool arguments must be an object")
            return ToolCallDecision(name=name, args=args)
        content = message.get("content")
        if not isinstance(content, str) or not content.strip():
            raise MalformedModelOutput("reply has neither tool call nor text")
        text = content.strip()
        value: Any = None
        try:
            number = float(text)
            if math.isfinite(number):  # "nan", "inf" and "1e999" stay text only
                value = number
        except ValueError:
            pass
        return FinalAnswerDecision(text=text, value=value)
