"""Ground-truth annotation: execute a plan, record every (tool, input,
output) triple, take the last step's designated value as the answer.

Annotation must be clean: any failing step aborts with its index. Recorded
outputs mask the absolute workspace root so re-running the pipeline yields
byte-identical documents.
"""

from __future__ import annotations

from typing import Any

from ..errors import GeoAgentError
from ..tools.registry import ToolRegistry
from ..workspace import Workspace
from .runner import require_registry_workspace
from .schema import GroundTruth, GtStep


class AnnotationError(GeoAgentError):
    def __init__(self, step_index: int, message: str):
        super().__init__(f"annotation failed at step {step_index}: {message}")
        self.step_index = step_index


def extract_answer(value: Any, path: list | None) -> Any:
    """Follow a key/index path into a step's structured value."""
    out = value
    for key in path or []:
        try:
            out = out[key]
        except (KeyError, IndexError, TypeError) as exc:
            raise GeoAgentError(f"answer path {path} failed at {key!r}: {exc}")
    return out


def annotate_from_plan(plan: list[tuple[str, dict]], registry: ToolRegistry,
                       workspace: Workspace, answer_path: list | None = None,
                       answer_text: str | None = None) -> GroundTruth:
    """Run the plan through the registry and freeze it as ground truth.
    `workspace` must be the registry's (ValueError otherwise)."""
    require_registry_workspace(registry, workspace)
    if not plan:
        raise AnnotationError(0, "empty plan")
    steps: list[GtStep] = []
    last_value: Any = None
    for i, (tool, args) in enumerate(plan):
        result = registry.call_tool(tool, args)
        if result.is_error:
            raise AnnotationError(i, f"{tool}: [{result.error_class}] {result.text}")
        steps.append(GtStep(
            tool=tool,
            input=workspace.mask(args),
            output=workspace.mask(result.to_json()),
        ))
        last_value = result.value
    answer_value = workspace.mask(extract_answer(last_value, answer_path))
    if answer_text is None:
        answer_text = _render_answer(answer_value)
    return GroundTruth(steps=tuple(steps), answer_text=answer_text,
                       answer_value=answer_value)


def _render_answer(value: Any) -> str:
    if isinstance(value, float) and value == int(value):
        return str(value)
    if isinstance(value, (dict, list)):
        import json

        return json.dumps(value, sort_keys=True)
    return str(value)
