"""Trajectory and answer metrics.

Step metrics compare predicted and expert tool sequences: set coverage
(any-order), longest ground-truth prefix embeddable as a subsequence
(in-order), longest common prefix (exact-match), and the exact-match prefix
with structural argument equality (parameter accuracy). Greedy left-to-right
matching is optimal for the in-order score: any embedding of the first k
ground-truth tools can be shifted, one index at a time, onto the leftmost
available matches without losing feasibility, so the greedy embedding
extends at least as far as any other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..agent.types import Trajectory
from ..errors import SchemaError
from ..finite_json import is_finite_number
from ..workspace import WORKSPACE_TOKEN, Workspace
from .taxonomy import count_errors

if TYPE_CHECKING:  # bench imports evaluation at load time
    from ..bench.schema import TaskSpec

NUMERIC_REL_TOL = 1e-2
NUMERIC_ABS_TOL = 1e-6
ARGUMENT_ABS_TOL = 1e-9


# ---------------------------------------------------------------------------
# answer accuracy
# ---------------------------------------------------------------------------


def _normalize_string(s: str) -> str:
    return re.sub(r"\s+", " ", s.strip().casefold())


def normalize_path(value: str, roots: Sequence[str] = ()) -> str:
    """Workspace-relative, forward-slash form of a path-like string."""
    out = value.replace("\\", "/")
    for root in sorted((r.replace("\\", "/").rstrip("/") for r in roots if r),
                       key=len, reverse=True):
        if out == root:
            return ""
        if out.startswith(root + "/"):
            out = out[len(root) + 1:]
            break
    while out.startswith("./"):
        out = out[2:]
    return out


def values_equal(a: Any, b: Any, roots: Sequence[str] = ()) -> bool:
    """Deep structural equality with numeric tolerance and path normalization."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b or a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) and math.isnan(b):
            return True
        return abs(a - b) <= ARGUMENT_ABS_TOL
    if isinstance(a, str) and isinstance(b, str):
        return normalize_path(a, roots) == normalize_path(b, roots)
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(values_equal(a[k], b[k], roots) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        return all(values_equal(x, y, roots) for x, y in zip(a, b))
    return a == b


def _numeric(text: str | None, value: Any, expected: Any, rule: dict, roots) -> int:
    got = value
    if got is None and text is not None:
        try:
            got = float(text.strip())
        except ValueError:
            return 0
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return 0
    want = float(expected)
    rel = rule.get("rel_tol", NUMERIC_REL_TOL)
    abst = rule.get("abs_tol", NUMERIC_ABS_TOL)
    return int(abs(float(got) - want) <= max(abst, rel * abs(want)))


def _string(text: str | None, value: Any, expected: Any, rule: dict, roots) -> int:
    got = text if text is not None else str(value)
    return int(_normalize_string(got) == _normalize_string(str(expected)))


def _string_set(text: str | None, value: Any, expected: Any, rule: dict, roots) -> int:
    if isinstance(value, (list, tuple, set)):
        got_items = [str(v) for v in value]
    else:
        got_items = re.split(r"[,;\n]", text or "")
    got = {_normalize_string(v) for v in got_items if _normalize_string(v)}
    want = {_normalize_string(str(v)) for v in expected}
    return int(got == want)


def _structured(text: str | None, value: Any, expected: Any, rule: dict, roots) -> int:
    return int(values_equal(value, expected, roots))


# answer rule kind -> matcher(answer_text, answer_value, expected, rule, roots)
ANSWER_RULES: dict[str, Callable[..., int]] = {
    "numeric": _numeric, "string": _string, "string_set": _string_set,
    "structured": _structured}


# answer rule kind -> (what its expected answer must be, the check)
_EXPECTED_ANSWERS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "numeric": ("a finite number", is_finite_number),
    "string_set": ("a list", lambda v: isinstance(v, list))}


def answer_matcher(rule: dict, expected: Any) -> Callable[..., int]:
    """The matcher of a task's answer rule; a rule with no kind is numeric.
    Tolerances must be finite numbers >= 0, and the expected answer of a
    numeric rule a finite number, of a string_set rule a list."""
    kind = rule.get("kind", "numeric")
    if kind not in ANSWER_RULES:
        raise SchemaError(f"unknown answer rule {kind!r}")
    for key in ("rel_tol", "abs_tol"):
        tol = rule.get(key, 0.0)
        if not (is_finite_number(tol) and tol >= 0):
            raise SchemaError(f"answer rule {key} must be a finite number >= 0, "
                              f"got {tol!r}")
    what, check = _EXPECTED_ANSWERS.get(kind, ("", None))
    if check is not None and not check(expected):
        raise SchemaError(f"the expected answer of a {kind} rule must be {what}, "
                          f"got {expected!r}")
    return ANSWER_RULES[kind]


def accuracy(answer_text: str | None, answer_value: Any, expected: Any,
             rule: dict, roots: Sequence[str] = ()) -> int:
    """Final-answer indicator under the task's declared matching rule."""
    matcher = answer_matcher(rule, expected)
    if answer_text is None and answer_value is None:
        return 0
    return matcher(answer_text, answer_value, expected, rule, roots)


# ---------------------------------------------------------------------------
# step metrics: sequences of tool names / argument maps
# ---------------------------------------------------------------------------


def efficiency(pred_len: int, gt_len: int) -> float:
    if gt_len < 1:
        raise ValueError("ground truth must contain at least one tool call")
    return pred_len / gt_len


def tools_any_order(pred: Sequence[str], gt: Sequence[str]) -> float:
    gt_set = set(gt)
    if not gt_set:
        raise ValueError("ground truth must contain at least one tool call")
    return len(gt_set & set(pred)) / len(gt_set)


def tools_in_order(pred: Sequence[str], gt: Sequence[str]) -> float:
    if not gt:
        raise ValueError("ground truth must contain at least one tool call")
    k = 0
    cursor = 0
    for target in gt:
        found = False
        while cursor < len(pred):
            if pred[cursor] == target:
                found = True
                cursor += 1
                break
            cursor += 1
        if not found:
            break
        k += 1
    return k / len(gt)


def tool_exact_match(pred: Sequence[str], gt: Sequence[str]) -> float:
    if not gt:
        raise ValueError("ground truth must contain at least one tool call")
    lcp = 0
    for p, g in zip(pred, gt):
        if p != g:
            break
        lcp += 1
    return lcp / len(gt)


def parameter_accuracy(pred: Sequence[tuple[str, dict]],
                       gt: Sequence[tuple[str, dict]],
                       roots: Sequence[str] = ()) -> float:
    if not gt:
        raise ValueError("ground truth must contain at least one tool call")
    matched = 0
    for (p_name, p_args), (g_name, g_args) in zip(pred, gt):
        if p_name != g_name or not values_equal(p_args, g_args, roots):
            break
        matched += 1
    return matched / len(gt)


# ---------------------------------------------------------------------------
# per-task report
# ---------------------------------------------------------------------------


# report name -> TaskScore attribute, in report column order
METRICS = {
    "tools_any_order": "tao",
    "tools_in_order": "tio",
    "tool_exact_match": "tem",
    "parameter_accuracy": "param_acc",
    "efficiency": "eff",
    "accuracy": "acc",
}


@dataclass
class TaskScore:
    task_id: str
    regime: str
    modality: str
    model_tag: str
    acc: int
    eff: float
    tao: float
    tio: float
    tem: float
    param_acc: float
    error_counts: dict[str, int] = field(default_factory=dict)
    stop_reason: str = ""

    def as_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "regime": self.regime,
            "modality": self.modality,
            "model_tag": self.model_tag,
            **{name: getattr(self, attr) for name, attr in METRICS.items()},
            "error_counts": dict(self.error_counts),
            "stop_reason": self.stop_reason,
        }


def score_trajectory(task: TaskSpec, trajectory: Trajectory,
                     workspace: Workspace | None = None) -> TaskScore:
    """Score a trajectory against its task's expert steps and answer.

    Paths compare workspace-relative: `$WS` and, when a workspace is given,
    its absolute root are stripped before comparison.
    """
    roots = [WORKSPACE_TOKEN]
    if workspace is not None:
        roots.append(str(workspace.root))
    gt = task.ground_truth
    pred_steps, gt_steps = trajectory.step_pairs(), gt.step_pairs()
    pred_names = [name for name, _ in pred_steps]
    gt_names = [name for name, _ in gt_steps]
    return TaskScore(
        task_id=task.id,
        regime=trajectory.regime,
        modality=task.modality,
        model_tag=trajectory.model_tag,
        acc=accuracy(trajectory.answer_text, trajectory.answer_value,
                     gt.answer_value, task.answer_rule, roots),
        eff=efficiency(len(pred_names), len(gt_names)),
        tao=tools_any_order(pred_names, gt_names),
        tio=tools_in_order(pred_names, gt_names),
        tem=tool_exact_match(pred_names, gt_names),
        param_acc=parameter_accuracy(pred_steps, gt_steps, roots),
        error_counts=count_errors(trajectory),
        stop_reason=trajectory.stop_reason,
    )
