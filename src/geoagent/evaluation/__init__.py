"""Dual-level evaluation: answer accuracy, trajectory metrics, error taxonomy."""

from .aggregate import GroupReport, aggregate, overall, render_table
from .metrics import (
    TaskScore,
    accuracy,
    efficiency,
    normalize_path,
    parameter_accuracy,
    score_trajectory,
    tool_exact_match,
    tools_any_order,
    tools_in_order,
    values_equal,
)
from .taxonomy import (
    TAXONOMY,
    UNAWARE_OF_TERMINATION,
    count_errors,
    merge_counts,
)

__all__ = [
    "GroupReport",
    "TAXONOMY",
    "TaskScore",
    "UNAWARE_OF_TERMINATION",
    "accuracy",
    "aggregate",
    "count_errors",
    "efficiency",
    "merge_counts",
    "normalize_path",
    "overall",
    "parameter_accuracy",
    "render_table",
    "score_trajectory",
    "tool_exact_match",
    "tools_any_order",
    "tools_in_order",
    "values_equal",
]
