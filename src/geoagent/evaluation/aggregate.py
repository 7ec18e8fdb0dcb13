"""Aggregation of per-task scores into grouped report tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metrics import TaskScore
from .taxonomy import merge_counts

METRIC_COLUMNS = ("tools_any_order", "tools_in_order", "tool_exact_match",
                  "parameter_accuracy", "efficiency", "accuracy")

# every task of a run shares one model tag, so only these keys split a run
GROUP_KEYS = ("regime", "modality")


@dataclass
class GroupReport:
    group: dict[str, str]
    task_count: int
    means: dict[str, float]
    error_counts: dict[str, int]

    def as_json(self) -> dict:
        return {
            "group": dict(self.group),
            "task_count": self.task_count,
            "means": dict(self.means),
            "error_counts": dict(self.error_counts),
        }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _summarize(scores: Sequence[TaskScore]) -> dict[str, float]:
    return {
        "tools_any_order": _mean([s.tao for s in scores]),
        "tools_in_order": _mean([s.tio for s in scores]),
        "tool_exact_match": _mean([s.tem for s in scores]),
        "parameter_accuracy": _mean([s.param_acc for s in scores]),
        "efficiency": _mean([s.eff for s in scores]),
        # final accuracy is conventionally reported as a percentage
        "accuracy": 100.0 * _mean([float(s.acc) for s in scores]),
    }


def _report(group: dict[str, str], scores: Sequence[TaskScore]) -> GroupReport:
    return GroupReport(
        group=group,
        task_count=len(scores),
        means=_summarize(scores),
        error_counts=merge_counts([s.error_counts for s in scores]),
    )


def aggregate(scores: Sequence[TaskScore]) -> list[GroupReport]:
    """One report per (regime, modality), in sorted order."""
    if not scores:
        raise ValueError("no task scores to aggregate")
    buckets: dict[tuple, list[TaskScore]] = {}
    for s in scores:
        buckets.setdefault(tuple(getattr(s, k) for k in GROUP_KEYS), []).append(s)
    return [_report(dict(zip(GROUP_KEYS, bucket)), buckets[bucket])
            for bucket in sorted(buckets)]


def overall(scores: Sequence[TaskScore]) -> GroupReport:
    if not scores:
        raise ValueError("no task scores to aggregate")
    return _report({}, scores)


def render_table(reports: Sequence[GroupReport]) -> str:
    """Aligned text table, one row per group."""
    if not reports:
        return "(no results)"
    group_keys = list(reports[0].group.keys())
    headers = group_keys + ["n", *METRIC_COLUMNS]
    rows = []
    for r in reports:
        row = [str(r.group[k]) for k in group_keys]
        row.append(str(r.task_count))
        for col in METRIC_COLUMNS:
            row.append(f"{r.means[col]:.4f}" if col != "accuracy"
                       else f"{r.means[col]:.2f}")
        rows.append(row)
    widths = [max(len(h), *(len(row[i]) for row in rows))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
