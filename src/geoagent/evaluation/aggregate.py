"""Aggregation of per-task scores into grouped report tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metrics import METRICS, TaskScore
from .taxonomy import merge_counts

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
    means = {name: _mean([float(getattr(s, attr)) for s in scores])
             for name, attr in METRICS.items()}
    # final accuracy is conventionally reported as a percentage
    means["accuracy"] *= 100.0
    return means


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
    headers = group_keys + ["n", *METRICS]
    rows = []
    for r in reports:
        row = [str(r.group[k]) for k in group_keys]
        row.append(str(r.task_count))
        for col in METRICS:
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
