"""Failure-class bookkeeping over executed trajectories.

Five classes: the four runtime classes read off tool results, plus
"unaware of termination" read off a max-steps stop reason. Each step
contributes at most one class.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..agent.types import STOP_MAX_STEPS, Trajectory
from ..tools.registry import ERROR_CLASSES

UNAWARE_OF_TERMINATION = "UnawareOfTermination"

TAXONOMY = (UNAWARE_OF_TERMINATION, *ERROR_CLASSES)


def count_errors(trajectory: Trajectory) -> dict[str, int]:
    """Histogram of the failed steps' classes, plus one UnawareOfTermination
    for a max-steps stop; classes that did not occur are left out."""
    counts = Counter(a.output.error_class for a in trajectory.actions
                     if a.output.is_error)
    if trajectory.stop_reason == STOP_MAX_STEPS:
        counts[UNAWARE_OF_TERMINATION] += 1
    return dict(counts)


def merge_counts(many: Iterable[dict[str, int]]) -> dict[str, int]:
    total: Counter = Counter()
    for counts in many:
        total.update(counts)
    return {k: total[k] for k in TAXONOMY if total[k]}
