"""Benchmark formats, annotation, fixture suite, and runner."""

from .annotate import AnnotationError, annotate_from_plan, extract_answer
from .fixtures import generate_fixture_suite
from .runner import (
    BenchResult,
    load_suite,
    replay_factory,
    run_benchmark,
    run_task,
)
from .schema import (
    GroundTruth,
    GtStep,
    SchemaError,
    TaskSpec,
    canonical_json,
    load_plan,
    load_record,
    load_task,
    save_record,
    save_task,
)

__all__ = [
    "AnnotationError",
    "BenchResult",
    "GroundTruth",
    "GtStep",
    "SchemaError",
    "TaskSpec",
    "annotate_from_plan",
    "canonical_json",
    "extract_answer",
    "generate_fixture_suite",
    "load_plan",
    "load_record",
    "load_suite",
    "load_task",
    "replay_factory",
    "run_benchmark",
    "run_task",
    "save_record",
    "save_task",
]
