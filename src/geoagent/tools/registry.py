"""Tool contract registry: specs, strict argument validation, dispatch, and
failure classification.

Every failure surfaced to an agent carries exactly one of four runtime
classes; classification is a pure function of the registry state, the
requested name, the argument map, and the handler outcome. Errors are data:
they never abort the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..errors import InvalidInputError, MissingFileError

TOOL_HALLUCINATION = "ToolHallucination"
FILE_HALLUCINATION = "FileHallucination"
INVALID_PARAMETERS = "InvalidParameters"
SYSTEM_ERROR = "SystemError"

ERROR_CLASSES = (TOOL_HALLUCINATION, FILE_HALLUCINATION, INVALID_PARAMETERS,
                 SYSTEM_ERROR)

_JSON_TYPES = ("string", "number", "integer", "boolean", "array", "object")


def _type_check(type_name: str, value: Any) -> bool:
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "array":
        return isinstance(value, list)
    return isinstance(value, dict)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: str
    required: bool = True
    description: str = ""
    enum: tuple | None = None
    item_type: str | None = None  # element type for arrays
    item_nullable: bool = False   # arrays that mark gaps with null
    kind: str | None = None       # path kind (see `Workspace.resolve`), None for a non-path

    def __post_init__(self):
        if self.type not in _JSON_TYPES:
            raise ValueError(f"bad parameter type {self.type!r} for {self.name}")
        if self.item_type is not None and self.item_type not in _JSON_TYPES:
            raise ValueError(f"bad item type {self.item_type!r} for {self.name}")

    def accepts(self, value: Any) -> bool:
        ok = _type_check(self.type, value)
        if ok and self.type == "array" and self.item_type is not None:
            ok = all(
                (v is None and self.item_nullable) or _type_check(self.item_type, v)
                for v in value
            )
        if ok and self.enum is not None:
            ok = value in self.enum
        return ok


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    params: tuple[ParamSpec, ...] = ()

    def input_schema(self) -> dict:
        properties = {}
        required = []
        for p in self.params:
            prop: dict[str, Any] = {"type": p.type}
            if p.description:
                prop["description"] = p.description
            if p.enum is not None:
                prop["enum"] = list(p.enum)
            if p.item_type is not None:
                prop["items"] = {"type": [p.item_type, "null"]
                                 if p.item_nullable else p.item_type}
            properties[p.name] = prop
            if p.required:
                required.append(p.name)
        return {
            "type": "object",
            "properties": properties,
            "required": required,
            "additionalProperties": False,
        }


@dataclass
class ToolResult:
    """A tool outcome; it failed exactly when it carries a taxonomy class."""

    text: str
    value: Any = None
    files: list[str] = field(default_factory=list)
    error_class: str | None = None

    def __post_init__(self):
        if self.error_class is not None and self.error_class not in ERROR_CLASSES:
            raise ValueError(f"unknown error class {self.error_class!r}")

    @property
    def is_error(self) -> bool:
        return self.error_class is not None

    @property
    def status(self) -> str:
        return "error" if self.is_error else "ok"

    def to_json(self) -> dict:
        out: dict[str, Any] = {"status": self.status, "text": self.text}
        if self.value is not None:
            out["value"] = self.value
        if self.files:
            out["files"] = list(self.files)
        if self.error_class:
            out["error_class"] = self.error_class
        return out

    @staticmethod
    def from_json(doc: dict) -> "ToolResult":
        result = ToolResult(
            text=doc.get("text", ""),
            value=doc.get("value"),
            files=list(doc.get("files", [])),
            error_class=doc.get("error_class"),
        )
        if doc.get("status", "ok") != result.status:
            raise ValueError(f"status {doc.get('status')!r} does not match "
                             f"error class {result.error_class!r}")
        return result


def ok_result(value: Any = None, text: str | None = None,
              files: list[str] | None = None) -> ToolResult:
    if text is None:
        text = json.dumps(value, sort_keys=True) if value is not None else "ok"
    return ToolResult(text=text, value=value, files=files or [])


def error_result(error_class: str, message: str) -> ToolResult:
    return ToolResult(text=message, error_class=error_class)


def classify_exception(exc: BaseException) -> str:
    """Map a handler exception to its taxonomy class."""
    if isinstance(exc, MissingFileError):
        return FILE_HALLUCINATION
    if isinstance(exc, InvalidInputError):
        return INVALID_PARAMETERS
    return SYSTEM_ERROR


class ToolRegistry:
    """Immutable mapping of tool names to specs and handlers, fixed when built."""

    def __init__(self, tools: Iterable[tuple[ToolSpec, Callable[[dict], Any]]]) -> None:
        self._specs: dict[str, ToolSpec] = {}
        self._handlers: dict[str, Callable[[dict], Any]] = {}
        for spec, handler in tools:
            if spec.name in self._specs:
                raise ValueError(f"tool name already registered: {spec.name}")
            self._specs[spec.name] = spec
            self._handlers[spec.name] = handler
        self._sorted = tuple(self._specs[k] for k in sorted(self._specs))

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def list_specs(self) -> tuple[ToolSpec, ...]:
        return self._sorted

    def validate_args(self, spec: ToolSpec, args: dict) -> str | None:
        """Return a problem description for a bad argument map, else None."""
        if not isinstance(args, dict):
            return f"arguments must be an object, got {type(args).__name__}"
        known = {p.name: p for p in spec.params}
        unknown = sorted(set(args) - set(known))
        if unknown:
            return f"unknown argument(s) {unknown} for tool {spec.name}"
        missing = sorted(p.name for p in spec.params if p.required and p.name not in args)
        if missing:
            return f"missing required argument(s) {missing} for tool {spec.name}"
        for key, value in args.items():
            p = known[key]
            if not p.accepts(value):
                expected = p.type if p.enum is None else f"one of {list(p.enum)}"
                return (f"argument {key!r} of tool {spec.name} expects {expected}, "
                        f"got {json.dumps(value, default=str)}")
        return None

    def call_tool(self, name: str, args: Any) -> ToolResult:
        if name not in self._specs:
            return error_result(TOOL_HALLUCINATION, f"unknown tool: {name}")
        spec = self._specs[name]
        problem = self.validate_args(spec, args)
        if problem is not None:
            return error_result(INVALID_PARAMETERS, problem)
        try:
            outcome = self._handlers[name](args)
        except Exception as exc:  # errors are data, never crashes
            return error_result(classify_exception(exc), f"{name}: {exc}")
        if isinstance(outcome, ToolResult):
            return outcome
        return ok_result(value=outcome)
