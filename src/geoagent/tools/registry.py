"""Tool contract registry: specs, argument conversion, dispatch, and failure
classification.

`ToolRegistry.validate_args` is the one place where a JSON argument becomes
the value a kernel takes: a number stays an int inside int64 and must be
finite, an array of numbers becomes one float64 array (null as NaN where
the parameter allows gaps), a list of fixed-width number rows one 2-D
array, an enum name the value its table maps it to. What no kernel can
take is refused there, so kits do not convert or re-check what it hands
them. `call_tool` then resolves each path argument by its kind with
`Workspace.resolve`, in parameter order, so handlers see resolved paths
only.

Every failure surfaced to an agent carries exactly one of four runtime
classes; classification is a pure function of the registry state, the
requested name, the argument map, and the handler outcome. Errors are data:
they never abort the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from ..errors import InvalidInputError, MissingFileError, of_type
from ..finite_json import is_finite_number
from ..workspace import Workspace

TOOL_HALLUCINATION = "ToolHallucination"
FILE_HALLUCINATION = "FileHallucination"
INVALID_PARAMETERS = "InvalidParameters"
SYSTEM_ERROR = "SystemError"

ERROR_CLASSES = (TOOL_HALLUCINATION, FILE_HALLUCINATION, INVALID_PARAMETERS,
                 SYSTEM_ERROR)

_INT64_BOUND = 2**63


class _Refused(Exception):
    """An argument its kernel cannot take. `expected` says what it takes,
    or is None where the JSON type or the enum alone is wrong."""

    def __init__(self, expected: str | None = None):
        self.expected = expected


def _instance_of(cls: type) -> Callable[[Any], Any]:
    def convert(v):
        if isinstance(v, cls):
            return v
        raise _Refused()

    return convert


def _integer(v):
    if not isinstance(v, int) or isinstance(v, bool):
        raise _Refused()
    if -_INT64_BOUND < v < _INT64_BOUND:
        return v
    raise _Refused("an integer of magnitude below 2**63")


def _number(v):
    """A finite float as it is; an int as it is inside int64, else as the
    float it rounds to."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Refused()
    if not is_finite_number(v):
        raise _Refused("a finite number")
    return v if isinstance(v, float) or -_INT64_BOUND <= v < _INT64_BOUND else float(v)


# JSON type -> the converter of one value of it
_SCALARS = {"string": _instance_of(str), "number": _number, "integer": _integer,
            "boolean": _instance_of(bool), "object": _instance_of(dict),
            "array": _instance_of(list)}
_NUMBER_TYPES = frozenset({int, float})
_NUMBER_OR_NULL_TYPES = frozenset({int, float, type(None)})


def _floats(v: list, nullable: bool) -> np.ndarray:
    """A list of numbers (and nulls, where `nullable`) as one float64
    array, a null as NaN."""
    if not set(map(type, v)) <= (_NUMBER_OR_NULL_TYPES if nullable else _NUMBER_TYPES):
        # subclasses, such as numpy floats from in-process callers, item by item
        if not all((x is None and nullable)
                   or (isinstance(x, (int, float)) and not isinstance(x, bool)) for x in v):
            raise _Refused()
    try:
        arr = np.asarray(v, np.float64)
    except OverflowError:
        raise _Refused("finite numbers") from None
    finite = np.isfinite(arr)
    if not finite.all() and finite.size - np.count_nonzero(finite) != v.count(None):
        raise _Refused("finite numbers")
    return arr


def _rows(v: list, width: int) -> np.ndarray:
    """A list of number rows of length `width` as one (n, width) float64 array."""
    if not all(isinstance(row, list) for row in v):
        raise _Refused()
    try:
        if all(len(row) == width for row in v):
            return _floats([x for row in v for x in row], False).reshape(-1, width)
    except _Refused:
        pass
    raise _Refused(f"rows of {width} finite numbers")


def _array(p: ParamSpec, v):
    if not isinstance(v, list):
        raise _Refused()
    if p.width is not None:
        return _rows(v, p.width)
    if p.item_type == "number":
        return _floats(v, p.item_nullable)
    if p.item_type is not None:
        item = _SCALARS[p.item_type]
        for x in v:
            if x is not None or not p.item_nullable:
                item(x)
    return v


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: str
    required: bool = True
    description: str = ""
    enum: dict | None = None      # JSON name -> the value its kernel takes
    item_type: str | None = None  # element type for arrays
    item_nullable: bool = False   # arrays that mark gaps with null
    kind: str | None = None       # path kind (see `Workspace.resolve`), None for a non-path
    width: int | None = None      # row length of an array of number rows

    def __post_init__(self):
        if self.type not in _SCALARS:
            raise ValueError(f"bad parameter type {self.type!r} for {self.name}")
        if self.item_type is not None and self.item_type not in _SCALARS:
            raise ValueError(f"bad item type {self.item_type!r} for {self.name}")


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
            text=of_type(doc.get("text", ""), str, "tool result 'text'"),
            value=doc.get("value"),
            files=list(of_type(doc.get("files", []), list, "tool result 'files'")),
            error_class=doc.get("error_class"),
        )
        if doc.get("status", "ok") != result.status:
            raise ValueError(f"status {doc.get('status')!r} does not match "
                             f"error class {result.error_class!r}")
        return result


NOT_FINITE = "result is not finite"


def ok_result(value: Any = None, text: str | None = None,
              files: list[str] | None = None) -> ToolResult:
    """An ok result, its text the JSON of `value` unless given; a value
    that standard JSON cannot carry (NaN, an infinity) raises
    InvalidInputError."""
    if text is None:
        try:
            text = (json.dumps(value, sort_keys=True, allow_nan=False)
                    if value is not None else "ok")
        except ValueError:
            raise InvalidInputError(NOT_FINITE) from None
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
    """Immutable mapping of tool names to specs and handlers, fixed when
    built, over the workspace that its path arguments resolve in."""

    def __init__(self, tools: Iterable[tuple[ToolSpec, Callable[[dict], Any]]],
                 workspace: Workspace) -> None:
        self.workspace = workspace
        self._specs: dict[str, ToolSpec] = {}
        self._handlers: dict[str, Callable[[dict], Any]] = {}
        # tool name -> its path parameters as (name, kind), in parameter order
        self._paths: dict[str, tuple[tuple[str, str], ...]] = {}
        for spec, handler in tools:
            if spec.name in self._specs:
                raise ValueError(f"tool name already registered: {spec.name}")
            self._specs[spec.name] = spec
            self._handlers[spec.name] = handler
            self._paths[spec.name] = tuple((p.name, p.kind) for p in spec.params
                                           if p.kind is not None)
        self._sorted = tuple(self._specs[k] for k in sorted(self._specs))

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def list_specs(self) -> tuple[ToolSpec, ...]:
        return self._sorted

    def validate_args(self, spec: ToolSpec, args: dict) -> dict | str:
        """The argument map the handler receives, each value as its kernel
        takes it, or a description of the problem. `args` is left as it is."""
        if not isinstance(args, dict):
            return f"arguments must be an object, got {type(args).__name__}"
        known = {p.name: p for p in spec.params}
        unknown = sorted(set(args) - set(known))
        if unknown:
            return f"unknown argument(s) {unknown} for tool {spec.name}"
        missing = sorted(p.name for p in spec.params if p.required and p.name not in args)
        if missing:
            return f"missing required argument(s) {missing} for tool {spec.name}"
        checked = {}
        for key, value in args.items():
            p = known[key]
            try:
                checked[key] = (_array(p, value) if p.type == "array"
                                else _SCALARS[p.type](value))
                if p.enum is not None:
                    if value not in p.enum:
                        raise _Refused()
                    checked[key] = p.enum[value]
            except _Refused as refused:
                expected = refused.expected or (
                    p.type if p.enum is None else f"one of {list(p.enum)}")
                return (f"argument {key!r} of tool {spec.name} expects {expected}, "
                        f"got {json.dumps(value, default=str)}")
        return checked

    def call_tool(self, name: str, args: Any) -> ToolResult:
        """The tool's result. The handler gets the checked arguments with
        each path resolved by its kind; a path that fails to resolve is
        classified as a handler exception is. An ok value that is not finite
        is refused as InvalidParameters, as a non-finite argument is."""
        if name not in self._specs:
            return error_result(TOOL_HALLUCINATION, f"unknown tool: {name}")
        checked = self.validate_args(self._specs[name], args)
        if isinstance(checked, str):
            return error_result(INVALID_PARAMETERS, checked)
        try:
            for key, kind in self._paths[name]:
                if key in checked:
                    checked[key] = self.workspace.resolve(checked[key], kind)
            outcome = self._handlers[name](checked)
            return outcome if isinstance(outcome, ToolResult) else ok_result(value=outcome)
        except Exception as exc:  # errors are data, never crashes
            return error_result(classify_exception(exc), f"{name}: {exc}")
