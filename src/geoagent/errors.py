"""Exception hierarchy shared by every toolkit and the dispatch layer.

The registry maps these onto the four runtime failure classes reported to
agents (tool hallucination, file hallucination, invalid parameters, system
error), so handlers raise the most specific type they can.
"""

from __future__ import annotations


class GeoAgentError(Exception):
    """Base class for all errors raised by this package."""


class MissingFileError(GeoAgentError):
    """An input path names no file, or no directory, of the kind expected."""


class InvalidInputError(GeoAgentError):
    """Arguments are structurally valid but semantically unusable.

    Covers shape mismatches, degenerate ranges, non-binary maps, series too
    short for a statistic, zero variance, empty batches, and similar.
    """


class WorkspaceEscapeError(InvalidInputError):
    """An output path resolves outside the workspace root."""


class ShapeMismatchError(InvalidInputError):
    """Two rasters that must share a grid do not."""


class UnsupportedLayoutError(InvalidInputError):
    """A raster file is readable but uses an unsupported TIFF feature."""


class CorruptFileError(InvalidInputError):
    """A raster file is truncated or not a raster at all."""


class SchemaError(ValueError):
    """A task, trajectory or plan document violates its schema."""


_JSON_TYPES = {str: "string", dict: "object", list: "array", type(None): "null",
               bool: "boolean", int: "number", float: "number"}


def of_type(value, kind: type | tuple[type, ...], field: str):
    """`value` when it is a `kind`, else SchemaError naming the document
    `field`; a document field is never coerced."""
    if isinstance(value, kind):
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    raise SchemaError(f"{field} must be {' or '.join(_JSON_TYPES[k] for k in kinds)}, "
                      f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")


class ExternalServiceError(GeoAgentError):
    """A call that depends on the runtime environment failed.

    Unreachable expert-model endpoints, missing mock fixtures and failed
    writes land here; the registry reports them as system errors.
    """
