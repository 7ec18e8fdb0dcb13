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


class ExternalServiceError(GeoAgentError):
    """A call that depends on the runtime environment failed.

    Unreachable expert-model endpoints, missing mock fixtures and failed
    writes land here; the registry reports them as system errors.
    """
