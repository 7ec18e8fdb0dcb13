"""Workspace-rooted path handling.

Tools receive model-generated paths, so every output path is confined to a
single workspace root. Inputs may be absolute (benchmark data folders often
live elsewhere); relative inputs resolve against the root. Stored documents
write the root as `WORKSPACE_TOKEN`, so they do not depend on where the
workspace lives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import MissingFileError, WorkspaceEscapeError

WORKSPACE_TOKEN = "$WS"


@dataclass(frozen=True)
class Workspace:
    root: Path

    def __init__(self, root: str | os.PathLike[str]):
        object.__setattr__(self, "root", Path(root).resolve())

    def resolve_output(self, relpath: str | os.PathLike[str]) -> Path:
        """Resolve an output path, creating parent directories.

        Raises WorkspaceEscapeError if the path lands outside the root.
        """
        candidate = Path(relpath)
        if candidate.is_absolute():
            resolved = candidate.resolve()
        else:
            resolved = (self.root / candidate).resolve()
        if not resolved.is_relative_to(self.root):
            raise WorkspaceEscapeError(
                f"output path {relpath!s} resolves outside workspace {self.root}"
            )
        resolved.parent.mkdir(parents=True, exist_ok=True)
        return resolved

    def resolve_input(self, path: str | os.PathLike[str]) -> Path:
        """Resolve an input path and require it to exist."""
        candidate = Path(path)
        resolved = candidate if candidate.is_absolute() else self.root / candidate
        if not resolved.exists():
            raise MissingFileError(f"no such file or directory: {path!s}")
        return resolved


    def mask(self, doc: Any) -> Any:
        """`doc` with the root written as `WORKSPACE_TOKEN` in every string,
        recursively through lists and dicts."""
        if isinstance(doc, str):
            return doc.replace(str(self.root), WORKSPACE_TOKEN)
        if isinstance(doc, list):
            return [self.mask(v) for v in doc]
        if isinstance(doc, dict):
            return {k: self.mask(v) for k, v in doc.items()}
        return doc
