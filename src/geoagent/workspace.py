"""Workspace-rooted path handling.

Tools receive model-generated paths, so every tool path goes through one
rule, `Workspace.resolve`, which knows the kind of path a parameter takes.
Every output path is confined to a single workspace root. Inputs may be
absolute (benchmark data folders often live elsewhere); relative inputs
resolve against the root. Stored documents write the root as
`WORKSPACE_TOKEN`, so they do not depend on where the workspace lives.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import InvalidInputError, MissingFileError, WorkspaceEscapeError

WORKSPACE_TOKEN = "$WS"

# a character that ends a path inside a message or a JSON text
_PATH_END = r"(?![^/\s'\"`:,;)\]}])"


@dataclass(frozen=True)
class Workspace:
    root: Path

    def __init__(self, root: str | os.PathLike[str]):
        object.__setattr__(self, "root", Path(root).resolve())
        object.__setattr__(self, "_root_at_boundary",
                           re.compile(re.escape(str(self.root)) + _PATH_END))

    def resolve(self, path: Any, kind: str) -> Any:
        """The path(s) a tool argument of `kind` names: an input `file`, a
        list of input `files`, an input `dir`, an `out_file` or an `out_dir`.

        An input that names nothing of its kind raises MissingFileError; it
        comes back as given when absolute, else joined to the root, and is
        not resolved further. An output that cannot be written as its kind
        raises InvalidInputError (WorkspaceEscapeError outside the root); it
        comes back fully resolved. Nothing is created: the writer makes the
        parent directories.
        """
        if kind == "files":
            if not path:
                raise InvalidInputError("empty file list")
            out = []
            for i, item in enumerate(path):
                try:
                    out.append(self.resolve(item, "file"))
                except MissingFileError as exc:
                    raise MissingFileError(f"batch item {i}: {exc}") from None
            return out
        if kind in ("file", "dir"):
            return self._input(path, kind == "dir")
        return self._output(path, kind == "out_dir")

    def _input(self, path: str, want_dir: bool) -> Path:
        candidate = Path(path)
        resolved = candidate if candidate.is_absolute() else self.root / candidate
        try:
            mode = os.stat(resolved).st_mode
        except (OSError, ValueError):  # missing, unreachable, or a NUL
            raise MissingFileError(f"no such file or directory: {path}") from None
        is_kind = stat.S_ISDIR(mode) if want_dir else stat.S_ISREG(mode)
        if not (path and is_kind):
            raise MissingFileError(f"not a {'directory' if want_dir else 'file'}: {path!r}")
        return resolved

    def _output(self, path: str | os.PathLike[str], want_dir: bool) -> Path:
        if not path or "\0" in str(path):
            raise InvalidInputError(f"not a writable path: {path!r}")
        # os.path.realpath, unlike Path.resolve, adds no stat of its own
        resolved = Path(os.path.realpath(self.root / path))
        if not resolved.is_relative_to(self.root):
            raise WorkspaceEscapeError(
                f"output path {path!s} resolves outside workspace {self.root}")
        try:
            is_dir = stat.S_ISDIR(os.stat(resolved).st_mode)
        except FileNotFoundError:
            return resolved
        except OSError as exc:  # a file among the parents, a symlink loop
            raise InvalidInputError(f"output path {path!s}: {exc.strerror}") from None
        if is_dir != want_dir:
            raise InvalidInputError(
                f"output path {path!s} is an existing {'directory' if is_dir else 'file'}")
        return resolved

    def mask(self, doc: Any) -> Any:
        """`doc` with the root written as `WORKSPACE_TOKEN` wherever it ends
        at a path boundary, recursively through lists and dicts."""
        if isinstance(doc, str):
            return self._root_at_boundary.sub(WORKSPACE_TOKEN, doc)
        if isinstance(doc, list):
            return [self.mask(v) for v in doc]
        if isinstance(doc, dict):
            return {k: self.mask(v) for k, v in doc.items()}
        return doc
