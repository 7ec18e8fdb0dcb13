"""Raster model and file I/O."""

from __future__ import annotations

import errno
import os
import stat
from pathlib import Path

from ..errors import CorruptFileError, MissingFileError
from .model import (
    DTYPES,
    GeoRef,
    Raster,
    from_array,
    like,
    map_rows,
    mask_like,
    require_same_grid,
)
from .png import SIGNATURE as _PNG_SIGNATURE
from .png import decode_png
from .tiff import decode_tiff, write_tiff

__all__ = [
    "DTYPES",
    "GeoRef",
    "Raster",
    "from_array",
    "like",
    "load_raster",
    "map_rows",
    "mask_like",
    "require_same_grid",
    "save_raster",
]


# what `Path.is_file` takes for "no such file" rather than a failure
_NOT_THERE = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP}


def load_raster(path: str | Path) -> Raster:
    """Load a raster, sniffing TIFF vs PNG by content; the file is read once."""
    buf = _read_file(path)
    if buf.startswith(_PNG_SIGNATURE):
        return decode_png(buf)
    if buf[:2] in (b"II", b"MM"):
        return decode_tiff(buf)
    raise CorruptFileError(f"{path}: neither TIFF nor PNG")


def _read_file(path: str | Path) -> bytes:
    """The bytes of the regular file at `path`; a path that names nothing,
    or something other than a regular file, is a `MissingFileError`."""
    try:
        # non-blocking, so that opening a FIFO does not wait for a writer
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except ValueError:  # a NUL in the path
        raise MissingFileError(f"no such file: {path}") from None
    except OSError as exc:
        if exc.errno in _NOT_THERE:
            raise MissingFileError(f"no such file: {path}") from None
        raise
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise MissingFileError(f"no such file: {path}")
        with open(fd, "rb", closefd=False) as fh:
            return fh.read()
    finally:
        os.close(fd)


def save_raster(raster: Raster, path: str | Path) -> None:
    """Write a raster as uncompressed GeoTIFF, creating its parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_tiff(raster, path)
