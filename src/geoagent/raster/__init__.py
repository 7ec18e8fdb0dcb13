"""Raster model and file I/O."""

from __future__ import annotations

import errno
import itertools
import os
import stat
from pathlib import Path
from typing import BinaryIO

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
from .tiff import read_tiff, write_tiff

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
    "temporary_beside",
]


# what `Path.is_file` takes for "no such file" rather than a failure
_NOT_THERE = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP}
# bytes a reader's buffer holds: the first read of a file of up to this size
# brings its header, IFD and tag values in, with one system call
_READ_BUFFER = 1 << 16


def load_raster(path: str | Path) -> Raster:
    """Load a raster, sniffing TIFF vs PNG by content. The file is opened
    once: `read_tiff` takes a TIFF's file over, and a PNG is read whole."""
    fh, size = _open(path)
    try:
        head = fh.read(8)
        fh.seek(0)
    except BaseException:
        fh.close()
        raise
    if head[:2] in (b"II", b"MM"):
        return read_tiff(fh, size)
    with fh:
        if head.startswith(_PNG_SIGNATURE):
            return decode_png(fh.read())
    raise CorruptFileError(f"{path}: neither TIFF nor PNG")


def _open(path: str | Path) -> tuple[BinaryIO, int]:
    """The regular file at `path`, open for buffered reading, and its size;
    a path that names nothing, or something other than a regular file, is a
    `MissingFileError`."""
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
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise MissingFileError(f"no such file: {path}")
    except BaseException:
        os.close(fd)
        raise
    # the file object owns the descriptor from here: `open` closes it on a
    # failure once it has taken it, so it is not closed here twice
    return open(fd, "rb", buffering=_READ_BUFFER), info.st_size


# numbers the temporary files of this process
_TEMPORARIES = itertools.count()


def temporary_beside(path: Path) -> Path:
    """A new hidden name in `path`'s directory, unique to this process and
    call, for a file written there before it replaces `path`."""
    return path.with_name(f".{path.name}.{os.getpid()}-{next(_TEMPORARIES)}.tmp")


def save_raster(raster: Raster, path: str | Path) -> None:
    """Write a raster as uncompressed GeoTIFF, creating its parent directories.

    The file is written beside `path` and then renamed onto it, so no reader
    sees it half written, a failed save leaves what was at `path`, and a
    raster still reading the file it replaces reads the file it opened."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = temporary_beside(path)
    try:
        write_tiff(raster, temp)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
