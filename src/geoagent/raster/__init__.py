"""Raster model and file I/O."""

from __future__ import annotations

from pathlib import Path

from ..errors import CorruptFileError, MissingFileError
from .model import (
    DTYPES,
    GeoRef,
    Raster,
    from_array,
    like,
    mask_like,
    require_same_grid,
)
from .png import SIGNATURE as _PNG_SIGNATURE
from .png import read_png
from .tiff import read_tiff, write_tiff

__all__ = [
    "DTYPES",
    "GeoRef",
    "Raster",
    "from_array",
    "like",
    "load_raster",
    "mask_like",
    "require_same_grid",
    "save_raster",
]


def load_raster(path: str | Path) -> Raster:
    """Load a raster, sniffing TIFF vs PNG by content."""
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"no such file: {path}")
    with p.open("rb") as fh:
        head = fh.read(8)
    if head.startswith(_PNG_SIGNATURE):
        return read_png(p)
    if head[:2] in (b"II", b"MM"):
        return read_tiff(p)
    raise CorruptFileError(f"{path}: neither TIFF nor PNG")


def save_raster(raster: Raster, path: str | Path) -> None:
    """Write a raster as uncompressed GeoTIFF, creating its parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_tiff(raster, path)
