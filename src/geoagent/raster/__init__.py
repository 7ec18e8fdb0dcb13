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
    """Load a raster, sniffing TIFF vs PNG vs .meta.json by content."""
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"no such file: {path}")
    with p.open("rb") as fh:
        head = fh.read(8)
    if head.startswith(_PNG_SIGNATURE):
        return read_png(p)
    if head[:2] in (b"II", b"MM"):
        return read_tiff(p)
    if head.lstrip().startswith(b"{"):
        return read_meta_json(p)
    raise CorruptFileError(f"{path}: neither TIFF, PNG, nor raster sidecar")


def read_meta_json(path: str | Path) -> Raster:
    """Plain-text raster sidecar for synthetic fixtures.

    Schema: {"width": int, "height": int, "dtype": "u8"|"u16"|"f32",
    "values": row-major samples, "bands": optional int (default 1),
    "nodata": optional number}.
    """
    import json

    import numpy as np

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        width, height = int(doc["width"]), int(doc["height"])
        bands = int(doc.get("bands", 1))
        dtype = doc["dtype"]
        values = doc["values"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: bad raster sidecar: {exc}") from exc
    if dtype not in DTYPES:
        raise CorruptFileError(f"{path}: sidecar dtype {dtype!r} unsupported")
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size != width * height * bands:
        raise CorruptFileError(
            f"{path}: sidecar has {arr.size} samples, expected "
            f"{width * height * bands}")
    data = arr.reshape(bands, height, width)
    return from_array(data, dtype=dtype, nodata=doc.get("nodata"))


def save_raster(raster: Raster, path: str | Path) -> Path:
    """Write a raster as uncompressed GeoTIFF; parent directory must already exist."""
    write_tiff(raster, path)
    return Path(path)
