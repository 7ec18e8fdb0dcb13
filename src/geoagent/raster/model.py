"""In-memory raster model.

A Raster is an immutable multi-band grid with optional nodata marking and
opaque georeference bytes carried through from the source file. All kit
arithmetic happens in float64 on NaN-masked views regardless of the stored
sample type.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, ShapeMismatchError

DTYPES = {
    "u8": np.dtype(np.uint8),
    "u16": np.dtype(np.uint16),
    "f32": np.dtype(np.float32),
}
_DTYPE_NAMES = {v: k for k, v in DTYPES.items()}


@dataclass(frozen=True)
class GeoRef:
    """Georeference tags copied verbatim from the source file.

    Each entry is (tiff tag, tiff field type, raw little-endian value bytes).
    Treated as opaque: preserved byte-exactly on save, never reprojected.
    """

    tags: tuple[tuple[int, int, bytes], ...] = ()


class Raster:
    """Band-sequential raster: data has shape (bands, height, width).

    Immutable. A raster may be built with planes still to decode: `fill(k)`
    then writes plane k's samples into the array given as `data`, and runs
    once per plane, the first time a band of it or `data` is read.
    """

    __slots__ = ("_data", "nodata", "geo", "_fill", "_pending", "_lock")

    def __init__(self, data: np.ndarray, nodata: float | None = None,
                 geo: GeoRef | None = None,
                 fill: Callable[[int], None] | None = None) -> None:
        if data.ndim == 2:
            data = data[np.newaxis, :, :]
        if data.ndim != 3:
            raise InvalidInputError(f"raster data must be 2-D or 3-D, got {data.ndim}-D")
        if data.dtype not in _DTYPE_NAMES:
            raise InvalidInputError(f"unsupported raster dtype {data.dtype}")
        if fill is not None:
            data = data.view()  # read-only below; `fill` writes through the base
        data.setflags(write=False)
        init = object.__setattr__
        init(self, "_data", data)
        init(self, "nodata", nodata)
        init(self, "geo", geo if geo is not None else GeoRef())
        init(self, "_fill", fill)
        init(self, "_pending", set(range(data.shape[0])) if fill is not None else set())
        init(self, "_lock", threading.Lock() if fill is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Raster is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Raster is immutable; cannot delete {name!r}")

    @property
    def data(self) -> np.ndarray:
        """All samples, read-only; decodes the planes still pending."""
        if self._pending:
            for k in range(self.bands):
                self._decode(k)
        return self._data

    def plane(self, index: int = 1) -> np.ndarray:
        """One band (1-based) as stored: a read-only (height, width) array."""
        if not 1 <= index <= self.bands:
            raise InvalidInputError(
                f"band {index} out of range for raster with {self.bands} band(s)"
            )
        self._decode(index - 1)
        return self._data[index - 1]

    def _decode(self, k: int) -> None:
        if k not in self._pending:
            return
        with self._lock:
            if k in self._pending:
                self._fill(k)
                self._pending.discard(k)
                if not self._pending:
                    object.__setattr__(self, "_fill", None)  # drops the file's bytes

    @property
    def bands(self) -> int:
        return self._data.shape[0]

    @property
    def height(self) -> int:
        return self._data.shape[1]

    @property
    def width(self) -> int:
        return self._data.shape[2]

    @property
    def dtype_name(self) -> str:
        return _DTYPE_NAMES[self._data.dtype]

    def band(self, index: int = 1) -> np.ndarray:
        """One band (1-based) as float64 with NaN at nodata pixels.

        An integer band masks only the samples equal in value to the nodata,
        so a nodata outside the sample type's range, or fractional, masks
        nothing. A float band compares in float32.
        """
        plane = self.plane(index)
        out = plane.astype(np.float64)
        if self.nodata is None or np.isnan(self.nodata):
            return out
        if plane.dtype.kind == "f":
            out[plane == plane.dtype.type(self.nodata)] = np.nan
        else:  # integer samples are exact in float64
            out[out == self.nodata] = np.nan
        return out

    def values(self, band: int = 1) -> np.ndarray:
        """Valid pixel values of one band as a 1-D float64 vector."""
        b = self.band(band)
        nan_possible = self._data.dtype.kind == "f" or (
            self.nodata is not None and not np.isnan(self.nodata))
        # a sum is NaN when one of its terms is
        if nan_possible and np.isnan(b.sum()):
            return b[~np.isnan(b)]
        return b.ravel()

    def same_shape(self, other: "Raster") -> bool:
        return (self.height, self.width) == (other.height, other.width)


def from_array(values, dtype: str = "f32", nodata: float | None = None,
               geo: GeoRef | None = None) -> Raster:
    """Build a raster from any array-like, casting to a supported dtype."""
    if dtype not in DTYPES:
        raise InvalidInputError(f"unknown dtype {dtype!r}")
    arr = np.asarray(values)
    return Raster(arr.astype(DTYPES[dtype]), nodata=nodata,
                  geo=geo if geo is not None else GeoRef())


def like(reference: Raster, band_f64: np.ndarray) -> Raster:
    """Wrap a float64 result band as an f32 raster inheriting the reference geo.

    NaN pixels become the output nodata marker.
    """
    out = band_f64.astype(np.float32)
    nodata = float("nan") if np.isnan(out).any() else None
    return Raster(out, nodata=nodata, geo=reference.geo)


def mask_like(reference: Raster, condition: np.ndarray, on: int = 1) -> Raster:
    """Wrap a boolean band as a u8 map, `on` where it holds and 0 elsewhere
    (a comparison with NaN never holds), inheriting the reference geo."""
    return Raster(np.where(condition, np.uint8(on), np.uint8(0)), geo=reference.geo)


def require_same_grid(*rasters: Raster) -> None:
    for prev, r in zip(rasters, rasters[1:]):
        if not prev.same_shape(r):
            raise ShapeMismatchError(
                f"grids differ: {prev.width}x{prev.height} vs {r.width}x{r.height}"
            )

