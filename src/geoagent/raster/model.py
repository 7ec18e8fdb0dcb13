"""In-memory raster model.

A Raster is an immutable multi-band grid with optional nodata marking and
opaque georeference bytes carried through from the source file. All kit
arithmetic happens in float64 on NaN-masked views regardless of the stored
sample type.
"""

from __future__ import annotations

import math
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

# samples per block of whole rows in `map_rows`: a block's float64
# temporaries then stay in cache (2**15 is 16 rows of a 2048-wide raster)
BLOCK_SAMPLES = 2**15
# numpy's vector loops can pass on the other one of two NaNs for a sample in
# a loop's tail than for one in its body. Blocks of whole runs of this many
# samples, the last block at least one run, put every sample at the same
# place in each loop as the whole-array evaluation does.
_VECTOR_RUN = 64


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
                    object.__setattr__(self, "_fill", None)  # a reader closes its file then

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
        return _as_band(self.plane(index), self.nodata)

    def samples(self, band: int = 1) -> np.ndarray:
        """Valid samples of one band in their stored dtype, 1-D: the pixels of
        `band(band)` that are not NaN, in the same order, not widened. When no
        sample is masked this is a read-only view of the plane, else a new
        array."""
        plane = self.plane(band)
        masked = _nodata_at(plane, self.nodata)
        # a minimum is NaN when one of the samples is
        if plane.dtype.kind == "f" and plane.size and np.isnan(plane.min()):
            masked = np.isnan(plane) if masked is None else masked | np.isnan(plane)
        return plane.reshape(-1) if masked is None else plane[~masked]

    def same_shape(self, other: "Raster") -> bool:
        return (self.height, self.width) == (other.height, other.width)


def _nodata_at(samples: np.ndarray, nodata: float | None) -> np.ndarray | None:
    """Where stored samples are nodata, or None when no sample can be.

    An integer sample is nodata when it equals the nodata in value (exact in
    float64), so a nodata outside the sample type's range, or fractional,
    masks nothing. A float sample compares in float32.
    """
    if nodata is None or np.isnan(nodata):
        return None
    if samples.dtype.kind == "f":
        return samples == samples.dtype.type(nodata)
    return samples == np.float64(nodata)


def _as_band(samples: np.ndarray, nodata: float | None) -> np.ndarray:
    """Stored samples as float64 with NaN where they are nodata."""
    out = samples.astype(np.float64)
    masked = _nodata_at(samples, nodata)
    if masked is not None:
        out[masked] = np.nan
    return out


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


def map_rows(fn: Callable[..., np.ndarray], args: list, reference: Raster) -> Raster:
    """`like(reference, fn(*bands))`, computed over blocks of whole rows.

    `fn` must be per pixel: each output pixel depends only on the input
    pixels at the same place. Each argument reaches `fn` as the block's rows
    of what it stands for: a raster as its first band in float64 with NaN at
    nodata, as `Raster.band` gives it; a list of rasters as a list of such
    bands; an array as its rows, as they are. Each block's result is written
    straight into the f32 output, so no whole-band float64 temporary is
    built; a raster of up to `BLOCK_SAMPLES` samples goes through in one
    call. A block holds about `BLOCK_SAMPLES` samples, in whole runs of
    `_VECTOR_RUN`, so a width of no multiple of it takes more rows per
    block. NaN pixels become the output nodata marker, as with `like`.
    """
    sources = [_row_source(a) for a in args]
    height, width = reference.height, reference.width
    tops = [0]  # one call even with no rows
    if height * width > BLOCK_SAMPLES:
        run = _VECTOR_RUN // math.gcd(width, _VECTOR_RUN)  # rows making whole runs
        tops = list(range(0, height, max(BLOCK_SAMPLES // width // run, 1) * run))
        if len(tops) > 1 and (height - tops[-1]) * width < _VECTOR_RUN:
            tops.pop()  # a last block shorter than a run joins the one before
    out = np.empty((height, width), np.float32)
    for top, bottom in zip(tops, tops[1:] + [height]):
        rows = slice(top, bottom)
        out[rows] = fn(*(source(rows) for source in sources))
    nodata = float("nan") if np.isnan(out).any() else None
    return Raster(out, nodata=nodata, geo=reference.geo)


def _row_source(arg) -> Callable[[slice], object]:
    """The block reader of one `map_rows` argument."""
    if isinstance(arg, Raster):
        plane, nodata = arg.plane(1), arg.nodata
        return lambda rows: _as_band(plane[rows], nodata)
    if isinstance(arg, list):
        sources = [_row_source(a) for a in arg]
        return lambda rows: [source(rows) for source in sources]
    return lambda rows: arg[rows]


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

