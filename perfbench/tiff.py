"""GeoTIFF writer and decoder owned by the benchmark.

Inputs are written here, not with the package's writer, so that a change to
the package's raster code never changes what the benchmark feeds it. The
decoder reads back the package's outputs for the output digest; it covers the
baseline layouts the package writes (little-endian strips, raw or Deflate,
chunky or band-sequential planes).
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

_DTYPES = {"u8": ("<u1", 8, 1), "u16": ("<u2", 16, 1), "f32": ("<f4", 32, 3)}
_FORMATS = {(8, 1): "<u1", (16, 1): "<u2", (32, 3): "<f4"}
_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 12: 8}
GEO_TAGS = (33550, 33922, 34735)


def georef(origin_x: float, origin_y: float, pixel: float) -> list[tuple[int, int, bytes]]:
    """ModelPixelScale, ModelTiepoint and GeoKeyDirectory for a UTM grid."""
    scale = np.array([pixel, pixel, 0.0], dtype="<f8").tobytes()
    tie = np.array([0, 0, 0, origin_x, origin_y, 0], dtype="<f8").tobytes()
    keys = np.array([1, 1, 0, 1, 3072, 0, 1, 32633], dtype="<u2").tobytes()
    return [(33550, 12, scale), (33922, 12, tie), (34735, 3, keys)]


def write(path: Path, data: np.ndarray, dtype: str, geo: list, deflate: bool,
          rows_per_strip: int | None = None) -> int:
    """Write (bands, height, width) samples; returns the file size in bytes.

    Multi-band images are band-sequential (PlanarConfiguration 2).
    """
    if data.ndim == 2:
        data = data[np.newaxis]
    bands, height, width = data.shape
    np_dtype, bits, fmt = _DTYPES[dtype]
    samples = np.ascontiguousarray(data.astype(np_dtype))
    rows = rows_per_strip or height
    strips = []
    for b in range(bands):
        for y in range(0, height, rows):
            raw = samples[b, y:y + rows].tobytes()
            strips.append(zlib.compress(raw, 1) if deflate else raw)
    tags = [
        (256, 4, struct.pack("<I", width)),
        (257, 4, struct.pack("<I", height)),
        (258, 3, struct.pack("<" + "H" * bands, *[bits] * bands)),
        (259, 3, struct.pack("<H", 8 if deflate else 1)),
        (262, 3, struct.pack("<H", 1)),
        (277, 3, struct.pack("<H", bands)),
        (278, 4, struct.pack("<I", rows)),
        (284, 3, struct.pack("<H", 2 if bands > 1 else 1)),
        (339, 3, struct.pack("<" + "H" * bands, *[fmt] * bands)),
        *geo,
    ]
    offsets, pos = [], 8
    for s in strips:
        offsets.append(pos)
        pos += len(s)
    tags.append((273, 4, struct.pack(f"<{len(strips)}I", *offsets)))
    tags.append((279, 4, struct.pack(f"<{len(strips)}I", *map(len, strips))))
    tags.sort(key=lambda t: t[0])
    ifd = pos
    extra_at = ifd + 2 + 12 * len(tags) + 4
    entries, extra = b"", b""
    for tag, ftype, raw in tags:
        entries += struct.pack("<HHI", tag, ftype, len(raw) // _TYPE_SIZE[ftype])
        if len(raw) <= 4:
            entries += raw.ljust(4, b"\0")
        else:
            entries += struct.pack("<I", extra_at + len(extra))
            extra += raw + b"\0" * (len(raw) % 2)
    blob = b"".join([struct.pack("<2sHI", b"II", 42, ifd), *strips,
                     struct.pack("<H", len(tags)), entries, b"\0\0\0\0", extra])
    Path(path).write_bytes(blob)
    return len(blob)


def _tags(buf: bytes) -> dict[int, tuple[int, int, bytes]]:
    if buf[:4] != b"II*\0":
        raise ValueError("not a little-endian classic TIFF")
    (ifd,) = struct.unpack_from("<I", buf, 4)
    (n,) = struct.unpack_from("<H", buf, ifd)
    out = {}
    for i in range(n):
        tag, ftype, count = struct.unpack_from("<HHI", buf, ifd + 2 + 12 * i)
        size = _TYPE_SIZE.get(ftype, 1) * count
        at = ifd + 2 + 12 * i + 8
        if size > 4:
            (at,) = struct.unpack_from("<I", buf, at)
        out[tag] = (ftype, count, buf[at:at + size])
    return out


def _ints(entry) -> list[int]:
    ftype, count, raw = entry
    return list(struct.unpack("<" + {3: "H", 4: "I"}[ftype] * count, raw))


def read(path: Path) -> tuple[np.ndarray, bytes]:
    """Decode samples as (bands, height, width) plus the georeference tag bytes."""
    buf = Path(path).read_bytes()
    tags = _tags(buf)
    width, height = _ints(tags[256])[0], _ints(tags[257])[0]
    bands = _ints(tags[277])[0] if 277 in tags else 1
    np_dtype = _FORMATS[(_ints(tags[258])[0], _ints(tags[339])[0] if 339 in tags else 1)]
    deflate = _ints(tags[259])[0] in (8, 32946)
    planar = _ints(tags[284])[0] if 284 in tags else 1
    chunks = [buf[o:o + c] for o, c in zip(_ints(tags[273]), _ints(tags[279]))]
    payload = b"".join(zlib.decompress(c) if deflate else c for c in chunks)
    flat = np.frombuffer(payload, dtype=np_dtype, count=width * height * bands)
    if planar == 1:
        data = flat.reshape(height, width, bands).transpose(2, 0, 1)
    else:
        data = flat.reshape(bands, height, width)
    geo = b"".join(struct.pack("<HH", t, tags[t][0]) + tags[t][2]
                   for t in GEO_TAGS if t in tags)
    return data, geo


def layout(path: Path) -> str:
    """Sample type and compression of a TIFF, or "png", e.g. "f32_deflate"."""
    buf = Path(path).read_bytes()
    if buf.startswith(b"\x89PNG"):
        return "png"
    if not buf.startswith(b"II*\0"):
        return "other"
    tags = _tags(buf)
    first = {t: _ints(tags[t])[0] for t in (258, 259, 339) if t in tags}
    dtype = {(8, 1): "u8", (16, 1): "u16", (32, 3): "f32"}.get(
        (first.get(258, 8), first.get(339, 1)), "other")
    return f"{dtype}_{'deflate' if first.get(259, 1) in (8, 32946) else 'raw'}"
