"""Minimal GeoTIFF reader/writer.

Deliberately small subset: classic (non-Big) TIFF, baseline strips,
uncompressed or Deflate without a predictor, u8/u16/f32 samples,
band-sequential or pixel-interleaved planes. The planes of a band-sequential
Deflate file are inflated one at a time, the first time each is read. Georeference tags
(ModelPixelScale, ModelTiepoint and the three GeoKey tags) plus the nodata
tag are carried through; anything fancier raises UnsupportedLayoutError.

The writer always emits little-endian files with one strip per plane, which
keeps round-trips byte-stable for testing.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import CorruptFileError, UnsupportedLayoutError
from .model import DTYPES, GeoRef, Raster

# TIFF field types and their byte widths
_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4, 10: 8, 11: 4, 12: 8}

_TAG_WIDTH = 256
_TAG_HEIGHT = 257
_TAG_BITS = 258
_TAG_COMPRESSION = 259
_TAG_PHOTOMETRIC = 262
_TAG_STRIP_OFFSETS = 273
_TAG_SAMPLES = 277
_TAG_ROWS_PER_STRIP = 278
_TAG_STRIP_COUNTS = 279
_TAG_PLANAR = 284
_TAG_PREDICTOR = 317
_TAG_SAMPLE_FORMAT = 339
_TAG_TILE_MARKERS = (322, 323, 324, 325)
_TAG_NODATA = 42113

GEO_TAGS = (33550, 33922, 34735, 34736, 34737)

# (bits, sample format) -> dtype name
_FORMATS = {(8, 1): "u8", (16, 1): "u16", (32, 3): "f32"}
_FORMATS_INV = {"u8": (8, 1), "u16": (16, 1), "f32": (32, 3)}

# Deflate codes at most 258 bytes in 2 bits, so a stream inflates to at most
# 1032 times its size.
DEFLATE_MAX_RATIO = 1032


def _read_entries(buf: bytes, order: str) -> dict[int, tuple[int, int, bytes]]:
    """Parse IFD0 into tag -> (field type, count, raw value bytes)."""
    (ifd_off,) = struct.unpack(order + "I", buf[4:8])
    if ifd_off + 2 > len(buf):
        raise CorruptFileError("IFD offset beyond end of file")
    (n_entries,) = struct.unpack(order + "H", buf[ifd_off:ifd_off + 2])
    entries: dict[int, tuple[int, int, bytes]] = {}
    for i in range(n_entries):
        base = ifd_off + 2 + 12 * i
        if base + 12 > len(buf):
            raise CorruptFileError("truncated IFD")
        tag, ftype, count = struct.unpack(order + "HHI", buf[base:base + 8])
        size = _TYPE_SIZE.get(ftype, 1) * count
        if size <= 4:
            raw = buf[base + 8:base + 8 + size]
        else:
            (off,) = struct.unpack(order + "I", buf[base + 8:base + 12])
            if off + size > len(buf):
                raise CorruptFileError(f"tag {tag} value beyond end of file")
            raw = buf[off:off + size]
        entries[tag] = (ftype, count, raw)
    return entries


def _ints(entry: tuple[int, int, bytes], order: str) -> list[int]:
    ftype, count, raw = entry
    fmt = {3: "H", 4: "I", 1: "B"}.get(ftype)
    if fmt is None:
        raise CorruptFileError(f"unexpected field type {ftype} for integer tag")
    return list(struct.unpack(order + fmt * count, raw))


def _required(entries, tag: int, order: str) -> list[int]:
    if tag not in entries:
        raise CorruptFileError(f"required TIFF tag {tag} missing")
    return _ints(entries[tag], order)


def _scalar(entries, tag: int, order: str, default: int | None = None) -> int:
    if tag not in entries and default is not None:
        return default
    values = _required(entries, tag, order)
    if not values:
        raise CorruptFileError(f"TIFF tag {tag} has no value")
    return values[0]


def decode_tiff(buf: bytes) -> Raster:
    """The raster a classic TIFF file's bytes hold."""
    if len(buf) < 8:
        raise CorruptFileError("file too short to be a TIFF")
    if buf[:2] == b"II":
        order = "<"
    elif buf[:2] == b"MM":
        order = ">"
    else:
        raise CorruptFileError("not a TIFF file (bad byte-order mark)")
    (magic,) = struct.unpack(order + "H", buf[2:4])
    if magic != 42:
        raise CorruptFileError(f"not a classic TIFF (magic {magic})")

    entries = _read_entries(buf, order)
    for tag in _TAG_TILE_MARKERS:
        if tag in entries:
            raise UnsupportedLayoutError("tiled TIFF not supported")

    width = _scalar(entries, _TAG_WIDTH, order)
    height = _scalar(entries, _TAG_HEIGHT, order)
    samples = _scalar(entries, _TAG_SAMPLES, order, default=1)
    compression = _scalar(entries, _TAG_COMPRESSION, order, default=1)
    planar = _scalar(entries, _TAG_PLANAR, order, default=1)
    rows_per_strip = _scalar(entries, _TAG_ROWS_PER_STRIP, order, default=height)
    predictor = _scalar(entries, _TAG_PREDICTOR, order, default=1)

    if compression not in (1, 8, 32946):
        raise UnsupportedLayoutError(f"compression {compression} not supported")
    if planar not in (1, 2):
        raise UnsupportedLayoutError(f"planar configuration {planar} not supported")
    if predictor != 1:
        raise UnsupportedLayoutError(f"predictor {predictor} not supported")

    bits = _ints(entries[_TAG_BITS], order) if _TAG_BITS in entries else [1] * samples
    fmts = (_ints(entries[_TAG_SAMPLE_FORMAT], order)
            if _TAG_SAMPLE_FORMAT in entries else [1] * samples)
    if len(set(bits)) != 1 or len(set(fmts)) != 1:
        raise UnsupportedLayoutError("mixed per-band sample types not supported")
    key = (bits[0], fmts[0])
    if key not in _FORMATS:
        raise UnsupportedLayoutError(f"sample layout bits={bits[0]} format={fmts[0]} not supported")
    dtype_name = _FORMATS[key]

    offsets = _required(entries, _TAG_STRIP_OFFSETS, order)
    counts = _required(entries, _TAG_STRIP_COUNTS, order)
    if len(offsets) != len(counts):
        raise CorruptFileError("strip offset/count mismatch")
    if not offsets:
        raise CorruptFileError("TIFF has no strips")
    if any(off + cnt > len(buf) for off, cnt in zip(offsets, counts)):
        raise CorruptFileError("strip beyond end of file")
    if planar == 2 and (rows_per_strip < 1 or len(offsets)
                        != max(1, -(-height // rows_per_strip)) * samples):
        raise CorruptFileError("strip count does not match planar layout")

    data, fill = _decode(buf, offsets, counts, compression != 1, order,
                         DTYPES[dtype_name], (samples, height, width), planar)

    nodata = None
    if _TAG_NODATA in entries:
        text = entries[_TAG_NODATA][2].split(b"\x00")[0].decode("ascii", "replace").strip()
        try:
            nodata = float(text)
        except ValueError:
            nodata = None

    geo_tags = []
    for tag in GEO_TAGS:
        if tag in entries:
            ftype, _count, raw = entries[tag]
            if order == ">":
                raw = _swap_to_le(raw, ftype)
            geo_tags.append((tag, ftype, raw))
    return Raster(data, nodata=nodata, geo=GeoRef(tags=tuple(geo_tags)), fill=fill)


def _decode(buf: bytes, offsets: list[int], counts: list[int], deflate: bool,
            order: str, dtype: np.dtype, shape: tuple[int, int, int], planar: int):
    """The samples of the strips concatenated in tag order, as a native
    (bands, height, width) array, and the `fill(k)` that decodes plane k into
    it, or None when the array is already whole.

    Uncompressed strips that lie back to back in the file give a read-only
    view of `buf`. Otherwise the strips are copied or inflated into one new
    array, and nothing past the samples the image needs is inflated. The
    planes of a band-sequential Deflate file are left to `fill`, so a plane
    never read is never inflated; every check but the inflate itself runs
    here.
    """
    samples, height, width = shape
    size = samples * height * width
    lazy = deflate and planar == 2 and samples > 1
    planes = samples if lazy else 1
    per_plane = len(offsets) // planes
    strips = [(offsets[k * per_plane:(k + 1) * per_plane],
               counts[k * per_plane:(k + 1) * per_plane]) for k in range(planes)]
    plane_size = size // planes
    nbytes = plane_size * dtype.itemsize
    if any(sum(c) * (DEFLATE_MAX_RATIO if deflate else 1) < nbytes for _, c in strips):
        raise CorruptFileError("pixel data shorter than image dimensions require")

    if not deflate and all(off + cnt == nxt
                           for off, cnt, nxt in zip(offsets, counts, offsets[1:])):
        flat = np.frombuffer(buf, dtype.newbyteorder(order), size, offsets[0])
        return _arrange(flat.astype(dtype, copy=False), shape, planar), None

    raw = np.empty(nbytes * planes, np.uint8)
    flat = raw.view(dtype)
    src, dest = memoryview(buf), memoryview(raw)

    def fill(k: int) -> None:
        _read_strips(src, *strips[k], deflate, dest[k * nbytes:(k + 1) * nbytes])
        if order == ">":
            flat[k * plane_size:(k + 1) * plane_size].byteswap(inplace=True)

    if lazy:
        return flat.reshape(shape), fill
    fill(0)
    return _arrange(flat, shape, planar), None


def _arrange(flat: np.ndarray, shape: tuple[int, int, int], planar: int) -> np.ndarray:
    samples, height, width = shape
    if planar == 1:
        return np.ascontiguousarray(flat.reshape(height, width, samples).transpose(2, 0, 1))
    return flat.reshape(shape)


def _read_strips(src: memoryview, offsets: list[int], counts: list[int],
                 deflate: bool, dest: memoryview) -> None:
    """Fill `dest` with the strips concatenated in order; nothing past its
    end is inflated."""
    nbytes, pos = len(dest), 0
    for off, cnt in zip(offsets, counts):
        want = nbytes - pos
        if want == 0:
            break
        if deflate:
            strip = inflate(src[off:off + cnt], want)
        else:
            strip = src[off:off + min(cnt, want)]
        dest[pos:pos + len(strip)] = strip
        pos += len(strip)
    if pos < nbytes:
        raise CorruptFileError("pixel data shorter than image dimensions require")


def inflate(stream, limit: int) -> memoryview:
    """The first `limit` bytes a zlib stream inflates to, or all of them if
    fewer. Nothing past one byte more is inflated: that byte, or the end of
    the stream with its checksum, shows that the stream is not cut short."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(stream, limit + 1)
    except zlib.error as exc:
        raise CorruptFileError(f"bad deflate stream: {exc}") from exc
    if len(out) <= limit and not inflater.eof:
        raise CorruptFileError("bad deflate stream: stream ends early")
    return memoryview(out)[:limit]


def _swap_to_le(raw: bytes, ftype: int) -> bytes:
    size = _TYPE_SIZE[ftype]
    if size == 1:
        return raw
    arr = np.frombuffer(raw, dtype=f">u{size}" if ftype != 12 else ">f8")
    return arr.astype(f"<u{size}" if ftype != 12 else "<f8").tobytes()


def write_tiff(raster: Raster, path: str | Path, compress: bool = False) -> None:
    bands, height, width = raster.data.shape
    # SamplesPerPixel is 16-bit; like the 4 GiB check below, this refuses
    # before any plane is copied or the file is opened
    if bands > 0xFFFF:
        raise UnsupportedLayoutError(f"{bands} bands exceed the 65535 bands of a TIFF")
    bits, fmt = _FORMATS_INV[raster.dtype_name]
    planar = 1 if bands == 1 else 2

    fields: list[tuple[int, int, bytes]] = [
        (_TAG_WIDTH, 4, struct.pack("<I", width)),
        (_TAG_HEIGHT, 4, struct.pack("<I", height)),
        (_TAG_BITS, 3, struct.pack("<" + "H" * bands, *([bits] * bands))),
        (_TAG_COMPRESSION, 3, struct.pack("<H", 8 if compress else 1)),
        (_TAG_PHOTOMETRIC, 3, struct.pack("<H", 1)),
        (_TAG_SAMPLES, 3, struct.pack("<H", bands)),
        (_TAG_ROWS_PER_STRIP, 4, struct.pack("<I", height)),
        (_TAG_PLANAR, 3, struct.pack("<H", planar)),
        (_TAG_SAMPLE_FORMAT, 3, struct.pack("<" + "H" * bands, *([fmt] * bands))),
    ]
    fields.extend(raster.geo.tags)
    if raster.nodata is not None:
        text = repr(float(raster.nodata)).encode("ascii") + b"\x00"
        fields.append((_TAG_NODATA, 2, text))

    # offsets and counts are 32-bit, so a file past 4 GiB is refused before
    # any plane is copied; a Deflate plane is bounded by zlib's compressBound
    plane_bytes = height * width * raster.data.dtype.itemsize
    if compress:
        plane_bytes += (plane_bytes >> 12) + (plane_bytes >> 14) + (plane_bytes >> 25) + 13
    ifd_bytes = 6 + 12 * (len(fields) + 2) + sum(len(f[2]) + 1 for f in fields) + 8 * bands + 2
    if 8 + bands * plane_bytes + ifd_bytes > 0xFFFFFFFF:
        raise UnsupportedLayoutError(
            f"{bands} plane(s) of {width}x{height} {raster.dtype_name} do not fit "
            "the 4 GiB of a classic TIFF")

    le = raster.data.astype(raster.data.dtype.newbyteorder("<"), copy=False)
    planes = [memoryview(np.ascontiguousarray(plane)).cast("B") for plane in le]
    if compress:
        planes = [zlib.compress(p) for p in planes]

    # strip offsets/counts are filled in once the layout is known
    n_entries = len(fields) + 2
    header_len = 8
    data_start = header_len
    strip_offsets = []
    pos = data_start
    for p in planes:
        strip_offsets.append(pos)
        pos += len(p)
    fields.append((_TAG_STRIP_OFFSETS, 4, struct.pack("<" + "I" * bands, *strip_offsets)))
    fields.append((_TAG_STRIP_COUNTS, 4, struct.pack("<" + "I" * bands,
                                                     *[len(p) for p in planes])))
    fields.sort(key=lambda f: f[0])

    ifd_offset = pos
    overflow_start = ifd_offset + 2 + 12 * n_entries + 4
    entry_bytes = b""
    overflow = b""
    for tag, ftype, raw in fields:
        count = len(raw) // _TYPE_SIZE[ftype]
        entry = struct.pack("<HHI", tag, ftype, count)
        if len(raw) <= 4:
            entry += raw.ljust(4, b"\x00")
        else:
            entry += struct.pack("<I", overflow_start + len(overflow))
            overflow += raw
            if len(overflow) % 2:  # out-of-line values start on word boundaries
                overflow += b"\x00"
        entry_bytes += entry

    with Path(path).open("wb") as fh:
        fh.write(struct.pack("<2sHI", b"II", 42, ifd_offset))
        for p in planes:
            fh.write(p)
        fh.write(struct.pack("<H", n_entries) + entry_bytes + struct.pack("<I", 0) + overflow)
