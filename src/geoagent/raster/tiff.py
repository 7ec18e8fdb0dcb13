"""Minimal GeoTIFF reader/writer.

Deliberately small subset: classic (non-Big) TIFF, baseline strips,
uncompressed or Deflate without a predictor, u8/u16/f32 samples,
band-sequential or pixel-interleaved planes. Georeference tags
(ModelPixelScale, ModelTiepoint and the three GeoKey tags) plus the nodata
tag are carried through; anything fancier raises UnsupportedLayoutError.

The reader takes an open file: it reads the header, the IFD and the
out-of-line tag values, then reads or inflates the strips into the one
sample array. The planes of a band-sequential multi-band file are read one
at a time, from the same open file, the first time each is used; the file is
closed once the last of them is read, or when the raster is collected.

Tag fields are read through one table of the twelve TIFF 6.0 field types:
their sizes, the integer reads, the byte swap of a big-endian georeference
tag (a RATIONAL as its two 32-bit halves) and the writer's counts. A field of
any other type is skipped, so it is never carried to an output.

The writer always emits little-endian files with one uncompressed strip per
plane, which keeps round-trips byte-stable for testing.
"""

from __future__ import annotations

import struct
import weakref
import zlib
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import CorruptFileError, UnsupportedLayoutError
from .model import DTYPES, GeoRef, Raster

# TIFF 6.0 field type -> (struct code of one element, elements per value,
# bytes per value). ASCII and UNDEFINED are opaque bytes; RATIONAL and
# SRATIONAL are two 32-bit halves, numerator then denominator.
_FIELD_TYPES = {ftype: (code, per, struct.calcsize(code) * per) for ftype, (code, per) in {
    1: ("B", 1), 2: ("s", 1), 3: ("H", 1), 4: ("I", 1), 5: ("I", 2), 6: ("b", 1),
    7: ("s", 1), 8: ("h", 1), 9: ("i", 1), 10: ("i", 2), 11: ("f", 1), 12: ("d", 1),
}.items()}

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


def _read_at(fh: BinaryIO, offset: int, size: int) -> bytes:
    """The `size` bytes at `offset`, which the caller has checked lie inside
    the file; a file cut short since is a `CorruptFileError`."""
    fh.seek(offset)
    raw = fh.read(size)
    if len(raw) != size:
        raise CorruptFileError("file ends before its data")
    return raw


def _read_entries(fh: BinaryIO, size: int, ifd_off: int,
                  order: str) -> dict[int, tuple[int, int, bytes]]:
    """Parse IFD0 into tag -> (field type, count, raw value bytes). An entry
    of a field type outside 1-12 is skipped, as TIFF 6.0 asks of readers.
    Nothing is read that does not lie inside the file's `size` bytes."""
    if ifd_off + 2 > size:
        raise CorruptFileError("IFD offset beyond end of file")
    (n_entries,) = struct.unpack(order + "H", _read_at(fh, ifd_off, 2))
    if ifd_off + 2 + 12 * n_entries > size:
        raise CorruptFileError("truncated IFD")
    table = _read_at(fh, ifd_off + 2, 12 * n_entries)
    entries: dict[int, tuple[int, int, bytes]] = {}
    for tag, ftype, count, value in struct.iter_unpack(order + "HHI4s", table):
        field = _FIELD_TYPES.get(ftype)
        if field is None:
            continue
        nbytes = field[2] * count
        if nbytes <= 4:
            entries[tag] = (ftype, count, value[:nbytes])
            continue
        (off,) = struct.unpack(order + "I", value)
        if off + nbytes > size:
            raise CorruptFileError(f"tag {tag} value beyond end of file")
        entries[tag] = (ftype, count, _read_at(fh, off, nbytes))
    return entries


def _ints(entries, tag: int, order: str, default: tuple[int, ...] | None = None
          ) -> tuple[int, ...]:
    """The values of an unsigned integer (BYTE, SHORT or LONG) tag, at least
    one; a tag left out is `default`, or missing when there is none."""
    entry = entries.get(tag)
    if entry is None:
        if default is None:
            raise CorruptFileError(f"required TIFF tag {tag} missing")
        return default
    ftype, count, raw = entry
    code, per, _ = _FIELD_TYPES[ftype]
    if code not in "BHI" or per != 1:
        raise CorruptFileError(f"unexpected field type {ftype} for integer tag")
    if not count:
        raise CorruptFileError(f"TIFF tag {tag} has no value")
    # most tags hold one value, and the format without a count is the cheaper
    return struct.unpack(order + code if count == 1 else f"{order}{count}{code}", raw)


def read_tiff(fh: BinaryIO, size: int) -> Raster:
    """The raster of the classic TIFF file open as `fh`, of `size` bytes.

    The reader takes `fh` over. A raster with planes still to read holds it
    until the last of them is read or the raster is collected; otherwise,
    and on any error, `fh` is closed before this returns. Every header,
    strip and size check runs here, against `size`, before the reads it
    bounds.
    """
    try:
        raster, fill = _read(fh, size)
    except BaseException:
        fh.close()
        raise
    if fill is None:
        fh.close()
    else:  # the raster drops `fill` once its last plane is read
        weakref.finalize(fill, fh.close)
    return raster


def _read(fh: BinaryIO, size: int):
    """The raster of `read_tiff`, and the `fill` it holds, or None."""
    head = fh.read(8)
    if len(head) < 8:
        raise CorruptFileError("file too short to be a TIFF")
    if head[:2] == b"II":
        order = "<"
    elif head[:2] == b"MM":
        order = ">"
    else:
        raise CorruptFileError("not a TIFF file (bad byte-order mark)")
    magic, ifd_off = struct.unpack(order + "HI", head[2:])
    if magic != 42:
        raise CorruptFileError(f"not a classic TIFF (magic {magic})")

    entries = _read_entries(fh, size, ifd_off, order)
    for tag in _TAG_TILE_MARKERS:
        if tag in entries:
            raise UnsupportedLayoutError("tiled TIFF not supported")

    width = _ints(entries, _TAG_WIDTH, order)[0]
    height = _ints(entries, _TAG_HEIGHT, order)[0]
    samples = _ints(entries, _TAG_SAMPLES, order, (1,))[0]
    compression = _ints(entries, _TAG_COMPRESSION, order, (1,))[0]
    planar = _ints(entries, _TAG_PLANAR, order, (1,))[0]
    rows_per_strip = _ints(entries, _TAG_ROWS_PER_STRIP, order, (height,))[0]
    predictor = _ints(entries, _TAG_PREDICTOR, order, (1,))[0]

    if compression not in (1, 8, 32946):
        raise UnsupportedLayoutError(f"compression {compression} not supported")
    if planar not in (1, 2):
        raise UnsupportedLayoutError(f"planar configuration {planar} not supported")
    if predictor != 1:
        raise UnsupportedLayoutError(f"predictor {predictor} not supported")
    if samples < 1:  # a raster of no bands could not be saved and read back
        raise CorruptFileError("SamplesPerPixel is 0")

    bits = _ints(entries, _TAG_BITS, order, (1,))
    fmts = _ints(entries, _TAG_SAMPLE_FORMAT, order, (1,))
    if len(set(bits)) != 1 or len(set(fmts)) != 1:
        raise UnsupportedLayoutError("mixed per-band sample types not supported")
    key = (bits[0], fmts[0])
    if key not in _FORMATS:
        raise UnsupportedLayoutError(f"sample layout bits={bits[0]} format={fmts[0]} not supported")
    dtype_name = _FORMATS[key]

    offsets = _ints(entries, _TAG_STRIP_OFFSETS, order)
    counts = _ints(entries, _TAG_STRIP_COUNTS, order)
    if len(offsets) != len(counts):
        raise CorruptFileError("strip offset/count mismatch")
    if any(off + cnt > size for off, cnt in zip(offsets, counts)):
        raise CorruptFileError("strip beyond end of file")
    if planar == 2 and (rows_per_strip < 1 or len(offsets)
                        != max(1, -(-height // rows_per_strip)) * samples):
        raise CorruptFileError("strip count does not match planar layout")

    data, fill = _decode(fh, offsets, counts, compression != 1, order,
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
            if order == ">":  # reverse the bytes of each element
                _code, per, nbytes = _FIELD_TYPES[ftype]
                raw = np.frombuffer(raw, np.uint8).reshape(-1, nbytes // per)[:, ::-1].tobytes()
            geo_tags.append((tag, ftype, raw))
    return Raster(data, nodata=nodata, geo=GeoRef(tags=tuple(geo_tags)), fill=fill), fill


def _decode(fh: BinaryIO, offsets: tuple[int, ...], counts: tuple[int, ...],
            deflate: bool, order: str, dtype: np.dtype, shape: tuple[int, int, int],
            planar: int):
    """The samples of the strips concatenated in tag order, as a native
    (bands, height, width) array, and the `fill(k)` that reads plane k into
    it from `fh`, or None when the array is already whole.

    The strips go into one new array: raw strips are read straight into
    it, Deflate strips are read and inflated into it, and nothing past the
    samples the image needs is read or inflated. The planes of a
    band-sequential multi-band file are left to `fill`, so a plane never
    used is never read; every check but the reads themselves runs here.
    """
    samples, height, width = shape
    lazy = planar == 2 and samples > 1
    planes = samples if lazy else 1
    per_plane = len(offsets) // planes
    strips = [(offsets[k * per_plane:(k + 1) * per_plane],
               counts[k * per_plane:(k + 1) * per_plane]) for k in range(planes)]
    plane_size = samples * height * width // planes
    nbytes = plane_size * dtype.itemsize
    if any(sum(c) * (DEFLATE_MAX_RATIO if deflate else 1) < nbytes for _, c in strips):
        raise CorruptFileError("pixel data shorter than image dimensions require")

    raw = np.empty(nbytes * planes, np.uint8)
    flat = raw.view(dtype)
    dest = memoryview(raw)

    def fill(k: int) -> None:
        _read_strips(fh, *strips[k], deflate, dest[k * nbytes:(k + 1) * nbytes])
        if order == ">":
            flat[k * plane_size:(k + 1) * plane_size].byteswap(inplace=True)

    if lazy:
        return flat.reshape(shape), fill
    fill(0)
    return _arrange(flat, shape, planar), None


def _arrange(flat: np.ndarray, shape: tuple[int, int, int], planar: int) -> np.ndarray:
    samples, height, width = shape
    if planar == 1 and samples > 1:
        return np.ascontiguousarray(flat.reshape(height, width, samples).transpose(2, 0, 1))
    return flat.reshape(shape)


def _read_strips(fh: BinaryIO, offsets: tuple[int, ...], counts: tuple[int, ...],
                 deflate: bool, dest: memoryview) -> None:
    """Fill `dest` with the strips concatenated in order; nothing past its
    end is read or inflated."""
    nbytes, pos = len(dest), 0
    for off, cnt in zip(offsets, counts):
        want = nbytes - pos
        if want == 0:
            break
        if deflate:
            strip = inflate(_read_at(fh, off, cnt), want)
            dest[pos:pos + len(strip)] = strip
            pos += len(strip)
        else:
            n = min(cnt, want)
            fh.seek(off)
            if fh.readinto(dest[pos:pos + n]) != n:
                raise CorruptFileError("file ends before its data")
            pos += n
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


def write_tiff(raster: Raster, path: str | Path) -> None:
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
        (_TAG_COMPRESSION, 3, struct.pack("<H", 1)),
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
    # any plane is copied
    plane_bytes = height * width * raster.data.dtype.itemsize
    ifd_bytes = 6 + 12 * (len(fields) + 2) + sum(len(f[2]) + 1 for f in fields) + 8 * bands + 2
    if 8 + bands * plane_bytes + ifd_bytes > 0xFFFFFFFF:
        raise UnsupportedLayoutError(
            f"{bands} plane(s) of {width}x{height} {raster.dtype_name} do not fit "
            "the 4 GiB of a classic TIFF")

    le = raster.data.astype(raster.data.dtype.newbyteorder("<"), copy=False)
    planes = [memoryview(np.ascontiguousarray(plane)).cast("B") for plane in le]

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
        count = len(raw) // _FIELD_TYPES[ftype][2]
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
