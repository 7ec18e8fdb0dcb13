"""Minimal PNG reader for 8-bit grayscale/RGB(A) benchmark imagery."""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CorruptFileError, UnsupportedLayoutError
from .model import GeoRef, Raster
from .tiff import DEFLATE_MAX_RATIO, inflate

SIGNATURE = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def decode_png(buf: bytes) -> Raster:
    """The raster a PNG file's bytes hold."""
    if not buf.startswith(SIGNATURE):
        raise CorruptFileError("not a PNG file")
    pos = len(SIGNATURE)
    width = height = channels = None
    idat_chunks = []
    view = memoryview(buf)
    while pos + 8 <= len(buf):
        (length,) = struct.unpack(">I", buf[pos:pos + 4])
        ctype = buf[pos + 4:pos + 8]
        body = view[pos + 8:pos + 8 + length]
        if len(body) != length:
            raise CorruptFileError("truncated PNG chunk")
        if ctype == b"IHDR":
            if length != 13:
                raise CorruptFileError(f"PNG IHDR is {length} bytes, not 13")
            width, height, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body)
            if depth != 8:
                raise UnsupportedLayoutError(f"PNG bit depth {depth} not supported")
            if color not in _CHANNELS:
                raise UnsupportedLayoutError(f"PNG color type {color} not supported")
            if interlace != 0:
                raise UnsupportedLayoutError("interlaced PNG not supported")
            channels = _CHANNELS[color]
        elif ctype == b"IDAT":
            idat_chunks.append(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if width is None or channels is None:
        raise CorruptFileError("PNG missing IHDR")
    stride = width * channels
    # the filtered rows the header declares; nothing past them is inflated
    need = height * (stride + 1)
    idat = b"".join(idat_chunks)
    if need > len(idat) * DEFLATE_MAX_RATIO:
        raise CorruptFileError("PNG pixel data too short")
    raw = inflate(idat, need)
    if len(raw) < need:
        raise CorruptFileError("PNG pixel data too short")
    img = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row in range(height):
        offset = row * (stride + 1)
        ftype = raw[offset]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=offset + 1).copy()
        img[row] = _unfilter(ftype, line, prev, channels)
        prev = img[row]
    data = img.reshape(height, width, channels).transpose(2, 0, 1)
    return Raster(np.ascontiguousarray(data), geo=GeoRef())


def _unfilter(ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:
        return line
    if ftype == 1:  # Sub: a running sum of each channel, exact modulo 256
        return np.cumsum(line.reshape(-1, bpp), axis=0, dtype=np.uint8).reshape(-1)
    if ftype == 2:
        return (line.astype(np.int32) + prev).astype(np.uint8)
    # Average and Paeth run on Python ints: numpy scalar indexing costs
    # more than the arithmetic
    out, up = bytearray(line.tobytes()), prev.tobytes()
    n = len(out)
    if ftype == 3:
        for i in range(min(bpp, n)):
            out[i] = (out[i] + (up[i] >> 1)) & 0xFF
        for i in range(bpp, n):
            out[i] = (out[i] + ((out[i - bpp] + up[i]) >> 1)) & 0xFF
    elif ftype == 4:
        # with no left neighbour (a = c = 0) the predictor is the byte above
        for i in range(min(bpp, n)):
            out[i] = (out[i] + up[i]) & 0xFF
        for i in range(bpp, n):
            a, b, c = out[i - bpp], up[i], up[i - bpp]
            pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
            pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
            out[i] = (out[i] + pred) & 0xFF
    elif n:  # a row of no bytes has nothing to undo, whatever its filter
        raise CorruptFileError(f"unknown PNG filter type {ftype}")
    return np.frombuffer(out, np.uint8)
