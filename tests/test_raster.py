from __future__ import annotations

import hashlib
import os
import struct
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoagent.errors import (
    CorruptFileError,
    GeoAgentError,
    InvalidInputError,
    MissingFileError,
    ShapeMismatchError,
    UnsupportedLayoutError,
    WorkspaceEscapeError,
)
from geoagent.kits.perception import MockExpertBackend
from geoagent.raster import (
    Raster,
    from_array,
    load_raster,
    require_same_grid,
    save_raster,
)
from geoagent.raster import png
from geoagent.raster.png import SIGNATURE as PNG_SIGNATURE
from geoagent.raster.tiff import write_tiff
from geoagent.tools import ToolContext, build_registry
from geoagent.workspace import Workspace

from conftest import make_georef


def rasters_equal(a, b) -> bool:
    return (
        a.data.shape == b.data.shape
        and a.data.dtype == b.data.dtype
        and np.array_equal(a.data, b.data)
        and (a.nodata == b.nodata or (a.nodata is not None and b.nodata is not None
                                      and np.isnan(a.nodata) and np.isnan(b.nodata)))
        and a.geo == b.geo
    )


def decoded(path):
    """Load a raster file; decoded samples are never writeable."""
    r = load_raster(path)
    assert r.data.flags.writeable is False
    return r


class TestRoundTrip:
    def test_identity_2x2_f32(self, tmp_path):
        r = from_array([[1.0, 2.0], [3.0, 4.0]])
        save_raster(r, tmp_path / "a.tif")
        loaded = decoded(tmp_path / "a.tif")
        assert loaded.width == 2 and loaded.height == 2 and loaded.bands == 1
        assert loaded.data.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("dtype", ["u8", "u16", "f32"])
    @pytest.mark.parametrize("bands", [1, 3])
    @pytest.mark.parametrize("compress", [False, True])
    def test_round_trip_dtypes(self, tmp_path, dtype, bands, compress):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 200, size=(bands, 4, 5)) if dtype != "f32" \
            else rng.normal(size=(bands, 4, 5))
        r = from_array(data, dtype=dtype, geo=make_georef())
        store(r, tmp_path / "x.tif", compress)
        assert rasters_equal(decoded(tmp_path / "x.tif"), r)

    def test_f32_bitwise_samples(self, tmp_path):
        rng = np.random.default_rng(3)
        r = from_array(rng.normal(size=(1, 8, 8)) * 1e6)
        save_raster(r, tmp_path / "b.tif")
        loaded = decoded(tmp_path / "b.tif")
        assert loaded.data.tobytes() == r.data.tobytes()

    def test_georef_bytes_preserved(self, tmp_path):
        r = from_array(np.ones((2, 2)), geo=make_georef())
        save_raster(r, tmp_path / "g.tif")
        assert decoded(tmp_path / "g.tif").geo == r.geo

    def test_nodata_round_trip(self, tmp_path):
        r = from_array([[1.0, -9999.0]], nodata=-9999.0)
        save_raster(r, tmp_path / "n.tif")
        loaded = decoded(tmp_path / "n.tif")
        assert loaded.nodata == -9999.0
        assert loaded.samples().tolist() == [1.0]

    def test_nan_nodata_round_trip(self, tmp_path):
        r = from_array([[1.0, np.nan]], nodata=float("nan"))
        save_raster(r, tmp_path / "nn.tif")
        loaded = decoded(tmp_path / "nn.tif")
        assert np.isnan(loaded.nodata)
        assert loaded.samples().tolist() == [1.0]

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(["u8", "u16", "f32"]),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        bands=st.integers(1, 3),
        seed=st.integers(0, 2**31),
        compress=st.booleans(),
    )
    def test_round_trip_property(self, tmp_path_factory, dtype, h, w, bands, seed, compress):
        tmp = tmp_path_factory.mktemp("rt")
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 255, size=(bands, h, w)) if dtype != "f32" \
            else rng.normal(size=(bands, h, w)) * 50
        r = from_array(data, dtype=dtype, geo=make_georef())
        store(r, tmp / "p.tif", compress)
        assert rasters_equal(decoded(tmp / "p.tif"), r)

    @settings(max_examples=40, deadline=None)
    @given(
        ascii_len=st.integers(1, 19),
        n_doubles=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    def test_georef_round_trip_arbitrary_tags(self, tmp_path_factory, ascii_len,
                                              n_doubles, seed):
        # odd-length ASCII values exercise the word-boundary padding path
        from geoagent.raster import GeoRef

        tmp = tmp_path_factory.mktemp("geo")
        rng = np.random.default_rng(seed)
        text = bytes(rng.integers(32, 127, ascii_len).tolist()) + b"\x00"
        doubles = rng.normal(size=n_doubles).astype("<f8").tobytes()
        shorts = rng.integers(0, 2**16, 4 * n_doubles).astype("<u2").tobytes()
        geo = GeoRef(tags=((33550, 12, doubles), (34735, 3, shorts),
                           (34737, 2, text)))
        r = from_array(rng.normal(size=(2, 3)), geo=geo)
        write_tiff(r, tmp / "g.tif")
        assert decoded(tmp / "g.tif").geo == geo


def build_tiff(width, height, samples, dtype_bits_fmt, strips, planar,
               rows_per_strip=None, order="<", compression=1, file_order=None,
               gap=b"", drop=(), predictor=None, extra=()):
    """Hand-assemble a classic TIFF to exercise reader paths the writer
    never produces (chunky interleave, multiple strips, big-endian, strips
    out of order or apart, missing tags).

    `strips` are the strip bytes as stored, listed in tag order; `compression`
    is the Compression tag. The strips lie in the file in `file_order`
    (default: tag order), each followed by `gap`. Tags in `drop` are left out.
    A `predictor` adds the Predictor tag; the strips are stored as given.
    `extra` fields (tag, field type, value bytes in `order`) are added as
    they are.
    """
    bits, fmt = dtype_bits_fmt
    offsets, counts = [0] * len(strips), [len(s) for s in strips]
    body, pos = b"", 8
    for i in file_order or range(len(strips)):
        offsets[i] = pos
        body += strips[i] + gap
        pos += len(strips[i]) + len(gap)

    def pack(fmtchar, *vals):
        return struct.pack(order + fmtchar * len(vals), *vals)

    fields = [
        (256, 4, pack("I", width)),
        (257, 4, pack("I", height)),
        (258, 3, pack("H", *([bits] * samples))),
        (259, 3, pack("H", compression)),
        (262, 3, pack("H", 1)),
        (273, 4, pack("I", *offsets)),
        (277, 3, pack("H", samples)),
        (278, 4, pack("I", rows_per_strip or height)),
        (279, 4, pack("I", *counts)),
        (284, 3, pack("H", planar)),
        (339, 3, pack("H", *([fmt] * samples))),
    ]
    if predictor is not None:
        fields.insert(-1, (317, 3, pack("H", predictor)))
    fields = sorted([f for f in fields if f[0] not in drop] + list(extra))

    ifd_offset = pos
    n_entries = len(fields)
    overflow_start = ifd_offset + 2 + 12 * n_entries + 4
    entries, overflow = b"", b""
    type_size = {2: 1, 3: 2, 4: 4, 5: 8, 12: 8, 13: 4}
    for tag, ftype, raw in fields:
        count = len(raw) // type_size[ftype]
        entry = struct.pack(order + "HHI", tag, ftype, count)
        if len(raw) <= 4:
            entry += raw.ljust(4, b"\x00")
        else:
            entry += struct.pack(order + "I", overflow_start + len(overflow))
            overflow += raw
        entries += entry
    out = struct.pack(order + "2sHI", b"II" if order == "<" else b"MM", 42,
                      ifd_offset)
    out += body
    out += struct.pack(order + "H", n_entries) + entries
    out += struct.pack(order + "I", 0) + overflow
    return out


def deflated(strips):
    return [zlib.compress(s) for s in strips]


def deflate_tiff(raster) -> bytes:
    """`raster` as a Deflate TIFF laid out as `write_tiff` lays it out: one
    strip per plane, band-sequential past one band, with its georeference
    and nodata tags."""
    bands, height, width = raster.data.shape
    bits = raster.data.dtype.itemsize * 8
    fmt = 3 if raster.dtype_name == "f32" else 1
    extra = list(raster.geo.tags)
    if raster.nodata is not None:
        extra.append((42113, 2, repr(float(raster.nodata)).encode("ascii") + b"\x00"))
    strips = [plane.astype(plane.dtype.newbyteorder("<")).tobytes() for plane in raster.data]
    return build_tiff(width, height, bands, (bits, fmt), deflated(strips),
                      planar=1 if bands == 1 else 2, compression=8, extra=extra)


def store(raster, path, compress: bool) -> None:
    """Write `raster` to `path` uncompressed with `write_tiff`, or as the
    Deflate file `deflate_tiff` builds."""
    if compress:
        path.write_bytes(deflate_tiff(raster))
    else:
        write_tiff(raster, path)


def build_png(width, height, color, idat):
    """An 8-bit PNG with the given IHDR fields and IDAT bytes as stored."""
    def chunk(ctype, body):
        return struct.pack(">I", len(body)) + ctype + body + bytes(4)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, color, 0, 0, 0)
    return (PNG_SIGNATURE + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat)
            + chunk(b"IEND", b""))


def planar_deflate(data, rows_per_strip, order="<"):
    """A band-sequential Deflate TIFF of `data` (bands, height, width)."""
    bands, height, width = data.shape
    fmt = {"u": 1, "f": 3}[data.dtype.kind]
    stored = data.astype(data.dtype.newbyteorder(order))
    strips = [stored[k, r:r + rows_per_strip].tobytes()
              for k in range(bands) for r in range(0, height, rows_per_strip)]
    return build_tiff(width, height, bands, (data.dtype.itemsize * 8, fmt),
                      deflated(strips), planar=2, rows_per_strip=rows_per_strip,
                      order=order, compression=8)


@pytest.fixture
def inflations(monkeypatch):
    """Counts the zlib streams the readers start to inflate."""
    calls = []
    real = zlib.decompressobj

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zlib, "decompressobj", counting)
    return calls


class TestForeignLayouts:
    def test_chunky_interleaved_multiband(self, tmp_path):
        # 2x2, 3 bands, pixel-interleaved u8 in one strip
        pixels = np.arange(12, dtype="<u1").reshape(2, 2, 3)
        buf = build_tiff(2, 2, 3, (8, 1), [pixels.tobytes()], planar=1)
        (tmp_path / "chunky.tif").write_bytes(buf)
        r = decoded(tmp_path / "chunky.tif")
        assert r.bands == 3
        assert np.array_equal(r.data, pixels.transpose(2, 0, 1))

    def test_multi_strip_single_band(self, tmp_path):
        rows = np.arange(16, dtype="<f4").reshape(4, 4)
        strips = [rows[0:2].tobytes(), rows[2:4].tobytes()]
        buf = build_tiff(4, 4, 1, (32, 3), strips, planar=1, rows_per_strip=2)
        (tmp_path / "strips.tif").write_bytes(buf)
        r = decoded(tmp_path / "strips.tif")
        assert np.array_equal(r.data[0], rows)

    @pytest.mark.parametrize("file_order,gap", [((1, 0, 3, 2), b""),
                                                ((0, 1, 2, 3), b"\xff\x7f\x00"),
                                                ((3, 2, 1, 0), b"\x01")])
    def test_raw_strips_out_of_order_or_apart(self, tmp_path, file_order, gap):
        rows = np.arange(32, dtype="<u2").reshape(4, 8)
        strips = [rows[i:i + 1].tobytes() for i in range(4)]
        buf = build_tiff(8, 4, 1, (16, 1), strips, planar=1, rows_per_strip=1,
                         file_order=file_order, gap=gap)
        (tmp_path / "apart.tif").write_bytes(buf)
        assert np.array_equal(decoded(tmp_path / "apart.tif").data[0], rows)

    def test_big_endian_file(self, tmp_path):
        rows = np.arange(6, dtype=">u2").reshape(2, 3)
        buf = build_tiff(3, 2, 1, (16, 1), [rows.tobytes()], planar=1, order=">")
        (tmp_path / "be.tif").write_bytes(buf)
        r = decoded(tmp_path / "be.tif")
        assert r.data[0].tolist() == [[0, 1, 2], [3, 4, 5]]

    def test_deflate_chunky_three_band(self, tmp_path):
        pixels = (np.arange(5 * 4 * 3, dtype="<u2") * 1000).reshape(5, 4, 3)
        buf = build_tiff(4, 5, 3, (16, 1), deflated([pixels.tobytes()]), planar=1,
                         compression=8)
        (tmp_path / "chunky.tif").write_bytes(buf)
        assert np.array_equal(decoded(tmp_path / "chunky.tif").data,
                              pixels.transpose(2, 0, 1))

    def test_deflate_big_endian_multi_strip(self, tmp_path):
        rows = (np.arange(20) - 7.5).astype(">f4").reshape(5, 4)
        strips = deflated([rows[0:2].tobytes(), rows[2:4].tobytes(), rows[4:].tobytes()])
        buf = build_tiff(4, 5, 1, (32, 3), strips, planar=1, rows_per_strip=2,
                         order=">", compression=8)
        (tmp_path / "be.tif").write_bytes(buf)
        r = decoded(tmp_path / "be.tif")
        assert r.data.dtype == np.float32 and np.array_equal(r.data[0], rows)

    def test_planar_multi_strip_per_plane(self, tmp_path):
        data = np.arange(16, dtype="<u1").reshape(2, 2, 4)  # 2 bands, 2x4
        chunks = [data[0, 0:1].tobytes(), data[0, 1:2].tobytes(),
                  data[1, 0:1].tobytes(), data[1, 1:2].tobytes()]
        buf = build_tiff(4, 2, 2, (8, 1), chunks, planar=2, rows_per_strip=1)
        (tmp_path / "planar.tif").write_bytes(buf)
        r = decoded(tmp_path / "planar.tif")
        assert np.array_equal(r.data, data)

    def test_raw_read_copies_no_pixels(self, tmp_path):
        # raw strips are read straight into the raster's one sample array:
        # the read allocates about the file once, not once more per copy of
        # the pixels
        r = from_array(np.arange(4 * 256 * 256).reshape(4, 256, 256), dtype="u16")
        save_raster(r, tmp_path / "raw.tif")
        size = (tmp_path / "raw.tif").stat().st_size
        tracemalloc.start()
        try:
            loaded = decoded(tmp_path / "raw.tif")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rasters_equal(loaded, r)
        assert peak < 1.25 * size


class TestLazyPlanes:
    """Band-sequential planes, raw or Deflate, are read one at a time, on
    first use, from the file the raster opened."""

    @pytest.mark.parametrize("dtype", ["u16", "f32"])
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("bands", [1, 4])
    @pytest.mark.parametrize("rows_per_strip", [5, 2])
    def test_matches_eager_decode(self, tmp_path, dtype, order, bands, rows_per_strip):
        data = (np.arange(bands * 5 * 3) * 997 % 65536).reshape(bands, 5, 3)
        eager = from_array(data - 1000.5 if dtype == "f32" else data, dtype=dtype)
        (tmp_path / "p.tif").write_bytes(planar_deflate(eager.data, rows_per_strip, order))
        for k in range(1, bands + 1):
            r = load_raster(tmp_path / "p.tif")
            assert np.array_equal(r.band(k), eager.band(k))
            assert np.array_equal(r.samples(k), eager.samples(k))
            assert r.plane(k).flags.writeable is False
        assert rasters_equal(decoded(tmp_path / "p.tif"), eager)

    def test_band_inflates_only_its_strips(self, tmp_path, inflations):
        data = np.arange(4 * 6 * 2, dtype=np.float32).reshape(4, 6, 2)
        (tmp_path / "p.tif").write_bytes(planar_deflate(data, rows_per_strip=2))
        r = load_raster(tmp_path / "p.tif")
        assert len(inflations) == 0
        assert np.array_equal(r.band(3), data[2])
        assert len(inflations) == 3  # plane 3's three strips
        r.band(3), r.samples(3), r.plane(3)
        assert len(inflations) == 3
        assert np.array_equal(r.data, data)
        assert len(inflations) == 12
        r.data, r.band(1)
        assert len(inflations) == 12

    def test_grid_checks_decode_nothing(self, tmp_path, inflations):
        data = np.ones((4, 3, 2), dtype=np.uint16)
        (tmp_path / "p.tif").write_bytes(planar_deflate(data, rows_per_strip=1))
        a, b = load_raster(tmp_path / "p.tif"), load_raster(tmp_path / "p.tif")
        assert (a.bands, a.height, a.width, a.dtype_name) == (4, 3, 2, "u16")
        assert a.same_shape(b)
        require_same_grid(a, b)
        with pytest.raises(ShapeMismatchError):
            require_same_grid(a, from_array(np.ones((2, 3))))
        assert len(inflations) == 0

    def test_corrupt_plane_fails_when_read(self, tmp_path):
        data = np.arange(4 * 4 * 4, dtype=np.float32).reshape(4, 4, 4)
        strips = deflated([plane.tobytes() for plane in data])
        strips[2] = strips[2][:-6] + bytes(6)  # plane 3's stream damaged at its end
        buf = build_tiff(4, 4, 4, (32, 3), strips, planar=2, compression=8)
        (tmp_path / "c.tif").write_bytes(buf)
        r = load_raster(tmp_path / "c.tif")
        assert np.array_equal(r.band(1), data[0])
        for read in (lambda: r.band(3), lambda: r.data, lambda: r.band(3)):
            with pytest.raises(CorruptFileError, match="deflate"):
                read()
        assert np.array_equal(r.band(4), data[3])

    def test_short_plane_fails_when_read(self, tmp_path):
        # plane 2's stream holds half its rows; plane 3's are not borrowed
        data = np.arange(3 * 4 * 4, dtype=np.uint16).reshape(3, 4, 4)
        strips = deflated([data[0].tobytes(), data[1, :2].tobytes(), data[2].tobytes()])
        buf = build_tiff(4, 4, 3, (16, 1), strips, planar=2, compression=8)
        (tmp_path / "s.tif").write_bytes(buf)
        r = load_raster(tmp_path / "s.tif")
        assert np.array_equal(r.band(3), data[2])
        with pytest.raises(CorruptFileError, match="shorter"):
            r.band(2)

    def test_raster_stays_immutable(self, tmp_path):
        (tmp_path / "p.tif").write_bytes(planar_deflate(np.ones((2, 2, 2), np.uint16), 2))
        r = load_raster(tmp_path / "p.tif")
        with pytest.raises(AttributeError):
            r.nodata = 1.0
        with pytest.raises(ValueError):
            r.data[0, 0, 0] = 5

    def test_threads_decode_each_plane_once(self, tmp_path, inflations):
        data = (np.arange(4 * 64 * 64) % 65536).astype(np.uint16).reshape(4, 64, 64)
        (tmp_path / "p.tif").write_bytes(planar_deflate(data, rows_per_strip=8))
        rounds, threads_per_round = 10, 8
        results, errors = [], []

        def read(r, k, start):
            try:
                start.wait(timeout=30)
                results.append((k, r.band(k)))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                r = load_raster(tmp_path / "p.tif")
                start = threading.Barrier(threads_per_round)
                threads = [threading.Thread(target=read, args=(r, 1 + i % 4, start))
                           for i in range(threads_per_round)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == rounds * threads_per_round
        for k, band in results:
            assert np.array_equal(band, data[k - 1])
        # every strip inflated once per raster, however many threads read it
        assert len(inflations) == rounds * 4 * 8


    def test_raw_plane_is_read_in_place(self, tmp_path):
        data = (np.arange(4 * 256 * 256) * 7919 % 65536).reshape(4, 256, 256)
        save_raster(from_array(data, dtype="u16"), tmp_path / "raw.tif")
        r = load_raster(tmp_path / "raw.tif")
        tracemalloc.start()
        try:
            plane = r.plane(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(plane, data[1])
        assert peak <= 1.25 * plane.nbytes

    @pytest.mark.parametrize("replace", ["os.replace", "save_raster"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_replaced_file_still_reads_its_samples(self, tmp_path, compress, replace):
        old = from_array(np.arange(4 * 8 * 8).reshape(4, 8, 8), dtype="u16")
        new = from_array(np.ones((4, 8, 8)), dtype="u16")
        store(old, tmp_path / "p.tif", compress)
        r = load_raster(tmp_path / "p.tif")
        assert np.array_equal(r.plane(1), old.plane(1))
        if replace == "os.replace":
            write_tiff(new, tmp_path / "new.tif")
            os.replace(tmp_path / "new.tif", tmp_path / "p.tif")
        else:
            save_raster(new, tmp_path / "p.tif")
        assert rasters_equal(r, old)
        assert rasters_equal(decoded(tmp_path / "p.tif"), new)

    @pytest.mark.parametrize("compress", [False, True])
    def test_truncated_file_fails_when_plane_read(self, tmp_path, compress):
        # planes larger than the reader's buffer, so that no plane is read
        # before it is used
        data = (np.arange(4 * 256 * 256) * 7919 % 65536).reshape(4, 256, 256)
        old = from_array(data, dtype="u16")
        store(old, tmp_path / "p.tif", compress)
        stored = [plane.astype("<u2").tobytes() for plane in old.data]
        sizes = [len(zlib.compress(p) if compress else p) for p in stored]
        r = load_raster(tmp_path / "p.tif")
        assert np.array_equal(r.plane(1), data[0])
        os.truncate(tmp_path / "p.tif", 8 + sum(sizes[:2]) + sizes[2] // 2)
        assert np.array_equal(r.plane(2), data[1])  # lies before the cut
        for read in (lambda: r.plane(3), lambda: r.band(4), lambda: r.data,
                     lambda: r.plane(3)):
            with pytest.raises(CorruptFileError):
                read()

    def test_no_file_outlives_its_raster(self, tmp_path):
        data = np.arange(4 * 3 * 2).reshape(4, 3, 2)
        paths = [tmp_path / "raw.tif", tmp_path / "deflate.tif"]
        for path, compress in zip(paths, (False, True)):
            store(from_array(data, dtype="u16"), path, compress)

        def open_files():
            return len(os.listdir("/proc/self/fd"))

        before = open_files()
        r = load_raster(paths[0])
        r.band(1)
        assert open_files() == before + 1  # planes 2 to 4 are still to read
        r.data
        assert open_files() == before  # closed once the last plane is read
        for i in range(2000):
            r = load_raster(paths[i % 2])
            if i % 4 < 2:
                assert np.array_equal(r.data, data)
            else:  # dropped with planes still to read
                assert np.array_equal(r.plane(2), data[1])
        del r
        assert open_files() == before


class TestWriterGolden:
    """write_tiff output pinned byte for byte. The Deflate cases save what
    they read from a Deflate file of the same raster, which must give the
    same bytes."""

    NODATA = {"u8": 0.0, "u16": 65535.0, "f32": -9999.0}
    SHA256 = {
        ("u8", 1): "74000ebb8ef2f1e19a3dc4175e8912e5593a72845d06ba73df5a247ff9a332e9",
        ("u8", 4): "1712577b70314c1e1c1498aa0710a1cdc919f11ac228aca113192bdabd2a9360",
        ("u16", 1): "7422736b5ce0a44e51855ce30e612ff34fac189c0bb9fb32f5323de0f1fffd82",
        ("u16", 4): "bfee2b782417d8c1be60e942ba7b7f4ce7574214b4e23ed815a3eec015c33517",
        ("f32", 1): "a87cf0926afc67716a38d0d972e9e218a7bf1dc41cb9a0edc819e8a0269b7ffa",
        ("f32", 4): "c1ff8927ae81b2bfd879b380dcf2df2d3c7cbd0a34e5432f946df1432adc436c",
    }

    @pytest.mark.parametrize("dtype,bands,compress",
                             [(*key, compress) for key in sorted(SHA256)
                              for compress in (False, True)])
    def test_bytes(self, tmp_path, dtype, bands, compress):
        n = np.arange(bands * 7 * 5)
        values = ((n * 37 % 1001 - 500) / 8.0 if dtype == "f32"
                  else n * 2654435761 % {"u8": 256, "u16": 65536}[dtype])
        r = from_array(values.reshape(bands, 7, 5), dtype=dtype,
                       nodata=self.NODATA[dtype], geo=make_georef())
        if compress:
            (tmp_path / "in.tif").write_bytes(deflate_tiff(r))
            r = load_raster(tmp_path / "in.tif")
        write_tiff(r, tmp_path / "g.tif")
        digest = hashlib.sha256((tmp_path / "g.tif").read_bytes()).hexdigest()
        assert digest == self.SHA256[dtype, bands]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_raster(tmp_path / "absent.tif")

    def test_the_file_is_opened_once(self, tmp_path, monkeypatch):
        import builtins
        import io

        # the four band-sequential planes are read one at a time, each from
        # the file the load opened
        stack = np.arange(4 * 2 * 2).reshape(4, 2, 2)
        save_raster(from_array(np.ones((2, 2))), tmp_path / "f.tif")
        write_tiff(from_array(stack), tmp_path / "raw.tif")
        store(from_array(stack), tmp_path / "deflate.tif", compress=True)
        opened = []
        for owner, name in ((os, "open"), (io, "open"), (builtins, "open")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda f, *a, _real=real, **kw: (
                opened.append(f) if not isinstance(f, int) else None) or _real(f, *a, **kw))
        for name, data in (("f.tif", np.ones((1, 2, 2))), ("raw.tif", stack),
                           ("deflate.tif", stack)):
            opened.clear()
            r = load_raster(tmp_path / name)
            for k in range(1, r.bands + 1):
                assert np.array_equal(r.plane(k), data[k - 1])
            assert opened == [tmp_path / name]

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        import geoagent.raster

        save_raster(from_array(np.ones((4, 4))), tmp_path / "f.tif")
        before = (tmp_path / "f.tif").read_bytes()
        real = geoagent.raster.write_tiff

        def failing(raster, path):
            real(raster, path)
            with open(path, "r+b") as fh:  # as if the disk filled up half way
                fh.truncate(len(before) // 2)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(geoagent.raster, "write_tiff", failing)
        with pytest.raises(OSError, match="No space"):
            save_raster(from_array(np.zeros((4, 4))), tmp_path / "f.tif")
        assert (tmp_path / "f.tif").read_bytes() == before
        assert os.listdir(tmp_path) == ["f.tif"]

    def test_no_samples_per_pixel_refused(self, tmp_path):
        # a raster of no bands loaded, but what it saved could not be read back
        (tmp_path / "t.tif").write_bytes(build_tiff(
            4, 5, 1, (32, 3), [bytes(80)], planar=2, drop=(277,),
            extra=[(277, 3, struct.pack("<H", 0))]))
        with pytest.raises(CorruptFileError, match="SamplesPerPixel is 0"):
            load_raster(tmp_path / "t.tif")

    @pytest.mark.parametrize("tag,ftype,count,value,match", [
        (262, 12, 2**32 - 1, struct.pack("<I", 8), "tag 262 value beyond end"),
        (273, 4, 2**30, struct.pack("<I", 8), "tag 273 value beyond end"),
        (273, 4, 1, struct.pack("<I", 2**32 - 64), "strip beyond end"),
        (279, 4, 1, struct.pack("<I", 2**31), "strip beyond end"),
    ], ids=["2^32-1-doubles", "2^30-offsets", "offset-past-end", "count-past-end"])
    def test_hostile_counts_read_nothing_past_the_file(self, tmp_path, tag, ftype,
                                                       count, value, match):
        buf = bytearray(build_tiff(4, 4, 1, (32, 3), [bytes(64)], planar=1))
        (ifd,) = struct.unpack_from("<I", buf, 4)
        (n_entries,) = struct.unpack_from("<H", buf, ifd)
        bases = [ifd + 2 + 12 * i for i in range(n_entries)]
        base = next(b for b in bases if struct.unpack_from("<H", buf, b)[0] == tag)
        struct.pack_into("<HHI4s", buf, base, tag, ftype, count, value)
        (tmp_path / "h.tif").write_bytes(buf)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match=match):
                load_raster(tmp_path / "h.tif")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_what_is_no_regular_file_is_missing(self, tmp_path):
        """A directory, a FIFO (without blocking on it), a path through a
        file, a symlink loop and a NUL all name no file to read."""
        (tmp_path / "dir.tif").mkdir()
        os.mkfifo(tmp_path / "fifo.tif")
        save_raster(from_array(np.ones((2, 2))), tmp_path / "f.tif")
        os.symlink(tmp_path / "loop.tif", tmp_path / "loop.tif")
        for name in ("dir.tif", "fifo.tif", "f.tif/x.tif", "loop.tif", "nul\0.tif"):
            with pytest.raises(MissingFileError, match="^no such file: "):
                load_raster(f"{tmp_path}/{name}")

    def test_not_a_tiff(self, tmp_path):
        # JSON text is no raster either: there is no plain-text raster format
        for blob in (b"this is not imagery",
                     b'{"width": 1, "height": 1, "dtype": "u8", "values": [1]}'):
            (tmp_path / "junk.tif").write_bytes(blob)
            with pytest.raises(CorruptFileError, match="neither TIFF nor PNG"):
                load_raster(tmp_path / "junk.tif")

    def test_truncated(self, tmp_path):
        r = from_array(np.ones((4, 4)))
        save_raster(r, tmp_path / "t.tif")
        full = (tmp_path / "t.tif").read_bytes()
        (tmp_path / "t.tif").write_bytes(full[: len(full) // 2])
        with pytest.raises(CorruptFileError):
            load_raster(tmp_path / "t.tif")

    def test_unsupported_sample_layout(self, tmp_path):
        # hand-build a 64-bit float TIFF header to exercise the reject path
        r = from_array(np.ones((2, 2)))
        save_raster(r, tmp_path / "u.tif")
        buf = bytearray((tmp_path / "u.tif").read_bytes())
        idx = buf.find((258).to_bytes(2, "little") + (3).to_bytes(2, "little"))
        buf[idx + 8] = 64
        (tmp_path / "u.tif").write_bytes(bytes(buf))
        with pytest.raises(UnsupportedLayoutError):
            load_raster(tmp_path / "u.tif")

    @pytest.mark.parametrize("shape,dtype,limit", [
        ((1, 32768, 32768), np.float32, "4 GiB"),
        ((2, 32768, 16384), np.float32, "4 GiB"),
        ((70000, 1, 1), np.uint8, "65535 bands"),
    ], ids=["4GiB-plane", "4GiB-file", "70000-bands"])
    @pytest.mark.parametrize("saved", [False, True])
    def test_past_classic_tiff_limit(self, tmp_path, shape, dtype, limit, saved):
        # a zero-stride view: the refusal must come before any copy, and
        # `save_raster` leaves no temporary behind
        big = Raster(np.broadcast_to(np.zeros((1, 1, 1), dtype), shape))
        with pytest.raises(UnsupportedLayoutError, match=limit):
            (save_raster if saved else write_tiff)(big, tmp_path / "big.tif")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("predictor", [2, 3])
    def test_predictor_rejected(self, tmp_path, predictor):
        # horizontal differences of the row [1000, 1100, 1200, 1300], as a
        # Predictor-2 writer stores them; read as samples they are wrong
        diffs = np.array([[1000, 100, 100, 100]], dtype="<u2")
        buf = build_tiff(4, 1, 1, (16, 1), deflated([diffs.tobytes()]),
                         planar=1, compression=8, predictor=predictor)
        (tmp_path / "p.tif").write_bytes(buf)
        with pytest.raises(UnsupportedLayoutError, match="predictor"):
            load_raster(tmp_path / "p.tif")

    def test_predictor_one_reads_samples(self, tmp_path):
        row = np.array([[1000, 1100, 1200, 1300]], dtype="<u2")
        buf = build_tiff(4, 1, 1, (16, 1), deflated([row.tobytes()]),
                         planar=1, compression=8, predictor=1)
        (tmp_path / "p.tif").write_bytes(buf)
        assert np.array_equal(decoded(tmp_path / "p.tif").data[0], row)

    @pytest.mark.parametrize("tag", [273, 279])
    def test_missing_strip_tag(self, tmp_path, tag):
        buf = build_tiff(2, 2, 1, (8, 1), [bytes(4)], planar=1, drop=(tag,))
        (tmp_path / "m.tif").write_bytes(buf)
        with pytest.raises(CorruptFileError, match=str(tag)):
            load_raster(tmp_path / "m.tif")

    @pytest.mark.parametrize("compression", [1, 8])
    def test_strip_bytes_shorter_than_declared(self, tmp_path, compression):
        strips = [bytes(4 * 4 * 4 - 4)]  # a 4x4 f32 image needs 64 bytes
        if compression == 8:
            strips = deflated(strips)
        buf = build_tiff(4, 4, 1, (32, 3), strips, planar=1, compression=compression)
        (tmp_path / "s.tif").write_bytes(buf)
        with pytest.raises(CorruptFileError, match="shorter"):
            load_raster(tmp_path / "s.tif")

    @pytest.mark.parametrize("stream", [
        zlib.compress(bytes(64))[:-8],  # ends inside the data
        zlib.compress(bytes(64))[:-4],  # ends after the data, before the checksum
        zlib.compress(bytes(64))[:-4] + bytes(4),  # wrong checksum
        b"\x78\x9c\xff" + bytes(20),  # not Deflate
    ])
    def test_bad_deflate_strip(self, tmp_path, stream):
        buf = build_tiff(4, 4, 1, (32, 3), [stream], planar=1, compression=8)
        (tmp_path / "d.tif").write_bytes(buf)
        with pytest.raises(CorruptFileError, match="deflate"):
            load_raster(tmp_path / "d.tif")

    def test_deflate_bomb_inflates_only_declared_bytes(self, tmp_path):
        # one strip of a 4x4 f32 image that inflates to 256 MiB of zeros
        deflater = zlib.compressobj(1)
        zeros = bytes(1 << 20)
        bomb = b"".join(deflater.compress(zeros) for _ in range(256)) + deflater.flush()
        buf = build_tiff(4, 4, 1, (32, 3), [bomb], planar=1, compression=8)
        (tmp_path / "bomb.tif").write_bytes(buf)
        del bomb, buf
        tracemalloc.start()
        try:
            r = decoded(tmp_path / "bomb.tif")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.data.shape == (1, 4, 4) and not r.data.any()
        assert peak < 4 * 2**20

    def test_png_deflate_bomb_inflates_only_declared_bytes(self, tmp_path):
        # a 4x4 grey PNG whose IDAT inflates to 256 MiB of zeros
        deflater = zlib.compressobj(1)
        zeros = bytes(1 << 20)
        bomb = b"".join(deflater.compress(zeros) for _ in range(256)) + deflater.flush()
        (tmp_path / "bomb.png").write_bytes(build_png(4, 4, 0, bomb))
        del bomb
        tracemalloc.start()
        try:
            r = decoded(tmp_path / "bomb.png")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.data.shape == (1, 4, 4) and not r.data.any()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("width,height,idat", [
        (4, 4, zlib.compress(bytes(20))[:-4]),  # cut off before its checksum
        (4, 4, b"\x78\x9c\xff" + bytes(20)),  # not Deflate
        (4, 4, zlib.compress(bytes(19))),  # one byte short
        (0, 4, zlib.compress(b"")),  # no pixels, but still four filter bytes
        (2**31 - 1, 2**31 - 1, zlib.compress(bytes(20))),  # needs more than it can inflate to
    ])
    def test_bad_png_stream(self, tmp_path, width, height, idat):
        (tmp_path / "b.png").write_bytes(build_png(width, height, 0, idat))
        with pytest.raises(CorruptFileError):
            load_raster(tmp_path / "b.png")

    def test_image_larger_than_its_strips_can_inflate_to(self, tmp_path):
        # 65535^2 f32 samples from a few dozen Deflate bytes: rejected before
        # the 16 GiB output array is allocated
        buf = build_tiff(65535, 65535, 1, (32, 3), deflated([bytes(64)]), planar=1,
                         compression=8)
        (tmp_path / "huge.tif").write_bytes(buf)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match="shorter"):
                load_raster(tmp_path / "huge.tif")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_png_ihdr_not_13_bytes(self, tmp_path):
        ihdr = struct.pack(">IIBBBB", 2, 2, 8, 0, 0, 0)  # 12 bytes: no interlace byte
        chunks = (struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr + bytes(4)
                  + struct.pack(">I", 0) + b"IEND" + bytes(4))
        (tmp_path / "h.png").write_bytes(PNG_SIGNATURE + chunks)
        with pytest.raises(CorruptFileError, match="IHDR"):
            load_raster(tmp_path / "h.png")


def unfilter_loop(ftype, line, prev, bpp):
    """The former byte-at-a-time `png._unfilter`, every filter type in the loop."""
    if ftype == 0:
        return line
    if ftype == 2:
        return (line.astype(np.int32) + prev).astype(np.uint8)
    out = np.zeros_like(line)
    for i in range(line.size):
        a = int(out[i - bpp]) if i >= bpp else 0
        b = int(prev[i])
        c = int(prev[i - bpp]) if i >= bpp else 0
        x = int(line[i])
        if ftype == 1:
            val = x + a
        elif ftype == 3:
            val = x + (a + b) // 2
        elif ftype == 4:
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            if pa <= pb and pa <= pc:
                val = x + a
            elif pb <= pc:
                val = x + b
            else:
                val = x + c
        else:
            raise CorruptFileError(f"unknown PNG filter type {ftype}")
        out[i] = val & 0xFF
    return out


PNG_COLORS = {0: 1, 4: 2, 2: 3, 6: 4}  # color type -> channels


class TestPngFilters:
    """Each row filter undoes to the bytes the former loop gave."""

    @settings(max_examples=150, deadline=None)
    @given(ftype=st.integers(0, 4), bpp=st.sampled_from(list(PNG_COLORS.values())),
           data=st.data())
    def test_unfilter_matches_loop(self, ftype, bpp, data):
        width = data.draw(st.integers(1, 40))
        row = st.binary(min_size=width * bpp, max_size=width * bpp)
        line = np.frombuffer(data.draw(row), dtype=np.uint8)
        prev = np.frombuffer(data.draw(row), dtype=np.uint8)
        got = png._unfilter(ftype, line.copy(), prev, bpp)
        assert got.dtype == np.uint8
        assert got.tobytes() == unfilter_loop(ftype, line.copy(), prev, bpp).tobytes()

    @settings(max_examples=250, deadline=None)
    @given(ftype=st.one_of(st.sampled_from([3, 4]), st.integers(5, 255)),
           bpp=st.integers(1, 4), data=st.data())
    def test_average_paeth_and_unknown_filters_match_loop(self, ftype, bpp, data):
        # rows of no pixels too: they have nothing to undo, whatever the filter
        width = data.draw(st.integers(0, 40))
        row = st.binary(min_size=width * bpp, max_size=width * bpp)
        line = np.frombuffer(data.draw(row), dtype=np.uint8)
        prev = np.frombuffer(data.draw(row), dtype=np.uint8)

        def outcome(unfilter):
            try:
                return unfilter(ftype, line.copy(), prev, bpp).tobytes()
            except CorruptFileError as exc:
                return str(exc)

        assert outcome(png._unfilter) == outcome(unfilter_loop)

    @pytest.mark.parametrize("color", sorted(PNG_COLORS))
    @pytest.mark.parametrize("width,height", [(1, 5), (7, 10), (33, 6)])
    def test_mixed_row_filters_decode_like_the_loop(self, tmp_path, color, width, height):
        channels = PNG_COLORS[color]
        rng = np.random.default_rng(width * 100 + color)
        rows = rng.integers(0, 256, (height, width * channels), dtype=np.uint8)
        rows[::3] = 255  # runs that wrap modulo 256 under Sub and Up
        filters = [(1, 0, 2, 3, 4)[i % 5] for i in range(height)]
        raw = b"".join(bytes([f]) + r.tobytes() for f, r in zip(filters, rows))
        (tmp_path / "f.png").write_bytes(build_png(width, height, color, zlib.compress(raw)))
        want = np.zeros_like(rows)
        prev = np.zeros(width * channels, dtype=np.uint8)
        for i, (f, r) in enumerate(zip(filters, rows)):
            want[i] = prev = unfilter_loop(f, r.copy(), prev, channels)
        got = decoded(tmp_path / "f.png").data
        assert got.shape == (channels, height, width)
        assert got.tobytes() == np.ascontiguousarray(
            want.reshape(height, width, channels).transpose(2, 0, 1)).tobytes()

    def test_unknown_filter_type(self, tmp_path):
        raw = bytes([5]) + bytes(3)
        (tmp_path / "f.png").write_bytes(build_png(3, 1, 0, zlib.compress(raw)))
        with pytest.raises(CorruptFileError, match="unknown PNG filter type 5"):
            load_raster(tmp_path / "f.png")


class TestPixelwise:
    """The two difference tools subtract band 1 of their inputs."""

    @pytest.fixture
    def difference(self, tmp_path):
        ws = Workspace(tmp_path)
        registry = build_registry(ToolContext(workspace=ws,
                                              perception=MockExpertBackend([], ws)))

        def run(tool, a, b):
            save_raster(a, tmp_path / "a.tif")
            save_raster(b, tmp_path / "b.tif")
            res = registry.call_tool(tool, {"image_a_path": "a.tif", "image_b_path": "b.tif",
                                            "output_path": "out.tif"})
            return res if res.is_error else load_raster(tmp_path / "out.tif")

        return run

    def test_sub(self, difference):
        a = from_array([[4.0, 6.0]], geo=make_georef())
        b = from_array([[1.0, 2.0]])
        out = difference("subtract", a, b)
        assert out.data.ravel().tolist() == [3.0, 4.0] and out.geo == a.geo
        out = difference("calculate_tif_difference", a, b)
        assert out.data.ravel().tolist() == [-3.0, -4.0] and out.geo == b.geo

    def test_shape_mismatch(self, difference):
        for tool in ("subtract", "calculate_tif_difference"):
            res = difference(tool, from_array(np.ones((2, 2))), from_array(np.ones((3, 3))))
            assert res.error_class == "InvalidParameters" and "grids differ" in res.text

    def test_nodata_propagates(self, difference):
        a = from_array([[1.0, 2.0]], nodata=2.0)
        b = from_array([[1.0, 1.0]])
        out = difference("subtract", a, b)
        assert out.data.ravel()[0] == 0.0
        assert np.isnan(out.data.ravel()[1])


class TestWorkspace:
    def test_output_inside_root(self, workspace):
        p = workspace.resolve("q1/out.tif", "out_file")
        assert p.is_relative_to(workspace.root)
        assert not p.parent.exists()  # the writer makes it, not the resolver

    def test_escape_rejected(self, workspace):
        with pytest.raises(WorkspaceEscapeError):
            workspace.resolve("../../etc/x.tif", "out_file")


class TestStatsWithNodata:
    def test_valid_values_filter(self):
        r = from_array([[1.0, 2.0], [3.0, -1.0]], nodata=-1.0)
        vals = r.samples().astype(np.float64)
        dense = [v for v in [1.0, 2.0, 3.0, -1.0] if v != -1.0]
        assert sorted(vals.tolist()) == sorted(dense)
        assert float(np.mean(vals)) == float(np.mean(dense))

    @pytest.mark.parametrize("dtype", ["u16", "f32"])
    @pytest.mark.parametrize("nodata", [None, 7.0, float("nan")])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_values_match_nan_filter(self, dtype, nodata, with_nan):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4) + 3.0
        if with_nan:
            data[0, 1, 2] = data[1, 2, 0] = 7.0  # nodata when numeric
            if dtype == "f32":
                data[0, 0, 1] = np.nan
        r = from_array(data, dtype=dtype, nodata=nodata)
        for band in (1, 2):
            b = r.band(band)
            values = r.samples(band).astype(np.float64)
            assert np.array_equal(values, b[~np.isnan(b)])
            assert values.dtype == np.float64

    def test_band_out_of_range(self):
        r = from_array(np.ones((2, 2)))
        with pytest.raises(InvalidInputError):
            r.band(2)

    @pytest.mark.parametrize("dtype,nodata,masked", [
        ("u16", -9999.0, []),  # outside the sample type: masks nothing
        ("u8", 300.0, []),
        ("u8", 2.5, []),  # fractional: masks nothing, not the 2s
        ("u16", 0.0, [0]),
        ("u8", 255.0, [3]),
        ("f32", 2.5, [1]),
    ])
    def test_nodata_masks_only_equal_samples(self, dtype, nodata, masked):
        values = [[0, 2.5 if dtype == "f32" else 2], [3, 255]]
        r = from_array(values, dtype=dtype, nodata=nodata)
        assert np.flatnonzero(np.isnan(r.band())).tolist() == masked
        assert r.samples().size == 4 - len(masked)


def geo_fields(order):
    """DOUBLE, SHORT and ASCII georeference tags, in byte order `order`."""
    return [(33550, 12, struct.pack(order + "3d", 30.0, 30.0, 0.0)),
            (34735, 3, struct.pack(order + "8H", 1, 1, 0, 1, 3072, 0, 1, 32633)),
            (34737, 2, b"WGS 84|\x00")]


def _fuzz_seeds() -> list[bytes]:
    stack = (np.arange(3 * 4 * 5) * 2741 % 65536).reshape(3, 4, 5)
    rows = (np.arange(20) - 7.5).astype(">f4").reshape(5, 4)
    grey = np.arange(3 * 4, dtype=np.uint8).reshape(3, 4)
    filtered = b"".join(bytes([f]) + row.tobytes() for f, row in zip((0, 1, 4), grey))
    return [
        planar_deflate(stack.astype(np.uint16), rows_per_strip=2),
        planar_deflate(stack.astype(np.float32), rows_per_strip=4, order=">"),
        build_tiff(4, 5, 1, (32, 3), deflated([rows[:2].tobytes(), rows[2:].tobytes()]),
                   planar=1, rows_per_strip=2, order=">", compression=8),
        build_tiff(5, 4, 3, (16, 1), [stack.astype("<u2").transpose(1, 2, 0).tobytes()],
                   planar=1),
        build_png(4, 3, 0, zlib.compress(filtered)),
        build_tiff(5, 4, 3, (16, 1), [plane.astype("<u2").tobytes() for plane in stack],
                   planar=2),
        build_tiff(4, 5, 1, (32, 3), [rows.tobytes()], planar=1, order=">",
                   extra=geo_fields(">")),
    ]


FUZZ_SEEDS = _fuzz_seeds()


@st.composite
def mutated_seed(draw):
    buf = bytearray(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 6))):
        buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    return bytes(buf[:draw(st.integers(0, len(buf)))]) if draw(st.booleans()) else bytes(buf)


class TestByteFuzz:
    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(mutated_seed(), st.binary(max_size=64)))
    @example(blob=FUZZ_SEEDS[0])
    @example(blob=FUZZ_SEEDS[1])
    @example(blob=FUZZ_SEEDS[4])
    @example(blob=FUZZ_SEEDS[5])
    @example(blob=FUZZ_SEEDS[6])
    def test_any_bytes_load_or_raise_taxonomy_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("fuzz") / "f.tif"
        path.write_bytes(blob)
        try:
            r = load_raster(path)
        except GeoAgentError:
            return
        assert isinstance(r, Raster)
        try:
            data = r.data
        except GeoAgentError:
            return
        assert data.shape == (r.bands, r.height, r.width)
        # what loads also saves, or raises a taxonomy error, and reads back
        out = path.with_name("out.tif")
        try:
            save_raster(r, out)
        except GeoAgentError:
            return
        back = load_raster(out)
        assert back.data.shape == data.shape and back.data.tobytes() == data.tobytes()
        assert back.geo == r.geo


class TestFieldTypes:
    """Tag fields of a type outside TIFF 6.0's twelve are skipped, and
    big-endian fields are swapped element by element."""

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_unknown_type_geo_tag_is_skipped(self, tmp_path, order):
        rows = np.arange(6, dtype=order + "f4").reshape(2, 3)
        tie = (33922, 13, struct.pack(order + "6I", *range(6)))
        (tmp_path / "in.tif").write_bytes(build_tiff(
            3, 2, 1, (32, 3), [rows.tobytes()], planar=1, order=order,
            extra=geo_fields(order) + [tie]))
        r = load_raster(tmp_path / "in.tif")
        assert [tag for tag, _, _ in r.geo.tags] == [33550, 34735, 34737]
        save_raster(r, tmp_path / "out.tif")
        assert rasters_equal(load_raster(tmp_path / "out.tif"), r)

    def test_big_endian_fields_read_as_their_little_endian_twins(self, tmp_path):
        loaded = []
        for order in "<>":
            rational = (34736, 5, struct.pack(order + "4I", 1, 3, 72, 1))
            path = tmp_path / f"{order == '>'}.tif"
            path.write_bytes(build_tiff(1, 1, 1, (8, 1), [b"\x07"], planar=1, order=order,
                                        extra=geo_fields(order) + [rational]))
            loaded.append(load_raster(path).geo)
        assert loaded[0] == loaded[1]
        assert dict((tag, raw) for tag, _, raw in loaded[1].tags)[34736] == \
            struct.pack("<4I", 1, 3, 72, 1)
