from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time

import numpy as np
import pytest

from geoagent.kits import analysis
from geoagent.kits.perception import MockExpertBackend
from geoagent.raster import GeoRef, Raster, from_array, save_raster
from geoagent.tools import ToolContext, build_registry
from geoagent.workspace import Workspace


def make_georef() -> GeoRef:
    """A small but realistic georeference: pixel scale + tiepoint + geokeys."""
    scale = np.array([30.0, 30.0, 0.0], dtype="<f8").tobytes()
    tie = np.array([0.0, 0.0, 0.0, 500000.0, 4600000.0, 0.0], dtype="<f8").tobytes()
    keys = np.array([1, 1, 0, 1, 3072, 0, 1, 32633], dtype="<u2").tobytes()
    return GeoRef(tags=((33550, 12, scale), (33922, 12, tie), (34735, 3, keys)))


@pytest.fixture
def workspace(tmp_path) -> Workspace:
    return Workspace(tmp_path)


@pytest.fixture
def tool_registry(workspace):
    """The full catalog over the per-test workspace, with no expert fixtures."""
    return build_registry(ToolContext(
        workspace=workspace, perception=MockExpertBackend([], workspace)))


@pytest.fixture
def georef() -> GeoRef:
    return make_georef()


class RawReplyHandler(socketserver.StreamRequestHandler):
    """Reads one request, appends its request line to `server.requests`, and
    answers it with `server.reply`, byte for byte, after `server.delay`
    seconds. With `server.reset` the connection is then reset, not closed."""

    def handle(self):
        self.server.requests.append(self.rfile.readline())
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        self.rfile.read(length)
        time.sleep(self.server.delay)
        try:
            self.wfile.write(self.server.reply)
        except OSError:  # the client gave up first
            return
        if self.server.reset:
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                       struct.pack("ii", 1, 0))
            self.connection.close()


@pytest.fixture
def raw_server():
    """A one-thread loopback stub; set `.reply` before the request."""
    server = socketserver.TCPServer(("127.0.0.1", 0), RawReplyHandler)
    server.delay, server.reset, server.requests = 0.0, False, []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def server_url(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}"


def http_reply(body: bytes) -> bytes:
    """A well-framed 200 reply carrying `body`."""
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def write_raster(path, values, dtype="f32", nodata=None, geo=None):
    r = from_array(values, dtype=dtype, nodata=nodata, geo=geo)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_raster(r, path)
    return r


def random_raster(rng, dtype="f32", max_side=6, bands=1) -> Raster:
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    if dtype == "u8":
        data = rng.integers(0, 256, size=(bands, h, w))
    elif dtype == "u16":
        data = rng.integers(0, 65536, size=(bands, h, w))
    else:
        data = rng.normal(size=(bands, h, w)) * 100.0
    return from_array(data, dtype=dtype)


def segmentation_cost(values, breakpoints: list[int], penalty: float) -> float:
    """Total penalized L2 cost of a given segmentation, the oracle PELT's
    change points are compared against."""
    x = analysis._valid(values)
    c1, c2 = analysis._prefix_sums(x)
    bounds = [0] + sorted(breakpoints) + [x.size]
    total = penalty * (len(bounds) - 2)
    for s, t in zip(bounds[:-1], bounds[1:]):
        sm = c1[t] - c1[s]
        total += float(c2[t] - c2[s] - sm * sm / (t - s))
    return float(total)
