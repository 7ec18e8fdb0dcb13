"""`rpc_mix` workload: a seeded request mix sent to a `geoagent serve
--transport tcp` subprocess over two connections from one client process.

Closed loop: each connection sends its next line only after the reply to the
previous one. Lines are encoded before timing starts; the client uses plain
sockets, not the package's client. Each connection cycles through its own
sequence of `SEQUENCE` requests over a pool of distinct lines: a fixed
count per kind, spread evenly over the kind's variants, so every seed asks
for the same work. The seed sets values and order.
"""

from __future__ import annotations

import io
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import harness, tiff

CONNECTIONS = 2
SEQUENCE = 2000
# request kind -> count per 1000 requests. Chosen to give the mix its shape
# (mostly scalar and statistics calls, tools/list about 1 in 50), not measured
# from real traffic; every run records each kind's share of the requests, of
# their time and of the requests beyond the tail percentile.
MIX = {
    "scalar": 420, "stats100": 300,
    "series_acf": 30, "series_mk": 10, "series_sens": 10, "series_cpd": 1,
    "raster_percentile": 40, "raster_batch_mean": 20, "raster_batch_ndvi": 20,
    "pixel_gi_star": 5, "pixel_skeleton": 10,
    "perception": 50, "tools_list": 20,
    "err_tool": 8, "err_file": 8, "err_params": 8, "err_system": 8,
    "malformed": 32,
}
assert sum(MIX.values()) == 1000
VARIANTS = 8  # distinct lines per kind (and per connection where outputs differ)
SCALAR_TOOLS = (("kelvin_to_celsius", ("kelvin",)), ("celsius_to_kelvin", ("celsius",)),
                ("multiply", ("a", "b")), ("division", ("a", "b")),
                ("difference", ("a", "b")), ("percentage_change", ("old", "new")),
                ("ceil_number", ("value",)))
STATS_TOOLS = ("mean", "skewness", "kurtosis", "coefficient_of_variation",
               "max_value_and_index", "min_value_and_index")
RPC_ERRORS = {"parse": -32700, "invalid": -32600, "method": -32601, "params": -32602}


def _line(idx: int, method: str, params: dict | None = None) -> bytes:
    body = {"jsonrpc": "2.0", "id": idx, "method": method}
    if params is not None:
        body["params"] = params
    return (json.dumps(body) + "\n").encode()


def _call(idx: int, tool: str, args: dict) -> bytes:
    return _line(idx, "tools/call", {"name": tool, "arguments": args})


def generate(work: Path, seed: int, tiny: bool) -> dict:
    """Write the small rasters, the mock manifest and the request pool."""
    rng = np.random.default_rng(seed)
    ws = work / "ws"
    (ws / "data").mkdir(parents=True)
    geo = tiff.georef(500010.0, 4650000.0, 30.0)
    sizes = (64, 128, 256)
    for i in range(12):
        n = sizes[i % 3]
        dtype = "u16" if i % 2 else "f32"
        tiff.write(ws / f"data/f{i:02d}.tif", rng.uniform(0, 1, (n, n)) * (
            10000 if dtype == "u16" else 1), dtype, geo, i % 4 == 3)
    for i in range(4):
        n = sizes[i % 3]
        tiff.write(ws / f"data/nir{i}.tif", rng.uniform(2000, 8000, (n, n)), "u16", geo, False)
        tiff.write(ws / f"data/red{i}.tif", rng.uniform(300, 3000, (n, n)), "u16", geo, i == 3)
        tiff.write(ws / f"data/heat{i}.tif", rng.normal(50, 10, (64, 64)), "f32", geo, False)
        tiff.write(ws / f"data/mask{i}.tif", (rng.uniform(size=(64, 64)) < 0.5) * 255,
                   "u8", geo, False)
        tiff.write(ws / f"data/scene{i}.tif", rng.uniform(0, 255, (32, 32)), "u8", geo, False)
    manifest = []
    for i in range(3):  # scene3 has no entry: calls on it are system errors
        manifest += [
            {"image": f"scene{i}", "task": "classify", "prompt": None,
             "result": {"label": ["Airport", "Farmland", "Harbor"][i]}},
            {"image": f"scene{i}", "task": "detect", "prompt": "ship",
             "result": {"boxes": rng.integers(0, 32, (3, 4)).tolist()}},
            {"image": f"scene{i}", "task": "count", "prompt": "tank",
             "result": {"count": int(rng.integers(1, 20))}},
        ]
    (ws / "mock_manifest.json").write_text(json.dumps(manifest))

    pool: list[dict] = []  # {"line", "expect", "conn"}

    def add(kind, line_fn, expect=("ok",), conn=None):
        idx = len(pool)
        pool.append({"kind": kind, "line": line_fn(idx).decode(), "expect": list(expect),
                     "conn": conn})

    def series(n):
        t = np.arange(n)
        return (np.sin(2 * np.pi * t / 365) * rng.uniform(1, 5) + 0.002 * t * rng.normal()
                + rng.normal(0, 0.5, n)).round(4).tolist()

    for v in range(VARIANTS):
        tool, names = SCALAR_TOOLS[v % len(SCALAR_TOOLS)]
        args = {n: round(float(rng.uniform(1, 400)), 3) for n in names}
        add("scalar", lambda i: _call(i, tool, args))
        values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), 100).round(6).tolist()
        key = "values" if STATS_TOOLS[v % 6].endswith("_index") else "data"
        add("stats100", lambda i: _call(i, STATS_TOOLS[v % 6], {key: values}))
        n = (365, 730)[v % 2]
        add("series_acf", lambda i: _call(i, "autocorrelation_function",
                                          {"values": series(n), "max_lag": 30}))
        add("series_mk", lambda i: _call(i, "mann_kendall_test", {"values": series(n)}))
        add("series_sens", lambda i: _call(i, "sens_slope", {"values": series(n)}))
        add("series_cpd", lambda i: _call(i, "detect_change_points",
                                          {"values": series(365), "penalty": 5.0}))
        add("raster_percentile", lambda i: _call(i, "get_percentile_value_from_image", {
            "image_path": f"data/f{v:02d}.tif", "percentile": float(rng.integers(1, 99))}))
        order = rng.permutation(12)
        add("raster_batch_mean", lambda i: _call(i, "calc_batch_image_mean", {
            "image_paths": [f"data/f{k:02d}.tif" for k in order]}))
        for c in range(CONNECTIONS):
            add("raster_batch_ndvi", lambda i: _call(i, "calculate_batch_ndvi", {
                "nir_paths": [f"data/nir{v % 4}.tif"], "red_paths": [f"data/red{v % 4}.tif"],
                "output_dir": f"conn{c}/ndvi"}), conn=c)
            add("pixel_gi_star", lambda i: _call(i, "getis_ord_gi_star", {
                "image_path": f"data/heat{v % 4}.tif",
                "output_path": f"conn{c}/gi_{v % 4}.tif"}), conn=c)
        add("pixel_skeleton", lambda i: _call(i, "count_skeleton_contours",
                                              {"image_path": f"data/mask{v % 4}.tif"}))
        scene = f"data/scene{v % 3}.tif"
        tool, args = (("MSCN", {"image_path": scene}),
                      ("SM3Det", {"image_path": scene, "prompt": "ship"}),
                      ("InstructSAM", {"image_path": scene, "prompt": "tank"}),
                      ("bboxes2centroids", {"bboxes": rng.integers(0, 99, (5, 4)).cumsum(
                          axis=1).tolist()}))[v % 4]
        add("perception", lambda i: _call(i, tool, args))
        add("tools_list", lambda i: _line(i, "tools/list"))
        add("err_tool", lambda i: _call(i, f"calculate_ndvi_{v}", {"nir": "x"}),
            ("tool", "ToolHallucination"))
        add("err_file", lambda i: _call(i, "get_percentile_value_from_image", {
            "image_path": f"data/missing_{v}.tif", "percentile": 50.0}),
            ("tool", "FileHallucination"))
        add("err_params", lambda i: _call(i, "mean", {"data": [1.0, "two", 3.0]}
                                          if v % 2 else {"values": [1.0]}),
            ("tool", "InvalidParameters"))
        add("err_system", lambda i: _call(i, "MSCN", {"image_path": "data/scene3.tif"}),
            ("tool", "SystemError"))
        bad = list(RPC_ERRORS)[v % 4]
        add("malformed", lambda i: {
            "parse": f'{{"jsonrpc": "2.0", "id": {i}, "method": "tools/call", '.encode()
                     + b'"params": {"name": "mean"\n',
            "invalid": (json.dumps({"jsonrpc": "2.0", "id": i}) + "\n").encode(),
            "method": _line(i, "resources/list"),
            "params": _line(i, "tools/call", {"arguments": {}}),
        }[bad], ("rpc", RPC_ERRORS[bad]))

    by_kind: dict[str, dict] = {}
    for idx, p in enumerate(pool):
        by_kind.setdefault(p["kind"], {}).setdefault(p["conn"], []).append(idx)
    sequences = []
    length = 200 if tiny else SEQUENCE
    for c in range(CONNECTIONS):
        seq = []
        for kind, per_mille in MIX.items():
            choices = by_kind[kind].get(c) or by_kind[kind][None]
            seq += [choices[k % len(choices)] for k in range(per_mille * length // 1000)]
        sequences.append([seq[k] for k in rng.permutation(len(seq))])
    (work / "pool.json").write_text(json.dumps({"pool": pool, "sequences": sequences}))
    return {"pool": len(pool), "sequence": length, "connections": CONNECTIONS}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def outcome(response: dict, root: str) -> list:
    """What the gate compares: error code or class, values and schemas."""
    if "error" in response:
        return ["rpc", response["error"]["code"]]
    result = response["result"]
    if "tools" in result:
        return ["ok", harness.digest([[t["name"], t["inputSchema"]] for t in result["tools"]])]
    structured = result.get("structured", {})
    if result.get("isError"):
        return ["tool", structured.get("error_class")]
    return ["ok", harness.mask([structured.get("value"), structured.get("files", [])], root)]


def start_server(ws: Path) -> tuple[subprocess.Popen, int]:
    """Launch `geoagent serve --transport tcp` on a free loopback port."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "geoagent.cli", "serve", "--transport", "tcp",
         "--host", "127.0.0.1", "--port", "0", "--workspace", str(ws)],
        stdout=subprocess.PIPE, env=env, cwd=root)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=10)
        raise RuntimeError("tool server exited before listening")
    return proc, int(json.loads(line)["listening"].rsplit(":", 1)[1])


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def serve_setup_s(ws: Path) -> float:
    """Process launch to the `initialize` reply of a fresh server."""
    t0 = perf_counter()
    proc, port = start_server(ws)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(_line(0, "initialize", {"protocolVersion": "2025-06-18"}))
            reply = sock.makefile("rb").readline()
        elapsed = perf_counter() - t0
        if b'"serverInfo"' not in reply:
            raise RuntimeError(f"bad initialize reply: {reply[:200]!r}")
        return elapsed
    finally:
        stop_server(proc)


class _Verifier:
    """Checks replies against the reference outcomes; a reply already seen
    verbatim for the same pool line is accepted without parsing."""

    def __init__(self, reference: list, root: str):
        self.reference, self.root, self.seen = reference, root, {}

    def bad(self, idx: int, reply: bytes) -> bool:
        if self.seen.get(idx) == reply:
            return False
        try:
            ok = outcome(json.loads(reply), self.root) == self.reference[idx]
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            self.seen[idx] = reply
        return not ok


def run(work: Path, seconds: float, tracer, nproc: int) -> dict:
    from geoagent.cli import make_context
    from geoagent.tools import build_registry, mcp

    doc = json.loads((work / "pool.json").read_text())
    pool, sequences = doc["pool"], doc["sequences"]
    lines = [p["line"].encode() for p in pool]
    ws = work / "ws"
    root = str(ws.resolve())

    # reference outcomes from an in-process server; each must match the class
    # the generator declared for its line
    server = mcp.McpServer(build_registry(make_context(str(ws))))
    reference = [outcome(server.handle_line(p["line"]), root) for p in pool]
    undeclared = sum(ref[0] != p["expect"][0] or p["expect"][1:] not in ([], ref[1:])
                     for p, ref in zip(pool, reference))

    if tracer is None:
        kinds = [p["kind"] for p in pool]
        out = {"untraced": _tcp_window(ws, lines, kinds, sequences, reference, root, seconds)}
        out["peak_rss_mb"] = out["untraced"].pop("peak_rss_mb")
    else:
        verifiers = [_Verifier(reference, root) for _ in sequences]

        def make_state():
            return mcp.McpServer(build_registry(make_context(str(ws))))

        def one_pass(server):
            ops = failed = 0
            for seq, verifier in zip(sequences, verifiers):
                rfile, wfile = io.BytesIO(b"".join(lines[i] for i in seq)), io.BytesIO()
                mcp.serve_stream(server, rfile, wfile)
                replies = wfile.getvalue().splitlines(keepends=True)
                ops += len(seq)
                failed += len(seq) - len(replies) + sum(
                    verifier.bad(i, r) for i, r in zip(seq, replies))
            return ops, [], failed

        out = harness.run_passes(make_state, one_pass, seconds, tracer)
    out["digests"] = {"outcomes": harness.digest(reference)}
    out["gate_ok"] = undeclared == 0
    out["parallelism"] = len(sequences)
    return out


def _tcp_window(ws, lines, kinds, sequences, reference, root, seconds) -> dict:
    proc, port = start_server(ws)
    try:
        socks = [socket.create_connection(("127.0.0.1", port), timeout=60)
                 for _ in sequences]
        for sock in socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        results = [None] * len(sequences)
        start = perf_counter()
        deadline = start + seconds

        def client(k: int) -> None:
            sock, seq = socks[k], sequences[k]
            rfile = sock.makefile("rb")
            verifier = _Verifier(reference, root)
            op_times, failed, n = [], 0, 0
            while perf_counter() < deadline:
                idx = seq[n % len(seq)]
                t0 = perf_counter()
                sock.sendall(lines[idx])
                reply = rfile.readline()
                op_times.append([t0, perf_counter()])
                n += 1
                failed += verifier.bad(idx, reply)
            rfile.close()
            results[k] = (op_times, failed, [kinds[seq[j % len(seq)]] for j in range(n)])

        threads = [threading.Thread(target=client, args=(k,)) for k in range(len(socks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for sock in socks:
            sock.close()
        peak = harness.peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)
    op_times = [span for r in results for span in r[0]]
    return {"ops": len(op_times), "op_times": op_times, "failed": sum(r[1] for r in results),
            "kinds": [kind for r in results for kind in r[2]],
            "window": [start, max(t1 for _, t1 in op_times)], "peak_rss_mb": peak}
