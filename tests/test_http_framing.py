"""Broken HTTP replies from the LLM and expert endpoints end in the clients'
own error types, never in an escaped `http.client` or socket exception; and
`finite_json.post_json`, the one client both use, returns a decoded value or
raises `ReplyError` whatever bytes come back."""

from __future__ import annotations

import json
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent import finite_json
from geoagent.agent import Goal, LLMPolicy, PolicyUnreachable
from geoagent.bench import generate_fixture_suite
from geoagent.errors import ExternalServiceError
from geoagent.kits.perception import HttpExpertBackend

from conftest import http_reply, server_url as url

BAD_REPLIES = {
    "bad_status_line": b"garbage\r\n\r\n",
    "bad_chunk_size": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                       b"Transfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n"),
    "header_line_too_long": (b"HTTP/1.1 200 OK\r\nX-Filler: " + b"a" * 70_000
                             + b"\r\nContent-Length: 2\r\n\r\n{}"),
    # the headers and part of the body, then the connection is reset
    "mid_body_reset": b'HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n{"label": ',
}


def serve(server, name):
    server.reply = BAD_REPLIES[name]
    server.reset = name == "mid_body_reset"


@pytest.mark.parametrize("name", BAD_REPLIES)
class TestBadFraming:
    def test_llm_policy_unreachable(self, raw_server, name):
        serve(raw_server, name)
        policy = LLMPolicy(url(raw_server) + "/v1", "m", retries=1, timeout=5)
        with pytest.raises(PolicyUnreachable, match="chat endpoint unreachable"):
            policy.next(Goal(query="anything", regime="AutoPlanning"), [])

    def test_expert_backend_service_error(self, raw_server, name, tmp_path):
        serve(raw_server, name)
        backend = HttpExpertBackend(url(raw_server), timeout=5)
        with pytest.raises(ExternalServiceError, match="expert endpoint failed"):
            backend.call("MSCN", "classify", [str(tmp_path / "scene.png")], None)


def test_run_with_bad_status_stops_with_policy_failure(raw_server, tmp_path, capsys):
    from geoagent.cli import main

    serve(raw_server, "bad_status_line")
    root = tmp_path / "suite"
    generate_fixture_suite(root)
    task = next((root / "tasks").glob("*.json"))
    assert main(["run", "--task", str(task), "--workspace", str(root), "--policy", "llm",
                 "--llm-endpoint", url(raw_server) + "/v1", "--tool-timeout", "5"]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["stop_reason"] == "policy_failure"


# ---------------------------------------------------------------------------
# the byte-level property
# ---------------------------------------------------------------------------

STATUS_LINES = [b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 201 Created",
                b"HTTP/1.1 204 No Content", b"HTTP/1.1 100 Continue", b"HTTP/1.1 302 Found",
                b"HTTP/1.1 404 Not Found", b"HTTP/1.1 500 Oops", b"HTTP/2 200",
                b"HTTP/1.1 99 Low", b"garbage", b""]
HEADER_NAMES = [b"Content-Type", b"Content-Length", b"Transfer-Encoding", b"Connection",
                b"X-Filler"]
# no Location or URI header is drawn: redirects are not part of the property
header_names = st.one_of(
    st.sampled_from(HEADER_NAMES),
    st.binary(min_size=1, max_size=8).filter(
        lambda n: b"\n" not in n and n.strip().lower() not in (b"location", b"uri")))
header_values = st.one_of(st.sampled_from([b"application/json", b"chunked", b"close",
                                           b"5", b"-1", b"a" * 70_000]),
                          st.binary(max_size=12).filter(lambda v: b"\n" not in v))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)
BAD_BODIES = [b'{"score": NaN}', b"[Infinity]", b"[1e999]", b'"\xff\xfe"', b"[" * 5000,
              b"1" * 5000, b"{"]


@st.composite
def replies(draw):
    """(reply bytes, reset after them, delay, value a faultless client must
    return or None when the reply is not plainly well-formed)."""
    value = draw(JSON)
    body = draw(st.one_of(st.just(json.dumps(value).encode()), st.sampled_from(BAD_BODIES),
                          st.binary(max_size=40)))
    clean = body == json.dumps(value).encode()
    status = draw(st.one_of(st.sampled_from(STATUS_LINES), st.binary(max_size=20)))
    clean &= status in STATUS_LINES[:2]
    headers = draw(st.lists(st.tuples(header_names, header_values), max_size=3))
    clean &= not headers
    framing = draw(st.sampled_from(["length", "lying_length", "chunked", "bad_chunk",
                                    "close"]))
    clean &= framing in ("length", "chunked", "close")
    if framing == "length":
        headers.append((b"Content-Length", b"%d" % len(body)))
    elif framing == "lying_length":
        lie = draw(st.integers(-len(body), 50).filter(bool))
        headers.append((b"Content-Length", b"%d" % (len(body) + lie)))
    elif framing in ("chunked", "bad_chunk"):
        headers.append((b"Transfer-Encoding", b"chunked"))
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
        parts = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
        sizes = [b"%x" % len(p) for p in parts] + [b"0"]
        if framing == "bad_chunk":
            at = draw(st.integers(0, len(sizes) - 1))
            sizes[at] = draw(st.sampled_from([b"zz", b"-1", b"", b"fffffff", b"1;" * 40]))
        body = b"".join(s + b"\r\n" + p + b"\r\n" for s, p in zip(sizes, [*parts, b""]))
    reply = (status + b"\r\n" + b"".join(n + b": " + v + b"\r\n" for n, v in headers)
             + b"\r\n" + body)
    cut = draw(st.one_of(st.none(), st.integers(0, len(reply))))
    reset = cut is not None and draw(st.booleans())
    clean &= cut is None
    delay = draw(st.integers(0, 7)) == 0
    clean &= not delay
    return (reply[:cut], reset, delay, value if clean else None)


def test_post_json_returns_a_value_or_reply_error(raw_server):
    @settings(max_examples=60, deadline=None)
    @given(reply=replies(), limit=st.one_of(st.none(), st.integers(0, 64)))
    def check(reply, limit):
        raw_server.reply, raw_server.reset, delay, value = reply
        raw_server.delay = 0.3 if delay else 0.0
        bound = finite_json.MAX_REPLY_BYTES if limit is None else limit
        with mock.patch.object(finite_json, "MAX_REPLY_BYTES", bound):
            try:
                got = finite_json.post_json(url(raw_server), b"{}", {},
                                            0.1 if delay else 5.0)
            except finite_json.ReplyError:
                assert value is None or len(json.dumps(value).encode()) > bound
                return
        json.dumps(got, allow_nan=False)
        if value is not None:
            assert got == value

    check()


def test_post_json_decodes_a_well_formed_reply(raw_server):
    raw_server.reply = http_reply(b'{"label": "Harbor", "score": 0.93}')
    assert finite_json.post_json(url(raw_server), b"{}", {}, 5.0) == \
        {"label": "Harbor", "score": 0.93}


@pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
def test_post_json_follows_no_redirect(raw_server, code):
    """A 3xx reply is an error status: the POST is not sent again, and no
    other request is made, to the `Location` the peer names."""
    raw_server.reply = (b"HTTP/1.1 %d Moved\r\nLocation: /elsewhere\r\n"
                        b"Content-Length: 2\r\n\r\n{}" % code)
    with pytest.raises(finite_json.ReplyError, match=f"HTTP Error {code}"):
        finite_json.post_json(url(raw_server) + "/infer", b"{}", {}, 5.0)
    assert raw_server.requests == [b"POST /infer HTTP/1.1\r\n"]


def test_threads_that_post_first_at_once_all_get_the_reply(raw_server):
    """The HTTP client is built on first use; threads racing to build it
    each send their request and decode its reply."""
    raw_server.reply = http_reply(b'{"label": "Harbor"}')
    finite_json.http_opener.cache_clear()
    threads, got = 4, []
    barrier = threading.Barrier(threads)

    def post():
        barrier.wait(timeout=10)
        got.append(finite_json.post_json(url(raw_server), b"{}", {}, 10.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=post) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [{"label": "Harbor"}] * threads
