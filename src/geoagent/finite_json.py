"""JSON over HTTP from remote models, and the finite-number rule both peers'
replies follow.

`post_json` is the one HTTP client: it POSTs a body and returns the decoded
reply. A reply must be well-framed HTTP with a 2xx status, a body of at most
`MAX_REPLY_BYTES`, and standard JSON whose numbers are all finite: `NaN`,
`Infinity` and numbers that overflow a float (`1e999`) are refused, as RFC
8259 has none of them. A redirect is not followed. Every transport, framing,
status, size or decoding fault is one `ReplyError`. `is_finite_number` is
the same test for a value already decoded: tool arguments, condition and
tie-point objects, and task answer rules use it.

The HTTP client stack (`urllib.request`, `http.client`, `ssl`) is imported
by `http_opener` at an HTTP peer's first use, so a process that talks to no
peer, such as a tool server with the mock expert backend, never loads it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from typing import Any

MAX_REPLY_BYTES = 16 * 2**20


class ReplyError(Exception):
    """A POST that gave no decodable reply: the peer is unreachable, or its
    reply is broken HTTP, too long, or not finite standard JSON."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def is_finite_number(v: Any) -> bool:
    """Whether `v` is an int or float (not a bool) that a float64 holds finitely."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def loads(text: str | bytes) -> Any:
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


@functools.cache
def http_opener():
    """The opener `post_json` sends with, built on first call: urllib's
    default handlers and headers, but a 3xx reply is an error status, not a
    redirect to follow. Two threads that call it at once may each build one;
    both are equal and one of them is kept."""
    import urllib.request

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None  # the default error handler then raises HTTPError

    return urllib.request.build_opener(RefuseRedirects)


def post_json(url: str, body: bytes, headers: dict, timeout: float) -> Any:
    """The decoded JSON reply to POSTing `body` to `url`, or ReplyError."""
    opener = http_opener()
    from http.client import HTTPException
    from urllib.request import Request

    limit = MAX_REPLY_BYTES
    try:
        with opener.open(Request(url, data=body, headers=headers), timeout=timeout) as resp:
            raw = resp.read(limit + 1)
        if len(raw) > limit:
            raise ReplyError(f"reply body exceeds {limit} bytes")
        return loads(raw.decode("utf-8"))
    # OSError: unreachable, reset, timed out, or an error or redirect status;
    # HTTPException: broken framing; ValueError: not UTF-8, not finite JSON,
    # or an integer too long to convert; RecursionError: nesting past the
    # interpreter's limit
    except (OSError, HTTPException, ValueError, RecursionError) as exc:
        raise ReplyError(str(exc)) from exc
