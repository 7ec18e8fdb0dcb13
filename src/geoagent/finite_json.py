"""JSON over HTTP from remote models, and the finite-number rule both peers'
replies follow.

`post_json` is the one HTTP client: it POSTs a body and returns the decoded
reply. A reply must be well-framed HTTP with a 2xx status, a body of at most
`MAX_REPLY_BYTES`, and standard JSON whose numbers are all finite: `NaN`,
`Infinity` and numbers that overflow a float (`1e999`) are refused, as RFC
8259 has none of them. Every transport, framing, size or decoding fault is
one `ReplyError`. `is_finite_number` is the same test for a value already
decoded: tool arguments, condition and tie-point objects, and task answer
rules use it.
"""

from __future__ import annotations

import http.client
import json
import math
import sys
import urllib.request
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


def post_json(url: str, body: bytes, headers: dict, timeout: float) -> Any:
    """The decoded JSON reply to POSTing `body` to `url`, or ReplyError."""
    limit = MAX_REPLY_BYTES
    try:
        req = urllib.request.Request(url, data=body, headers=headers)
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read(limit + 1)
        if len(raw) > limit:
            raise ReplyError(f"reply body exceeds {limit} bytes")
        return loads(raw.decode("utf-8"))
    # OSError: unreachable, reset, timed out, or an error status; HTTPException:
    # broken framing; ValueError: not UTF-8, not finite JSON, or an integer too
    # long to convert; RecursionError: nesting past the interpreter's limit
    except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
        raise ReplyError(str(exc)) from exc
