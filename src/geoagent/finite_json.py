"""JSON decoding for replies from remote models: every number is finite,
and no reply body is read past `MAX_REPLY_BYTES`.

`NaN`, `Infinity`, numbers that overflow a float (`1e999`) and a body over
the bound raise ValueError, which callers treat like any other undecodable
reply.
"""

from __future__ import annotations

import json
import math
from typing import Any, BinaryIO

MAX_REPLY_BYTES = 16 * 2**20


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def loads(text: str | bytes) -> Any:
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def read_reply(stream: BinaryIO) -> str:
    """The UTF-8 text of a reply body of at most `MAX_REPLY_BYTES`."""
    body = stream.read(MAX_REPLY_BYTES + 1)
    if len(body) > MAX_REPLY_BYTES:
        raise ValueError(f"reply body exceeds {MAX_REPLY_BYTES} bytes")
    return body.decode("utf-8")
