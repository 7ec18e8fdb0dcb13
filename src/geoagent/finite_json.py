"""JSON decoding for replies from remote models: every number is finite,
and no reply body is read past `MAX_REPLY_BYTES`.

`NaN`, `Infinity`, numbers that overflow a float (`1e999`) and a body over
the bound raise ValueError, which callers treat like any other undecodable
reply. `is_finite_number` is the same test for a value already decoded: tool
arguments, condition and tie-point objects, and task answer rules use it.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, BinaryIO

MAX_REPLY_BYTES = 16 * 2**20


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


def read_reply(stream: BinaryIO) -> str:
    """The UTF-8 text of a reply body of at most `MAX_REPLY_BYTES`."""
    body = stream.read(MAX_REPLY_BYTES + 1)
    if len(body) > MAX_REPLY_BYTES:
        raise ValueError(f"reply body exceeds {MAX_REPLY_BYTES} bytes")
    return body.decode("utf-8")
