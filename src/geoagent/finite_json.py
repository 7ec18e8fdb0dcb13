"""JSON decoding for replies from remote models: every number is finite.

`NaN`, `Infinity` and numbers that overflow a float (`1e999`) raise
ValueError, which callers treat like any other undecodable reply.
"""

from __future__ import annotations

import json
import math
from typing import Any


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def loads(text: str | bytes) -> Any:
    return json.loads(text, parse_constant=_finite, parse_float=_finite)
