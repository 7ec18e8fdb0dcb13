"""Helpers shared across tool kits."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError


def as_binary(band: np.ndarray, what: str = "map") -> np.ndarray:
    """Validate a 0/1 (or 0/255) band and normalize it to {0,1} with NaN kept.

    Raises InvalidInputError when any valid pixel is outside the accepted
    value sets.
    """
    vals = band[~np.isnan(band)]
    uniq = set(np.unique(vals).tolist())
    if uniq <= {0.0, 1.0}:
        return band
    if uniq <= {0.0, 255.0}:
        out = band.copy()
        out[band == 255.0] = 1.0
        return out
    raise InvalidInputError(f"{what} is not binary: values {sorted(uniq)[:6]}")


def nonempty(values: np.ndarray, what: str) -> np.ndarray:
    if values.size == 0:
        raise InvalidInputError(f"{what}: no valid pixels to aggregate")
    return values
