"""Argument checks: an error about one argument opens with its name, and
with the entry's index for a sequence (``masses[1]: ...``), so a caller can
map it to a field of its own, as the command line maps it to the config path."""

import math

import numpy as np


def finite(**values) -> None:
    """Refuse a NaN or an infinity among values, each a real or complex
    number or a 1-D sequence of them."""
    for name, value in values.items():
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            at = f"[{bad[0]}]" if np.ndim(value) else ""
            raise ValueError(f"{name}{at}: must be finite, got {np.ravel(value)[bad[0]]}")


def positive(**values) -> None:
    """Refuse any of values, each a real number, that is not positive and finite."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name}: must be positive and finite, got {value}")
