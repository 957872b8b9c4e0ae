"""Small statistics helpers shared by the analysis layer and benchmarks."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fraction_at_least"]


def fraction_at_least(values: Sequence[float], threshold: float) -> float:
    """Fraction of entries that are >= ``threshold``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty series")
    return float(np.mean(arr >= threshold))

