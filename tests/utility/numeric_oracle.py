"""The scalar central-difference gradient: the oracle the batched
differentiator, ``repro.utility.base.numeric_gradient_batch``, must
reproduce bit for bit."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utility.base import _GRADIENT_EPS


def numeric_gradient(func, allocation: Sequence[float]) -> np.ndarray:
    """Central-difference gradient of ``func`` at ``allocation``.

    Steps are scaled to the magnitude of each coordinate; if a backward
    step would go negative a forward difference is used.
    """
    point = np.asarray(allocation, dtype=float)
    grad = np.empty_like(point)
    for j in range(point.size):
        step = _GRADIENT_EPS * max(1.0, abs(point[j]))
        lo = point.copy()
        hi = point.copy()
        if point[j] - step >= 0.0:
            lo[j] -= step
            hi[j] += step
            grad[j] = (func(hi) - func(lo)) / (2.0 * step)
        else:
            hi[j] += step
            grad[j] = (func(hi) - func(point)) / step
    return grad
