"""Parametric utility-function families.

These closed-form concave utilities serve three purposes:

* unit and property tests of the market core against functions whose
  equilibria can be reasoned about analytically;
* synthetic markets for the theory benchmarks (Zhang's ``1/sqrt(N)``
  Price-of-Anarchy scaling, Theorem 1/2 bound checks);
* the Cobb-Douglas family doubles as the model class fitted by the
  Elasticities-Proportional baseline of Zahedi & Lee, which the paper
  discusses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import UtilityFunction

__all__ = [
    "LinearUtility",
    "LogUtility",
    "PowerUtility",
    "CobbDouglasUtility",
    "SaturatingUtility",
    "AdditiveUtility",
    "ScaledUtility",
]


class LinearUtility(UtilityFunction):
    """``U(r) = sum_j w_j * r_j`` — the hardest case for proportional markets.

    Linear utilities are exactly the ``W_i`` functions used in the proof of
    Theorem 1; markets of linear players achieve the PoA bound tightly.
    """

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        self.num_resources = self.weights.size

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return points @ self.weights

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        return np.tile(self.weights, (points.shape[0], 1))

    def __repr__(self) -> str:
        return f"LinearUtility(weights={self.weights.tolist()})"


class LogUtility(UtilityFunction):
    """``U(r) = sum_j w_j * log(1 + r_j / s_j)`` — strictly concave."""

    def __init__(self, weights: Sequence[float], scales: Sequence[float] | None = None):
        self.weights = np.asarray(weights, dtype=float)
        self.scales = (
            np.ones_like(self.weights)
            if scales is None
            else np.asarray(scales, dtype=float)
        )
        if np.any(self.weights < 0) or np.any(self.scales <= 0):
            raise ValueError("weights must be >= 0 and scales > 0")
        self.num_resources = self.weights.size

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return np.sum(self.weights * np.log1p(points / self.scales), axis=-1)

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        return self.weights / (self.scales + points)

    def __repr__(self) -> str:
        return f"LogUtility(weights={self.weights.tolist()}, scales={self.scales.tolist()})"


class PowerUtility(UtilityFunction):
    """``U(r) = sum_j w_j * r_j ** a_j`` with exponents ``0 < a_j <= 1``."""

    def __init__(self, weights: Sequence[float], exponents: Sequence[float]):
        self.weights = np.asarray(weights, dtype=float)
        self.exponents = np.asarray(exponents, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if np.any(self.exponents <= 0) or np.any(self.exponents > 1):
            raise ValueError("exponents must lie in (0, 1] for concavity")
        self.num_resources = self.weights.size

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return np.sum(
            self.weights * np.power(np.maximum(points, 0.0), self.exponents), axis=-1
        )

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        r = np.maximum(points, 1e-12)
        return self.weights * self.exponents * np.power(r, self.exponents - 1.0)

    def __repr__(self) -> str:
        return f"PowerUtility(weights={self.weights.tolist()}, exponents={self.exponents.tolist()})"


class CobbDouglasUtility(UtilityFunction):
    """``U(r) = A * prod_j r_j ** e_j`` with elasticities ``e_j >= 0``.

    Concave when ``sum_j e_j <= 1``.  This is the model class assumed by
    the Elasticities-Proportional mechanism [Zahedi & Lee, ASPLOS'14];
    the paper's critique is that real cache/power utilities do not always
    curve-fit well to it.
    """

    def __init__(self, elasticities: Sequence[float], scale: float = 1.0):
        self.elasticities = np.asarray(elasticities, dtype=float)
        if np.any(self.elasticities < 0):
            raise ValueError("elasticities must be non-negative")
        if self.elasticities.sum() > 1.0 + 1e-12:
            raise ValueError("sum of elasticities must be <= 1 for concavity")
        self.scale = float(scale)
        self.num_resources = self.elasticities.size

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        r = np.maximum(points, 0.0)
        return self.scale * np.prod(np.power(r, self.elasticities), axis=-1)

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        r = np.maximum(points, 1e-12)
        u = self.scale * np.prod(np.power(r, self.elasticities), axis=-1)
        return u[:, None] * self.elasticities / r

    def __repr__(self) -> str:
        return f"CobbDouglasUtility(elasticities={self.elasticities.tolist()}, scale={self.scale})"


class SaturatingUtility(UtilityFunction):
    """``U(r) = sum_j w_j * min(r_j, cap_j) / cap_j`` — ramps then saturates.

    Piecewise-linear concave.  This is the shape of a *convexified*
    working-set cliff (what Talus produces for an mcf-like application),
    so it appears frequently in tests.
    """

    def __init__(self, weights: Sequence[float], caps: Sequence[float]):
        self.weights = np.asarray(weights, dtype=float)
        self.caps = np.asarray(caps, dtype=float)
        if np.any(self.caps <= 0):
            raise ValueError("caps must be positive")
        self.num_resources = self.weights.size

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return np.sum(self.weights * np.minimum(points, self.caps) / self.caps, axis=-1)

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        return np.where(points < self.caps, self.weights / self.caps, 0.0)

    def __repr__(self) -> str:
        return f"SaturatingUtility(weights={self.weights.tolist()}, caps={self.caps.tolist()})"


class AdditiveUtility(UtilityFunction):
    """Sum of independent single-resource utilities, one per resource.

    Composes 1-D utilities (e.g. a tabulated cache curve and an analytic
    power curve) into one multi-resource player utility.
    """

    def __init__(self, components: Sequence[UtilityFunction]):
        for c in components:
            if c.num_resources != 1:
                raise ValueError("AdditiveUtility components must be single-resource")
        self.components = list(components)
        self.num_resources = len(self.components)

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        total = np.zeros(points.shape[0])
        for j, component in enumerate(self.components):
            total = total + component.value_batch(points[:, j : j + 1])
        return total

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        columns = [
            component.gradient_batch(points[:, j : j + 1])[:, 0]
            for j, component in enumerate(self.components)
        ]
        return np.stack(columns, axis=1)

    def __repr__(self) -> str:
        return f"AdditiveUtility({self.components!r})"


class ScaledUtility(UtilityFunction):
    """``U(r) = scale * inner(r) + offset`` — affine wrapper.

    Used for normalizing utilities (e.g. to IPC_alone) without touching the
    wrapped implementation; preserves concavity for ``scale >= 0``.
    """

    def __init__(self, inner: UtilityFunction, scale: float = 1.0, offset: float = 0.0):
        if scale < 0:
            raise ValueError("scale must be non-negative to preserve concavity")
        self.inner = inner
        self.scale = float(scale)
        self.offset = float(offset)
        self.num_resources = inner.num_resources

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return self.scale * self.inner.value_batch(points) + self.offset

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        return self.scale * self.inner.gradient_batch(points)

    def __repr__(self) -> str:
        return f"ScaledUtility({self.inner!r}, scale={self.scale}, offset={self.offset})"
