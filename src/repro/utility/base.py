"""Utility-function framework.

The market framework of Section 2 of the paper assumes each player has a
utility function ``U_i(r_i)`` over a vector of resource allocations that is
concave, non-decreasing, and continuous.  This module defines the abstract
interface every utility implementation in this package satisfies, plus
the numeric gradients shared by the parametric and tabulated
implementations.

A :class:`UtilityFunction` maps an allocation vector ``r`` (one entry per
resource, in resource units such as bytes of cache or watts of power) to a
scalar utility.  In the multicore instantiation utilities are normalized
IPC, so values lie in ``[0, 1]``, but the core market code never relies on
that range.
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "UtilityFunction",
    "EvalCounters",
    "EVAL_COUNTERS",
    "numeric_gradient",
    "numeric_gradient_batch",
]

#: Relative step used by the numeric differentiator.
_GRADIENT_EPS = 1e-6


class EvalCounters:
    """Running tally of utility-layer evaluations made by the market stack.

    The equilibrium search snapshots these around every run so
    :class:`~repro.core.equilibrium.EquilibriumResult` can report how many
    utility evaluations the search cost — benches and profilers read the
    result instead of monkeypatching the utility classes.

    :meth:`BatchedUtilitySet._dispatch
    <repro.utility.batch.BatchedUtilitySet._dispatch>`, in its per-group
    step ``_group_eval``, is the one place that counts, once per group it
    dispatches to:

    * ``batch_value_calls`` / ``batch_gradient_calls`` — one per group
      with a vectorized body (a stacked-grid group, or a utility with a
      ``_value_batch`` / ``_gradient_batch`` body), however many rows it
      covers; nested dispatches inside that body (numeric-gradient
      probes, the components of a wrapper utility) are not counted again.
    * ``batch_points`` — rows covered by those vectorized dispatches.
    * ``scalar_value_calls`` / ``scalar_gradient_calls`` — one per row
      of a group with no vectorized body, which loops the scalar method.

    Evaluations made outside an evaluator (direct ``value`` /
    ``value_batch`` calls, scalar reference seams) are not counted.
    Counters are per-process (each :class:`~repro.exec.SweepExecutor`
    worker tallies its own) and are never consulted by the allocation
    logic, so they cannot affect results.
    """

    __slots__ = (
        "scalar_value_calls",
        "scalar_gradient_calls",
        "batch_value_calls",
        "batch_gradient_calls",
        "batch_points",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.scalar_value_calls = 0
        self.scalar_gradient_calls = 0
        self.batch_value_calls = 0
        self.batch_gradient_calls = 0
        self.batch_points = 0

    def snapshot(self) -> Dict[str, int]:
        """The current tallies as a plain dict (JSON-ready)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Per-field deltas accumulated after ``snapshot`` was taken.

        The returned dict additionally carries ``scalar_calls`` /
        ``batch_calls`` / ``total_calls`` roll-ups.
        """
        delta = {
            name: getattr(self, name) - snapshot.get(name, 0)
            for name in self.__slots__
        }
        delta["scalar_calls"] = (
            delta["scalar_value_calls"] + delta["scalar_gradient_calls"]
        )
        delta["batch_calls"] = (
            delta["batch_value_calls"] + delta["batch_gradient_calls"]
        )
        delta["total_calls"] = delta["scalar_calls"] + delta["batch_calls"]
        return delta


#: Process-global tally the batched evaluator increments.  A plain
#: attribute-bearing object (not a dict) so the hot path pays one
#: attribute add per event.
EVAL_COUNTERS = EvalCounters()


class UtilityFunction(abc.ABC):
    """A concave, non-decreasing, continuous utility over M resources.

    Subclasses must implement :meth:`value`; :meth:`gradient` has a numeric
    default that subclasses with analytic derivatives should override.
    """

    #: Number of resources this utility is defined over.
    num_resources: int = 1

    @abc.abstractmethod
    def value(self, allocation: Sequence[float]) -> float:
        """Return the utility of ``allocation`` (length ``num_resources``)."""

    def gradient(self, allocation: Sequence[float]) -> np.ndarray:
        """Return the marginal utility of each resource at ``allocation``.

        The default implementation is a central finite difference that
        falls back to one-sided differences at the domain boundary (we
        never evaluate at negative allocations).
        """
        return numeric_gradient(self.value, allocation)

    def marginal(self, allocation: Sequence[float], resource: int) -> float:
        """Marginal utility of a single ``resource`` at ``allocation``."""
        return float(self.gradient(allocation)[resource])

    #: Optional vectorized bodies.  A subclass whose array arithmetic
    #: mirrors its scalar methods bitwise defines ``_value_batch(points)``
    #: / ``_gradient_batch(points)``, taking an already validated
    #: ``(K, num_resources)`` float matrix; ``None`` selects the scalar loop.
    _value_batch = None
    _gradient_batch = None

    def value_batch(self, allocations: np.ndarray) -> np.ndarray:
        """Utilities of a ``(K, num_resources)`` batch of allocations.

        Returns a ``(K,)`` vector; point ``k`` equals
        ``value(allocations[k])`` exactly.  This is the one batched entry
        point: it validates the shape, then runs :attr:`_value_batch` or,
        without one, loops the scalar method.
        """
        points = _as_point_matrix(allocations, self.num_resources)
        if self._value_batch is None:
            return np.array([self.value(p) for p in points], dtype=float)
        return self._value_batch(points)

    def gradient_batch(self, allocations: np.ndarray) -> np.ndarray:
        """Per-resource marginals of a ``(K, num_resources)`` batch.

        Returns a ``(K, num_resources)`` matrix; row ``k`` equals
        ``gradient(allocations[k])`` exactly.  Validates like
        :meth:`value_batch`; without a :attr:`_gradient_batch` body it
        loops the scalar method, so every subclass — including external
        ones that only implement the scalar interface — is batch-callable.
        """
        points = _as_point_matrix(allocations, self.num_resources)
        if self._gradient_batch is None:
            if points.shape[0] == 0:
                return np.zeros_like(points)
            return np.stack([np.asarray(self.gradient(p), dtype=float) for p in points])
        return self._gradient_batch(points)

    def __call__(self, allocation: Sequence[float]) -> float:
        return self.value(allocation)


def _as_point_matrix(allocations: np.ndarray, num_resources: int) -> np.ndarray:
    """Validate a batched-evaluation input as a ``(K, M)`` float matrix."""
    points = np.asarray(allocations, dtype=float)
    if points.ndim != 2 or points.shape[1] != num_resources:
        raise ValueError(
            f"batched evaluation expects a (K, {num_resources}) matrix, "
            f"got shape {points.shape}"
        )
    return points


def numeric_gradient(func, allocation: Sequence[float]) -> np.ndarray:
    """Central-difference gradient of ``func`` at ``allocation``.

    Steps are scaled to the magnitude of each coordinate so that the
    differentiator behaves sensibly for resources measured in bytes
    (~1e6) and in watts (~1e0) alike.  Coordinates are clamped at zero:
    if a backward step would go negative we use a forward difference.
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


def numeric_gradient_batch(value_batch, points: np.ndarray) -> np.ndarray:
    """Vectorized central-difference gradients at a ``(K, M)`` batch.

    Mirrors :func:`numeric_gradient` coordinate for coordinate — the same
    relative step, the same forward-difference fallback at the zero
    boundary, the same operation order — so the batched gradients agree
    bitwise with the scalar ones whenever ``value_batch`` agrees bitwise
    with the scalar ``value``.  All ``2 * K * M`` probe points are
    evaluated in a single ``value_batch`` dispatch.
    """
    points = np.asarray(points, dtype=float)
    n_points, n_dims = points.shape
    if n_points == 0:
        return np.zeros_like(points)
    steps = _GRADIENT_EPS * np.maximum(1.0, np.abs(points))  # (K, M)
    forward = points - steps < 0.0                           # (K, M)
    # Probe layout: for each dim j, K hi-points then K lo-points.  Probe
    # coordinate j is moved, every other coordinate keeps the point's
    # own bits; the lo-point of a forward-difference coordinate is the
    # point itself.
    moved = np.empty((2, n_points, n_dims), dtype=float)
    np.add(points, steps, out=moved[0])
    np.subtract(points, np.where(forward, 0.0, steps), out=moved[1])
    own_dim = np.eye(n_dims, dtype=bool)[:, None, None, :]
    probes = np.where(own_dim, moved, points)                # (M, 2, K, M)
    values = np.asarray(value_batch(probes.reshape(-1, n_dims)), dtype=float)
    values = values.reshape(n_dims, 2, n_points)
    return np.divide(
        (values[:, 0] - values[:, 1]).T,
        np.where(forward, steps, 2.0 * steps),
        out=np.empty_like(points),
    )
