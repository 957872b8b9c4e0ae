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
import functools
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "UtilityFunction",
    "EvalCounters",
    "EVAL_COUNTERS",
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

    * ``batch_value_calls`` / ``batch_gradient_calls`` — one per group,
      however many rows it covers; nested dispatches inside that group's
      body (numeric-gradient probes, the components of a wrapper
      utility) are not counted again.
    * ``batch_points`` — rows covered by those dispatches.  A Jacobi
      equilibrium search and envy scoring dispatch one row per player
      class (:func:`~repro.utility.batch.player_classes`), not per
      player, so classmates count once.

    Evaluations made outside an evaluator (direct ``value`` /
    ``value_batch`` calls, scalar reference seams) are not counted.
    MaxEfficiency's eager table fills go through a one-utility
    evaluator and are counted; its lazy fills (one ``value`` per entry
    of a large box, on first read) are not, and neither are tables it
    reuses from its memo.
    Counters are per-process (each :class:`~repro.exec.SweepExecutor`
    worker tallies its own) and are never consulted by the allocation
    logic, so they cannot affect results.
    """

    __slots__ = ("batch_value_calls", "batch_gradient_calls", "batch_points")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.batch_value_calls = 0
        self.batch_gradient_calls = 0
        self.batch_points = 0

    def snapshot(self) -> Dict[str, int]:
        """The current tallies as a plain dict (JSON-ready)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Per-field deltas accumulated after ``snapshot`` was taken.

        The returned dict additionally carries ``batch_calls`` /
        ``total_calls`` roll-ups, and ``scalar_value_calls`` /
        ``scalar_gradient_calls`` / ``scalar_calls``, always 0: every
        utility evaluates through its batch body, and those keys stay for
        readers of older tallies (perfbench's ``utility.scalar_calls``,
        the tallies recorded in ``climb_reference.json``).
        """
        delta = {
            name: getattr(self, name) - snapshot.get(name, 0)
            for name in self.__slots__
        }
        delta.update(scalar_value_calls=0, scalar_gradient_calls=0, scalar_calls=0)
        delta["batch_calls"] = (
            delta["batch_value_calls"] + delta["batch_gradient_calls"]
        )
        delta["total_calls"] = delta["batch_calls"]
        return delta


#: Process-global tally the batched evaluator increments.  A plain
#: attribute-bearing object (not a dict) so the hot path pays one
#: attribute add per event.
EVAL_COUNTERS = EvalCounters()


class UtilityFunction(abc.ABC):
    """A concave, non-decreasing, continuous utility over M resources.

    A subclass implements one body, :meth:`_value_batch`, over a
    ``(K, num_resources)`` batch; :meth:`_gradient_batch` defaults to the
    numeric differentiator over it, and subclasses with analytic
    derivatives override it.  The scalar :meth:`value` and
    :meth:`gradient` are one-row batches of those bodies.
    """

    #: Number of resources this utility is defined over.
    num_resources: int = 1

    @abc.abstractmethod
    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        """Utilities of an already validated ``(K, num_resources)`` float matrix."""

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        """Marginals of a validated batch: central differences by default."""
        return numeric_gradient_batch(self._value_batch, points)

    def value_batch(self, allocations: np.ndarray) -> np.ndarray:
        """Utilities of a ``(K, num_resources)`` batch of allocations.

        Returns a ``(K,)`` vector.  This is the one batched entry point:
        it validates the shape, then runs :meth:`_value_batch`.
        """
        return self._value_batch(_as_point_matrix(allocations, self.num_resources))

    def gradient_batch(self, allocations: np.ndarray) -> np.ndarray:
        """Per-resource marginals of a ``(K, num_resources)`` batch.

        Returns a ``(K, num_resources)`` matrix; validates like
        :meth:`value_batch`, then runs :meth:`_gradient_batch`.
        """
        return self._gradient_batch(_as_point_matrix(allocations, self.num_resources))

    def value(self, allocation: Sequence[float]) -> float:
        """The utility of one ``allocation`` (length ``num_resources``)."""
        return self.value_batch(np.reshape(allocation, (1, -1))).item()

    def gradient(self, allocation: Sequence[float]) -> np.ndarray:
        """The ``(num_resources,)`` marginal utilities at one ``allocation``."""
        return self.gradient_batch(np.reshape(allocation, (1, -1)))[0]

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


def numeric_gradient_batch(value_batch, points: np.ndarray) -> np.ndarray:
    """Central-difference gradients of ``value_batch`` at a ``(K, M)`` batch.

    Steps are scaled to the magnitude of each coordinate
    (``1e-6 * max(1, |r_j|)``), so the differentiator behaves sensibly
    for resources measured in bytes (~1e6) and in watts (~1e0) alike.
    Coordinates are clamped at zero: where a backward step would go
    negative, a forward difference from the point itself is used.  All
    ``2 * K * M`` probe points are evaluated in a single ``value_batch``
    dispatch, and row ``k`` depends on row ``k`` of ``points`` alone.
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
    probes = np.where(_own_dim(n_dims), moved, points)       # (M, 2, K, M)
    values = np.asarray(value_batch(probes.reshape(-1, n_dims)), dtype=float)
    values = values.reshape(n_dims, 2, n_points)
    return np.divide(
        (values[:, 0] - values[:, 1]).T,
        np.where(forward, steps, 2.0 * steps),
        out=np.empty_like(points),
    )


@functools.lru_cache(maxsize=None)
def _own_dim(n_dims: int) -> np.ndarray:
    """The read-only ``(M, 1, 1, M)`` mask of each probe block's moved coordinate."""
    mask = np.eye(n_dims, dtype=bool)[:, None, None, :]
    mask.flags.writeable = False
    return mask
