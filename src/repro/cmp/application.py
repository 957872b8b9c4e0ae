"""Synthetic application models.

The paper profiles 24 SPEC 2000/2006 applications on a detailed
simulator.  We replace the binaries with parametric models that expose
exactly the properties the allocation layer depends on:

* a **miss-rate curve** (MRC): the fraction of L2 accesses that miss as
  a function of the partition size.  The shapes match the paper's
  published observations — smoothly concave utility (*vpr*), a sharp
  working-set cliff (*mcf*: flat at ~0.2 of standalone IPC until its
  1.5 MB working set fits, then jumping to 1.0), and cache-insensitive
  streaming behaviour;
* a compute CPI and an L2 access intensity (APKI), which together with
  the MRC and the DRAM latency determine performance via the paper's
  compute-phase + memory-phase decomposition;
* a dynamic-power **activity factor** for the DVFS model;
* optional **phases** that modulate these parameters over time in the
  execution-driven simulator.

Applications also know how to sample LRU stack distances consistent
with their MRC, which is what feeds the UMON shadow-tag monitor.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .config import MB

__all__ = [
    "MissRateCurve",
    "PowerLawMRC",
    "CliffMRC",
    "FlatMRC",
    "MixtureMRC",
    "Phase",
    "AppProfile",
]


class MissRateCurve(abc.ABC):
    """Miss fraction of L2 accesses as a function of partition bytes."""

    @abc.abstractmethod
    def miss_fraction(self, size_bytes: float) -> float:
        """Fraction of accesses missing in a partition of ``size_bytes``."""

    @property
    @abc.abstractmethod
    def floor(self) -> float:
        """Compulsory miss fraction (misses no cache size removes)."""

    @property
    @abc.abstractmethod
    def ceiling(self) -> float:
        """Miss fraction at (near-)zero capacity."""

    def survival(self, size_bytes: float) -> float:
        """P(stack distance > size) for capacity-sensitive accesses.

        Normalizes the MRC into the reuse-distance survival function
        that an LRU stack-distance monitor observes: 1 at size 0,
        approaching 0 once the whole reuse footprint fits.
        """
        span = self.ceiling - self.floor
        if span <= 0.0:
            return 0.0
        value = (self.miss_fraction(size_bytes) - self.floor) / span
        return float(min(max(value, 0.0), 1.0))

    def survival_table(self, max_bytes: float = 8 * MB) -> "tuple[np.ndarray, np.ndarray]":
        """Tabulated survival function on a size grid (for fast sampling).

        Returns ``(sizes, survival)`` with 512 sizes from 0 to
        ``max_bytes`` and the survival values made strictly
        non-increasing (tiny numerical wiggles are flattened) so the
        inverse is well defined.  Curves are immutable, so tables are
        memoized per curve, read-only.
        """
        tables = vars(self).setdefault("_survival_tables", {})
        if max_bytes not in tables:
            sizes = np.linspace(0.0, max_bytes, 512)
            surv = np.minimum.accumulate(np.array([self.survival(s) for s in sizes]))
            sizes.flags.writeable = surv.flags.writeable = False
            tables[max_bytes] = (sizes, surv)
        return tables[max_bytes]

    def sample_stack_distances(
        self,
        rng: np.random.Generator,
        count: int,
        table: "tuple[np.ndarray, np.ndarray] | None" = None,
        keep: slice = slice(None),
    ) -> np.ndarray:
        """Draw ``count`` stack distances (bytes) by inverse-CDF sampling.

        The access population has three parts, so that the fraction of
        distances exceeding ``s`` equals the absolute miss fraction
        ``m(s)``: a ``floor`` fraction of compulsory misses (infinite
        distance), a ``1 - ceiling`` fraction that hits at any size
        (distance 0), and the capacity-sensitive remainder drawn by
        inverting the (tabulated) survival function, by default the 8 MB
        :meth:`survival_table`.  Pass a precomputed ``table`` to amortize
        the tabulation across epochs or to tabulate another range.

        Only the draws at ``keep`` are mapped and returned, bitwise as in
        a full draw: all ``count`` uniforms are still drawn, and the map
        is elementwise.
        """
        if self.ceiling <= 0.0:
            # The application never misses: all reuses are tiny.
            return np.zeros(count)[keep]
        if table is None:
            table = self.survival_table()
        sizes, surv = table
        uniforms = rng.random(count)[keep]
        out = np.zeros(uniforms.size)  # the "always hit" mass keeps distance 0
        compulsory = uniforms < self.floor
        out[compulsory] = np.inf
        sensitive = (~compulsory) & (uniforms < self.ceiling)
        if np.any(sensitive):
            # Re-scale onto the capacity-sensitive portion; survival
            # decreases from 1 to ~0, so invert on the reversed table.
            span = max(self.ceiling - self.floor, 1e-12)
            targets = 1.0 - (uniforms[sensitive] - self.floor) / span
            drawn = np.interp(-targets, -surv, sizes)
            beyond = targets < surv[-1]
            out[sensitive] = np.where(beyond, np.inf, drawn)
        return out


@dataclass(frozen=True)
class PowerLawMRC(MissRateCurve):
    """Smoothly decaying MRC: ``m(s) = floor + span / (1 + s/s_half)^gamma``.

    Produces the concave, diminishing-returns utility of applications
    like *vpr* in Figure 2.
    """

    ceiling_value: float
    floor_value: float
    s_half_bytes: float
    gamma: float = 1.0

    def miss_fraction(self, size_bytes: float) -> float:
        span = self.ceiling_value - self.floor_value
        return self.floor_value + span / (1.0 + max(size_bytes, 0.0) / self.s_half_bytes) ** self.gamma

    @property
    def floor(self) -> float:
        return self.floor_value

    @property
    def ceiling(self) -> float:
        return self.ceiling_value


@dataclass(frozen=True)
class CliffMRC(MissRateCurve):
    """Working-set cliff: high misses until ``ws_bytes`` fits, then a drop.

    The logistic sharpness controls how abrupt the cliff is; *mcf*'s
    1.5 MB working set uses a sharp one (Figure 2 shows its utility flat
    at ~0.2 through 10 ways and jumping to 1.0 at 12 ways).
    """

    ceiling_value: float
    floor_value: float
    ws_bytes: float
    sharpness: float = 12.0

    def miss_fraction(self, size_bytes: float) -> float:
        span = self.ceiling_value - self.floor_value
        x = (max(size_bytes, 0.0) - self.ws_bytes) / (self.ws_bytes / self.sharpness)
        return self.floor_value + span / (1.0 + math.exp(min(max(x, -40.0), 40.0)))

    @property
    def floor(self) -> float:
        return self.floor_value

    @property
    def ceiling(self) -> float:
        # The logistic never quite reaches the ceiling at size 0; report
        # the actual value so survival() normalizes correctly.
        return self.miss_fraction(0.0)


@dataclass(frozen=True)
class FlatMRC(MissRateCurve):
    """Cache-insensitive MRC (streaming or L1-resident applications)."""

    value: float

    def miss_fraction(self, size_bytes: float) -> float:
        return self.value

    @property
    def floor(self) -> float:
        return self.value

    @property
    def ceiling(self) -> float:
        return self.value


@dataclass(frozen=True)
class MixtureMRC(MissRateCurve):
    """Weighted mixture of MRCs (multi-working-set applications)."""

    components: tuple
    weights: tuple

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be non-empty and equal length")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError("weights must sum to 1")

    def miss_fraction(self, size_bytes: float) -> float:
        return sum(
            w * c.miss_fraction(size_bytes)
            for c, w in zip(self.components, self.weights)
        )

    @property
    def floor(self) -> float:
        return sum(w * c.floor for c, w in zip(self.components, self.weights))

    @property
    def ceiling(self) -> float:
        return sum(w * c.ceiling for c, w in zip(self.components, self.weights))


@dataclass(frozen=True)
class Phase:
    """A program phase: multiplicative shifts on the base parameters.

    The execution-driven simulator cycles through phases to exercise the
    1 ms re-allocation loop (context switches and phase changes are the
    reason the paper re-runs the market at all).
    """

    duration_ms: float
    apki_scale: float = 1.0
    cpi_scale: float = 1.0
    activity_scale: float = 1.0


@dataclass(frozen=True)
class AppProfile:
    """Everything the substrate knows about one application.

    Attributes
    ----------
    name / suite:
        Identification (e.g. ``mcf`` / ``spec2000``).
    cpi_exe:
        Compute-phase cycles per instruction (no L2 misses).
    apki:
        L2 accesses per kilo-instruction (i.e. L1 misses reaching L2).
    mrc:
        Miss-rate curve over the L2 partition size.
    activity:
        Dynamic-power activity factor (1.0 = fully active pipeline).
    phases:
        Optional phase list for the execution-driven simulator; empty
        means stationary behaviour.
    """

    name: str
    suite: str
    cpi_exe: float
    apki: float
    mrc: MissRateCurve
    activity: float = 1.0
    phases: tuple = ()

    def misses_per_instruction(self, cache_bytes: float) -> float:
        """L2 misses per instruction at a partition size."""
        return self.apki / 1000.0 * self.mrc.miss_fraction(cache_bytes)
