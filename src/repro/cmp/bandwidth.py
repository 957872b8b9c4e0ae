"""Extension: memory bandwidth as a third market resource.

The paper evaluates two resources (cache, power) but the framework is
explicitly general: "as long as the resource's utility function can be
accurately modeled, and such utility function is non-decreasing,
continuous, and concave ... the results of this paper can be applied"
(Section 4.1).  Pin/DRAM bandwidth is the resource its introduction
names next to cache and power.

This module adds that third resource.  A core allocated ``b`` GB/s of
guaranteed DRAM bandwidth sees an average miss latency

    lat(b) = overhead + service / (1 - min(rho, rho_max)),
    rho    = demand(cache) / b

an M/M/1-style queueing curve: latency decreasing and convex in ``b``
(so performance is concave in it), with demand itself a function of the
cache allocation — the three resources genuinely interact.

:class:`BandwidthAwareUtility` evaluates the resulting normalized
performance over ``(extra cache, extra power, extra bandwidth)``; for
concave miss-rate curves it is concave along every axis.  Applications
with cache cliffs still need Talus on the cache axis — the utility
accepts a pre-hulled miss curve for that purpose.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utility.base import UtilityFunction
from ..utility.convex_hull import PiecewiseLinearConcave
from .config import CMPConfig
from .core_model import CoreModel
from .dram import DRAMModel

__all__ = ["BandwidthModel", "BandwidthAwareUtility", "build_bandwidth_problem"]

#: Queueing utilization cap: latency stays finite under overload.
_RHO_MAX = 0.95

#: Share of peak DRAM bandwidth handed out free, split evenly over cores.
_FREE_BANDWIDTH_FRACTION = 0.1


class BandwidthModel:
    """Per-core miss latency as a function of allocated bandwidth."""

    def __init__(self, dram: DRAMModel):
        self.dram = dram
        self._service_ns = dram.uncontended_latency_ns() - dram.controller_overhead_ns
        self._overhead_ns = dram.controller_overhead_ns

    def latency_ns(self, demand_gbps: float, allocated_gbps: float) -> float:
        """Queueing latency at a demand/allocation ratio."""
        if allocated_gbps <= 0.0:
            rho = _RHO_MAX
        else:
            rho = min(demand_gbps / allocated_gbps, _RHO_MAX)
        return self._overhead_ns + self._service_ns / (1.0 - rho)

    @property
    def min_latency_ns(self) -> float:
        return self._overhead_ns + self._service_ns


class BandwidthAwareUtility(UtilityFunction):
    """Normalized performance over (cache, power, bandwidth) extras.

    Performance solves the latency/demand fixed point at each point:
    lower latency raises performance, which raises demand, which raises
    latency — iterated a few steps (it contracts quickly because demand
    is bounded by the frequency).

    ``hulled_miss_curve`` optionally replaces the application's raw miss
    curve on the cache axis (the Talus treatment for cliffy apps).
    """

    num_resources = 3

    def __init__(
        self,
        core: CoreModel,
        bandwidth: BandwidthModel,
        config: CMPConfig,
        free_bandwidth_gbps: float,
        hulled_miss_curve: Optional[PiecewiseLinearConcave] = None,
    ):
        self.core = core
        self.bandwidth = bandwidth
        self.config = config
        self.free_bandwidth = free_bandwidth_gbps
        self.hulled_miss_curve = hulled_miss_curve
        self._min_cache = float(config.cache_region_bytes)
        self._min_power = core.min_power_watts()
        # Standalone: all monitorable cache, max frequency, min latency.
        self._alone = self._performance(
            float(config.umon_max_bytes),
            config.core.max_frequency_ghz,
            float("inf"),
        )

    def _miss_fraction(self, cache_bytes: float) -> float:
        clamped = min(cache_bytes, float(self.config.umon_max_bytes))
        if self.hulled_miss_curve is not None:
            return float(
                min(max(1.0 - self.hulled_miss_curve.value(clamped), 0.0), 1.0)
            )
        return self.core.app.mrc.miss_fraction(clamped)

    def _performance(
        self, cache_bytes: float, frequency_ghz: float, allocated_gbps: float
    ) -> float:
        app = self.core.app
        mpi = app.apki / 1000.0 * self._miss_fraction(cache_bytes)
        latency = self.bandwidth.min_latency_ns
        perf = 0.0
        for _ in range(8):  # fixed-point: latency <-> demand
            perf = 1.0 / (app.cpi_exe / frequency_ghz + mpi * latency)
            demand = perf * mpi * self.bandwidth.dram.line_bytes
            if not np.isfinite(allocated_gbps):
                break
            new_latency = self.bandwidth.latency_ns(demand, allocated_gbps)
            if abs(new_latency - latency) < 1e-6:
                latency = new_latency
                break
            latency = 0.5 * (latency + new_latency)
        return 1.0 / (app.cpi_exe / frequency_ghz + mpi * latency)

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        # The model is per point (a bisection for the frequency, then the
        # latency fixed point), so the rows loop over it.
        return np.array([self._point_value(*point) for point in points], dtype=float)

    def _point_value(self, extra_cache: float, extra_power: float, extra_bw: float) -> float:
        cache = self._min_cache + max(extra_cache, 0.0)
        frequency = self.core.frequency_for_power(self._min_power + max(extra_power, 0.0))
        bw = self.free_bandwidth + max(extra_bw, 0.0)
        return self._performance(cache, frequency, bw) / self._alone


def build_bandwidth_problem(chip):
    """A 3-resource AllocationProblem for a :class:`~repro.cmp.chip.ChipModel`.

    Resources: extra cache bytes, extra power watts, and extra DRAM
    bandwidth (GB/s) beyond a free share per core; the free shares
    together take 10% of the peak.  Every core's cache axis takes the
    chip's Talus hull of its miss curve, and its cache and power caps
    are the chip's; bandwidth is capped only by the total.
    """
    from ..core.mechanisms import AllocationProblem

    dram = chip.cores[0].dram
    bandwidth = BandwidthModel(dram)
    total_bw = dram.peak_bandwidth_gbps()
    n = chip.config.num_cores
    free_bw = _FREE_BANDWIDTH_FRACTION * total_bw / n
    extra_bw_capacity = total_bw - n * free_bw
    utilities = [
        BandwidthAwareUtility(
            core, bandwidth, chip.config, free_bw, hulled_miss_curve=chip.talus(i).hull
        )
        for i, core in enumerate(chip.cores)
    ]
    return AllocationProblem(
        utilities=utilities,
        capacities=np.array(
            [chip.extra_cache_capacity, chip.extra_power_capacity, extra_bw_capacity]
        ),
        resource_names=["cache_bytes", "power_watts", "bandwidth_gbps"],
        player_names=[app.name for app in chip.apps],
        quanta=np.array([float(chip.config.cache_region_bytes), 0.25, total_bw / 256.0]),
        per_player_caps=np.column_stack([chip.per_core_caps, np.full(n, extra_bw_capacity)]),
    )
