"""Whole-chip model: cores + shared cache + power domain.

:class:`ChipModel` ties the substrate together for one multiprogrammed
bundle: it instantiates a :class:`~repro.cmp.core_model.CoreModel` per
application, computes the free minimum allocations (one cache region and
800 MHz power per core), and exposes the market-facing
:class:`~repro.core.mechanisms.AllocationProblem` over the *remaining*
resources.  It also converts market allocations back into physical
operating points, which is what the execution-driven simulator and the
measured-efficiency metrics consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.mechanisms import AllocationProblem
from ..exceptions import MarketConfigurationError
from .application import AppProfile
from .config import CMPConfig
from .core_model import CoreModel, OperatingPoint
from .dram import DRAMModel
from .power import RAPL_QUANTUM_WATTS, DVFSPowerModel
from .utility_builder import extra_capacity_for, memoized_true_utilities

__all__ = ["ChipModel"]


@dataclass
class _FreeMinimums:
    cache_bytes: float
    power_watts: np.ndarray  # per core (activity-dependent)


class ChipModel:
    """A CMP running one application per core.

    Parameters
    ----------
    config:
        Chip configuration (8- or 64-core, Table 1).
    apps:
        One application per core; ``len(apps) == config.num_cores``.
    """

    def __init__(self, config: CMPConfig, apps: Sequence[AppProfile]):
        if len(apps) != config.num_cores:
            raise MarketConfigurationError(
                f"need exactly {config.num_cores} applications, got {len(apps)}"
            )
        self.config = config
        self.apps: List[AppProfile] = list(apps)
        power_model = DVFSPowerModel(core=config.core)
        dram = DRAMModel(channels=config.memory_channels)
        self.cores: List[CoreModel] = [
            CoreModel(app, config, power_model=power_model, dram=dram) for app in apps
        ]
        self.free = _FreeMinimums(
            cache_bytes=float(config.cache_region_bytes),
            power_watts=np.array([c.min_power_watts() for c in self.cores]),
        )

    # ------------------------------------------------------------------
    # Market-facing capacities (the "extras" beyond the free minimums)
    # ------------------------------------------------------------------

    @property
    def extra_cache_capacity(self) -> float:
        """Cache bytes left after every core's free region."""
        return float(
            self.config.l2_capacity_bytes
            - self.config.num_cores * self.config.cache_region_bytes
        )

    @property
    def extra_power_capacity(self) -> float:
        """Watts left after every core's free 800 MHz allocation."""
        return float(self.config.power_budget_watts - self.free.power_watts.sum())

    def build_problem(self, convexify: bool = True) -> AllocationProblem:
        """The 2-resource allocation problem this chip presents.

        The utilities are the *true* (phase-1, perfectly modeled) ones,
        built from the analytic core models; the execution-driven
        simulator builds its own per-epoch problem from monitored
        estimates.  Setting ``convexify=False`` keeps the raw, possibly
        cliffy cache behaviour — the Talus ablation.
        """
        if self.extra_power_capacity <= 0:
            raise MarketConfigurationError("power budget below the free minimums")
        caps = np.array(
            [extra_capacity_for(core, self.config) for core in self.cores]
        )
        return AllocationProblem(
            utilities=memoized_true_utilities(self.cores, self.config, convexify),
            capacities=np.array([self.extra_cache_capacity, self.extra_power_capacity]),
            resource_names=["cache_bytes", "power_watts"],
            player_names=[app.name for app in self.apps],
            quanta=np.array(
                [float(self.config.cache_region_bytes), RAPL_QUANTUM_WATTS]
            ),
            per_player_caps=caps,
        )

    # ------------------------------------------------------------------
    # Turning market allocations back into physical operating points
    # ------------------------------------------------------------------

    def operating_points(
        self, extra_allocations: np.ndarray, temperature_c: Optional[Sequence[float]] = None
    ) -> List[OperatingPoint]:
        """Resolve per-core extras into (cache, frequency) points.

        ``extra_allocations`` is the (N, 2) matrix a mechanism returns:
        columns are extra cache bytes and extra power watts.
        """
        extras = np.asarray(extra_allocations, dtype=float)
        if extras.shape != (self.config.num_cores, 2):
            raise MarketConfigurationError(
                f"expected ({self.config.num_cores}, 2) allocations, got {extras.shape}"
            )
        points = []
        for i, core in enumerate(self.cores):
            temp = None if temperature_c is None else temperature_c[i]
            points.append(
                core.operating_point(
                    self.free.cache_bytes + extras[i, 0],
                    core.min_power_watts(temp) + extras[i, 1],
                    temperature_c=temp,
                )
            )
        return points
