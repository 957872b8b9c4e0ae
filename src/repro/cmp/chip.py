"""Whole-chip model: cores + shared cache + power domain.

:class:`ChipModel` ties the substrate together for one multiprogrammed
bundle: it instantiates a :class:`~repro.cmp.core_model.CoreModel` per
application, computes the free minimum allocations (one cache region and
800 MHz power per core) and the per-core caps on extras, and is the one
assembler of the market-facing
:class:`~repro.core.mechanisms.AllocationProblem` over the *remaining*
resources, whichever utilities the market bids with.  It also converts
market allocations back into physical operating points, which is what
the execution-driven simulator and the measured-efficiency metrics
consume.  A chip is never mutated: a context switch is
:meth:`ChipModel.with_app`, a new chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.mechanisms import AllocationProblem
from ..exceptions import MarketConfigurationError
from ..utility.base import UtilityFunction
from .application import AppProfile
from .config import CMPConfig
from .core_model import CoreModel, OperatingPoint
from .dram import DRAMModel
from .power import RAPL_QUANTUM_WATTS, DVFSPowerModel
from .talus import TalusController
from .utility_builder import memoized_true_utilities

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
        #: ``(N, 2)`` caps on each core's purchasable extras (read-only):
        #: cache beyond 2 MB total (UMON's limit, footnote 3) and power
        #: beyond the 4 GHz draw yield no utility.
        self.per_core_caps = np.column_stack([
            np.full(len(self.cores), float(config.umon_max_bytes - config.cache_region_bytes)),
            np.array([c.max_power_watts() for c in self.cores]) - self.free.power_watts,
        ])
        self.per_core_caps.flags.writeable = False
        self._talus: List[Optional[TalusController]] = [None] * len(self.cores)

    def with_app(self, core_index: int, app: AppProfile) -> "ChipModel":
        """This chip with ``app`` on core ``core_index`` (a context switch).

        A Talus controller depends only on its core's application, so
        the other cores' controllers carry over.
        """
        apps = list(self.apps)
        apps[core_index] = app
        chip = ChipModel(self.config, apps)
        chip._talus[:] = self._talus
        chip._talus[core_index] = None
        return chip

    def talus(self, core_index: int) -> TalusController:
        """Talus over core ``core_index``'s hit curve, built on first use.

        The curve is sampled at every whole region up to UMON's limit;
        its hull is the cache behaviour shadow partitioning realizes.
        """
        if self._talus[core_index] is None:
            sizes = np.arange(1, self.config.umon_max_regions + 1) * float(
                self.config.cache_region_bytes
            )
            mrc = self.apps[core_index].mrc
            hits = np.array([1.0 - mrc.miss_fraction(s) for s in sizes])
            self._talus[core_index] = TalusController(sizes, hits)
        return self._talus[core_index]

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

    def allocation_problem(
        self, utilities: List[UtilityFunction], power_quantum: float
    ) -> AllocationProblem:
        """The 2-resource market over this chip's extras, one player per core.

        ``utilities[i]`` is core ``i``'s utility over (extra cache bytes,
        extra power watts); the lattice quanta are one cache region and
        ``power_quantum`` watts.
        """
        power_capacity = self.extra_power_capacity
        if power_capacity <= 0:
            raise MarketConfigurationError("power budget below the free minimums")
        return AllocationProblem(
            utilities=utilities,
            capacities=np.array([self.extra_cache_capacity, power_capacity]),
            resource_names=["cache_bytes", "power_watts"],
            player_names=[app.name for app in self.apps],
            quanta=np.array([float(self.config.cache_region_bytes), power_quantum]),
            per_player_caps=self.per_core_caps,
        )

    def build_problem(self, convexify: bool = True) -> AllocationProblem:
        """The phase-1 problem: true utilities at the RAPL power quantum.

        The utilities are the *true* (perfectly modeled) ones, built
        from the analytic core models.  Setting ``convexify=False`` keeps
        the raw, possibly cliffy cache behaviour — the Talus ablation.
        """
        return self.allocation_problem(
            memoized_true_utilities(self.cores, self.config, convexify), RAPL_QUANTUM_WATTS
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
