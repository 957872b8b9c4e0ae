"""The execution-driven CMP simulator (the paper's phase-2 evaluation).

This is the SESC-substitute: a discrete-epoch simulation of a chip
multiprocessor in which

* every core runs its application through cyclic program phases;
* UMON shadow tags sample the (synthetic) access stream and produce
  noisy online miss-curve estimates;
* the allocation mechanism (EqualBudget, ReBudget, ...) re-runs every
  1 ms epoch on the *monitored* utilities, exactly as Section 4.3
  piggybacks the market on the kernel's timer interrupt — warm-started
  from the previous epoch's equilibrium bids, and re-searched from
  scratch whenever a context switch replaces a market player;
* Futility Scaling slews the physical cache partitions toward the
  market's targets with finite eviction bandwidth;
* per-core DVFS resolves purchased watts into frequency, with static
  power riding on an RC thermal model (HotSpot-style);
* DRAM channel contention feeds back into next epoch's miss latency.

Performance is *measured* by retiring instructions at the operating
points the hardware actually reached — not at the points the market
believed in — which is what separates Figure 5 from Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cmp.chip import ChipModel
from ..cmp.config import CMPConfig
from ..cmp.futility import FutilityScalingController
from ..cmp.monitor import RuntimeMonitor, estimated_utilities
from ..cmp.thermal import ThermalModel
from ..cmp.utility_builder import memoized_true_utilities
from ..core.mechanisms import AllocationMechanism
from ..core.metrics import envy_freeness
from .phases import PhaseTracker
from .trace import EpochRecord, SimulationTrace

__all__ = [
    "POWER_QUANTUM_WATTS",
    "ContextSwitch",
    "SimulationConfig",
    "SimulationResult",
    "ExecutionDrivenSimulator",
]

#: Power quantum of the per-epoch problems, for mechanisms that search
#: on a lattice (MaxEfficiency); coarser than the 0.125 W RAPL unit to
#: keep per-epoch cost sane.
POWER_QUANTUM_WATTS = 0.5


@dataclass(frozen=True)
class ContextSwitch:
    """Replace the application on one core at a given time.

    Context switches are the paper's stated reason (Section 4.3) for
    re-running the market every millisecond: the demand profile of a
    core changes instantly, and the monitors must re-learn it.
    """

    time_ms: float
    core_index: int
    app: object  # AppProfile


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    duration_ms: float = 30.0
    epoch_ms: float = 1.0
    #: Use runtime monitors (phase 2).  False runs the market on the
    #: true analytic utilities — useful to isolate monitoring noise.
    use_monitors: bool = True
    #: Re-run the allocation mechanism every this many epochs.
    reallocation_period_epochs: int = 1
    #: Per-core instruction rate assumed for stream synthesis is derived
    #: from the model; this seed drives all monitoring noise.
    seed: int = 1
    #: Scheduled context switches (see :class:`ContextSwitch`).
    context_switches: tuple = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.epoch_ms) or self.epoch_ms <= 0.0:
            raise ValueError(f"epoch_ms must be positive, got {self.epoch_ms!r}")
        if not np.isfinite(self.duration_ms) or self.duration_ms <= 0.0:
            raise ValueError(f"duration_ms must be positive, got {self.duration_ms!r}")
        if self.num_epochs < 1:
            raise ValueError(
                f"duration_ms={self.duration_ms!r} rounds to zero epochs of "
                f"epoch_ms={self.epoch_ms!r}; utilities would be 0/0"
            )
        if self.reallocation_period_epochs < 1:
            raise ValueError(
                "reallocation_period_epochs must be >= 1, got "
                f"{self.reallocation_period_epochs!r}"
            )

    @property
    def num_epochs(self) -> int:
        """Epochs in one run; guaranteed >= 1 by construction."""
        return int(round(self.duration_ms / self.epoch_ms))


@dataclass
class SimulationResult:
    """Measured outcome of one run (what Figure 5 plots)."""

    mechanism: str
    trace: SimulationTrace
    utilities: np.ndarray          # measured: instr / standalone instr
    alone_instructions: np.ndarray
    envy_freeness: float
    converged_fraction: float

    @property
    def efficiency(self) -> float:
        """Measured weighted speedup (Equation 5 over retired instructions)."""
        return float(self.utilities.sum())

    @property
    def mean_market_iterations(self) -> float:
        iters = self.trace.market_iterations()
        return float(np.mean(iters)) if iters else 0.0


class ExecutionDrivenSimulator:
    """Simulates one mechanism on one chip/bundle combination.

    Every :meth:`run` starts from ``chip``; a context switch replaces the
    run's chip with :meth:`ChipModel.with_app
    <repro.cmp.chip.ChipModel.with_app>`, so ``chip`` itself never
    changes and a second run repeats the first.
    """

    def __init__(
        self,
        chip: ChipModel,
        mechanism: AllocationMechanism,
        config: Optional[SimulationConfig] = None,
    ):
        self.chip = chip
        self.mechanism = mechanism
        self.config = config or SimulationConfig()
        self.num_cores = chip.config.num_cores
        for switch in self.config.context_switches:
            if not 0 <= switch.core_index < self.num_cores:
                raise ValueError(f"context switch core {switch.core_index} out of range")

    def run(self) -> SimulationResult:
        cfg = self.config
        chip = self.chip
        chip_cfg: CMPConfig = chip.config
        n = self.num_cores
        rng = np.random.default_rng(cfg.seed)
        pending_switches = sorted(cfg.context_switches, key=lambda s: s.time_ms)
        # A fresh run must not inherit equilibrium state from a previous
        # run of the same mechanism instance (possibly on another chip).
        self.mechanism.reset_warm_state()

        # Program phases are measured from each application's arrival.
        trackers = [PhaseTracker(app) for app in chip.apps]
        arrival_ms = [0.0] * n
        monitors = [
            RuntimeMonitor(core, chip_cfg, rng=np.random.default_rng(rng.integers(2**32)))
            for core in chip.cores
        ]
        futility = FutilityScalingController(
            capacity_bytes=chip_cfg.l2_capacity_bytes, num_partitions=n
        )
        thermal = ThermalModel(n)
        dram = chip.cores[0].dram
        dram_latency = dram.uncontended_latency_ns()

        region = float(chip_cfg.cache_region_bytes)
        monitor_cap = float(chip_cfg.umon_max_bytes)
        # Equal shares until the first market run.
        extras = np.tile(
            [chip.extra_cache_capacity / n, chip.extra_power_capacity / n], (n, 1)
        )
        trace = SimulationTrace()
        converged_epochs = 0
        market_epochs = 0
        alone = np.zeros(n)

        # Warm-up: let the monitors see one epoch of execution at the
        # equal-share allocation before the first market run.
        if cfg.use_monitors:
            for i, core in enumerate(chip.cores):
                f = core.frequency_for_power(core.min_power_watts() + extras[i, 1])
                perf = core.performance_gips(
                    region + extras[i, 0], f, latency_ns=dram_latency
                )
                monitors[i].observe_epoch(perf * cfg.epoch_ms * 1e6)

        num_epochs = cfg.num_epochs
        alloc_result = None
        for epoch in range(num_epochs):
            time_ms = epoch * cfg.epoch_ms
            while pending_switches and pending_switches[0].time_ms <= time_ms + 1e-9:
                switch = pending_switches.pop(0)
                i = switch.core_index
                chip = chip.with_app(i, switch.app)
                trackers[i] = PhaseTracker(switch.app)
                arrival_ms[i] = time_ms
                # Fresh monitors: the shadow tags know nothing about the
                # incoming application and must re-learn its miss curve.
                monitors[i] = RuntimeMonitor(
                    chip.cores[i], chip_cfg, rng=np.random.default_rng(rng.integers(2**32))
                )
                # The switched core's market player changed identity:
                # its carried bids describe the departed application, so
                # the market re-searches from scratch, and it runs this
                # epoch even between the scheduled market epochs of
                # reallocation_period_epochs (Section 4.3: the incoming
                # application must not execute under the departed one's
                # allocation).
                self.mechanism.reset_warm_state()
                alloc_result = None
            states = [
                tracker.state_at(max(time_ms - arrived, 0.0))
                for tracker, arrived in zip(trackers, arrival_ms)
            ]

            # (1) Allocation: re-run the market on monitored utilities.
            if epoch % cfg.reallocation_period_epochs == 0 or alloc_result is None:
                if cfg.use_monitors:
                    utilities = estimated_utilities(monitors)
                else:
                    utilities = memoized_true_utilities(chip.cores, chip_cfg)
                problem = chip.allocation_problem(utilities, POWER_QUANTUM_WATTS)
                alloc_result = self.mechanism.allocate(problem)
                market_epochs += 1
                if alloc_result.converged:
                    converged_epochs += 1
                extras = alloc_result.allocations

            # (2) Cache partitioning: Futility Scaling slews occupancy.
            targets = region + extras[:, 0]
            access_rates = np.array(
                [
                    core.app.apki * states[i].apki_scale
                    for i, core in enumerate(chip.cores)
                ]
            )
            occupancy = futility.step(targets, access_rates)

            # (3) DVFS: resolve purchased watts into frequency at the
            # current temperature (leakage rises with heat).
            temps = thermal.temperatures_c
            frequencies = np.empty(n)
            powers = np.empty(n)
            for i, core in enumerate(chip.cores):
                activity = core.app.activity * states[i].activity_scale
                budget_w = core.min_power_watts(temps[i]) + extras[i, 1]
                f = core.power_model.frequency_for_power(budget_w, activity, temps[i])
                frequencies[i] = f
                powers[i] = core.power_model.total_power(f, activity, temps[i])

            # (4) Execution: retire instructions at the *actual* points.
            # Talus shadow partitioning makes the cache a core
            # experiences between two points of interest the
            # interleaving of two shadow partitions, so its miss rate at
            # the occupancy Futility Scaling realized is the hull's
            # linear interpolation, not the raw curve's value mid-cliff.
            perf = np.empty(n)
            misses_per_instr = np.empty(n)
            for i, core in enumerate(chip.cores):
                hits = chip.talus(i).value_at(min(occupancy[i], monitor_cap))
                miss = float(min(max(1.0 - hits, 0.0), 1.0))
                mpi = core.app.apki * states[i].apki_scale / 1000.0 * miss
                misses_per_instr[i] = mpi
                time_ns = (
                    core.app.cpi_exe * states[i].cpi_scale / frequencies[i]
                    + mpi * dram_latency
                )
                perf[i] = 1.0 / time_ns
            instructions = perf * cfg.epoch_ms * 1e-3  # giga-instructions

            # Standalone reference for the same epoch and phase mix.
            for i, core in enumerate(chip.cores):
                alone[i] += (
                    core.performance_gips(
                        chip_cfg.umon_max_bytes,
                        chip_cfg.core.max_frequency_ghz,
                        cpi_scale=states[i].cpi_scale,
                        apki_scale=states[i].apki_scale,
                    )
                    * cfg.epoch_ms
                    * 1e-3
                )

            # (5) Feedback: thermals and DRAM contention for next epoch.
            thermal.step(powers, cfg.epoch_ms * 1e-3)
            miss_bw_gbps = float(np.sum(perf * misses_per_instr) * dram.line_bytes)
            dram_latency = dram.latency_ns(miss_bw_gbps)

            # (6) Monitoring: shadow tags ingest this epoch's stream.
            if cfg.use_monitors:
                for i, monitor in enumerate(monitors):
                    monitor.observe_epoch(
                        instructions[i] * 1e9, apki_scale=states[i].apki_scale
                    )

            trace.append(
                EpochRecord(
                    epoch=epoch,
                    time_ms=time_ms,
                    extras=extras.copy(),
                    cache_occupancy=occupancy.copy(),
                    frequencies_ghz=frequencies,
                    instructions=instructions,
                    powers_w=powers,
                    temperatures_c=np.array(thermal.temperatures_c),
                    dram_latency_ns=dram_latency,
                    market_iterations=alloc_result.iterations,
                    market_converged=alloc_result.converged,
                )
            )

        totals = trace.total_instructions()
        # EF of the time-averaged allocation under the true utilities of
        # the applications resident at the end of the run.
        ef = envy_freeness(
            memoized_true_utilities(chip.cores, chip_cfg), trace.mean_allocation()
        )
        return SimulationResult(
            mechanism=self.mechanism.name,
            trace=trace,
            utilities=totals / alone,
            alone_instructions=alone,
            envy_freeness=ef,
            converged_fraction=converged_epochs / max(market_epochs, 1),
        )
