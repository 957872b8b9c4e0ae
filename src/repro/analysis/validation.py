"""Substrate validation studies: how good are the models under the market?

Three quantitative checks that the modeling layers the allocation
mechanism depends on actually behave:

* :func:`umon_error_study` — UMON shadow-tag miss-curve error across the
  whole application suite (sampling 1 in 32, one epoch of stream);
* :func:`futility_convergence_study` — epochs Futility Scaling needs to
  bring partition occupancies within a tolerance of their targets;
* :func:`dram_contention_study` — miss-latency inflation as aggregate
  bandwidth approaches the channels' capacity.

These back the substitution arguments in DESIGN.md with numbers and are
printed by ``benchmarks/test_substrate_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..cmp.config import cmp_8core
from ..cmp.core_model import CoreModel
from ..cmp.dram import DRAMModel
from ..cmp.futility import FutilityScalingController
from ..cmp.monitor import RuntimeMonitor

__all__ = [
    "UMONErrorRow",
    "umon_error_study",
    "futility_convergence_study",
    "dram_contention_study",
]


@dataclass(frozen=True)
class UMONErrorRow:
    """Shadow-tag estimation error for one application."""

    app: str
    mean_abs_error: float
    max_abs_error: float
    sampled_accesses: int


def umon_error_study(
    epochs: int = 4, instructions_per_epoch: float = 2e6
) -> List[UMONErrorRow]:
    """Miss-curve estimation error per application, after ``epochs``.

    Every application runs on the 8-core chip with its own monitor
    seeded 17.
    """
    from ..cmp.spec_suite import spec_suite

    config = cmp_8core()
    rows: List[UMONErrorRow] = []
    for app in spec_suite():
        core = CoreModel(app, config)
        monitor = RuntimeMonitor(core, config, rng=np.random.default_rng(17))
        for _ in range(epochs):
            monitor.observe_epoch(instructions_per_epoch)
        true = np.array(
            [
                app.mrc.miss_fraction((k + 1) * config.cache_region_bytes)
                for k in range(config.umon_max_regions)
            ]
        )
        error = np.abs(monitor.miss_curve - true)
        rows.append(
            UMONErrorRow(
                app=app.name,
                mean_abs_error=float(error.mean()),
                max_abs_error=float(error.max()),
                sampled_accesses=monitor.umon.sampled_accesses,
            )
        )
    return rows


def futility_convergence_study(max_epochs: int = 200) -> List[int]:
    """Epochs to reach 5% occupancy error, over random targets.

    Returns one epoch count per trial: 20 trials (seeded 3) of random
    target vectors and access rates for 8 partitions of a 4 MB cache,
    each capped at ``max_epochs``.
    """
    capacity_bytes, num_partitions = 4 << 20, 8
    rng = np.random.default_rng(3)
    results: List[int] = []
    for _ in range(20):
        controller = FutilityScalingController(capacity_bytes, num_partitions)
        targets = rng.uniform(0.5, 2.0, size=num_partitions)
        targets *= capacity_bytes / targets.sum()
        rates = rng.uniform(0.5, 50.0, size=num_partitions)
        epochs = max_epochs
        for epoch in range(1, max_epochs + 1):
            controller.step(targets, rates)
            if controller.max_error_fraction(targets) < 0.05:
                epochs = epoch
                break
        results.append(epochs)
    return results


def dram_contention_study() -> List[tuple]:
    """(utilization, latency ns) samples of the two-channel contention model.

    Nine utilizations from 0 to 120% of peak bandwidth.
    """
    dram = DRAMModel(channels=2)
    peak = dram.peak_bandwidth_gbps()
    rows = []
    for utilization in np.linspace(0.0, 1.2, 9):
        rows.append(
            (float(utilization), dram.latency_ns(utilization * peak))
        )
    return rows
