"""Application-suite characterization (the workload table of Section 5).

Produces the per-application table architecture papers print alongside
their workload description: class, compute CPI, L2 intensity, working
set, sensitivities, standalone performance and peak power.  Used by the
suite-characterization benchmark and handy when adding applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..cmp.application import AppProfile
from ..cmp.config import CMPConfig, MB, cmp_8core
from ..cmp.core_model import CoreModel
from ..cmp.spec_suite import spec_suite
from ..exec import SweepExecutor
from ..workloads.classification import classify, profile_application, sensitivities

__all__ = ["AppCharacterization", "characterize_app", "characterize_suite"]


@dataclass(frozen=True)
class AppCharacterization:
    """One row of the suite table."""

    name: str
    suite: str
    cls: str
    cpi_exe: float
    apki: float
    footprint_mb: float
    cache_sensitivity: float
    power_sensitivity: float
    alone_gips: float
    peak_power_w: float


def characterize_app(app: AppProfile) -> AppCharacterization:
    """Profile one application on the 8-core chip into a characterization row.

    The application is profiled once; its class comes from the same
    sensitivities the row reports.
    """
    config = cmp_8core()
    core = CoreModel(app, config)
    sens = sensitivities(profile_application(app, config))
    return AppCharacterization(
        name=app.name,
        suite=app.suite,
        cls=classify(sens),
        cpi_exe=app.cpi_exe,
        apki=app.apki,
        footprint_mb=_footprint_mb(app, config),
        cache_sensitivity=sens.cache,
        power_sensitivity=sens.power,
        alone_gips=core.alone_performance_gips,
        peak_power_w=core.max_power_watts(),
    )


def characterize_suite(workers: int = 1) -> List[AppCharacterization]:
    """Characterize the 24-app SPEC suite.

    The per-application profiling runs on a
    :class:`~repro.exec.SweepExecutor` with ``workers`` processes
    (``1`` runs serially in-process); rows come back in suite order
    either way.
    """
    apps = spec_suite()
    run = SweepExecutor(workers=workers).run(
        characterize_app,
        apps,
        labels=[app.name for app in apps],
    )
    run.raise_failures()
    return list(run.values())


def _footprint_mb(app: AppProfile, config: CMPConfig) -> float:
    """Capacity at which 90% of the cache-sensitive misses are gone."""
    lo, hi = 0.0, float(config.umon_max_bytes)
    span = app.mrc.ceiling - app.mrc.floor
    if span <= 1e-12:
        return 0.0  # flat MRC: no cache-sensitive misses at all
    target = app.mrc.floor + 0.1 * span
    if app.mrc.miss_fraction(hi) > target:
        return hi / MB
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if app.mrc.miss_fraction(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / MB
