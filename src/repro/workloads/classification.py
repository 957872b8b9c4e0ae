"""Application classification by profiling (Section 5).

The paper classifies its 24 applications into *Cache-sensitive* (C),
*Power-sensitive* (P), *Both-sensitive* (B) and *None* (N) based on
profiling.  We reproduce that: each application's utility is profiled on
the paper's 90-point grid ({1-6, 8, 10, 12, 16} cache regions x
{0.8, 1.2, ..., 4.0} GHz), and two sensitivities are extracted:

* **cache sensitivity** — utility gained by going from the minimum to
  the maximum cache at a mid-range frequency;
* **power sensitivity** — utility gained by going from minimum to
  maximum frequency at a modest cache allocation (a quarter of the
  monitorable range; memory-bound applications show little gain there).

Thresholds on the two sensitivities yield the four classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cmp.application import AppProfile
from ..cmp.config import CMPConfig, cmp_8core
from ..cmp.core_model import CoreModel

__all__ = [
    "PROFILE_CACHE_REGIONS",
    "PROFILE_FREQUENCIES_GHZ",
    "CACHE_SENSITIVE_THRESHOLD",
    "POWER_SENSITIVE_THRESHOLD",
    "ApplicationProfileTable",
    "profile_application",
    "Sensitivities",
    "sensitivities",
    "classify",
]

#: The paper's profiling grid: 10 cache allocations x 9 frequencies.
PROFILE_CACHE_REGIONS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16)
PROFILE_FREQUENCIES_GHZ = (0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0)

#: Classification thresholds (fractions of standalone utility).
CACHE_SENSITIVE_THRESHOLD = 0.25
POWER_SENSITIVE_THRESHOLD = 0.38


@dataclass
class ApplicationProfileTable:
    """Utility and power sampled on the 90-point profiling grid."""

    app_name: str
    cache_regions: np.ndarray       # (10,)
    frequencies_ghz: np.ndarray     # (9,)
    utility: np.ndarray             # (10, 9) normalized performance
    power_watts: np.ndarray         # (10, 9) core power at each point


def profile_application(app: AppProfile, config: CMPConfig | None = None) -> ApplicationProfileTable:
    """Sample an application on the paper's 90-point grid."""
    config = config or cmp_8core()
    core = CoreModel(app, config)
    regions = np.array(PROFILE_CACHE_REGIONS, dtype=float)
    freqs = np.array(PROFILE_FREQUENCIES_GHZ, dtype=float)
    utility = np.empty((regions.size, freqs.size))
    power = np.empty_like(utility)
    for i, r in enumerate(regions):
        cache = r * config.cache_region_bytes
        for j, f in enumerate(freqs):
            utility[i, j] = core.utility(cache, f)
            power[i, j] = core.power_watts(f)
    return ApplicationProfileTable(
        app_name=app.name,
        cache_regions=regions,
        frequencies_ghz=freqs,
        utility=utility,
        power_watts=power,
    )


@dataclass(frozen=True)
class Sensitivities:
    """The two profiling-derived sensitivities used for classification."""

    cache: float
    power: float


def sensitivities(table: ApplicationProfileTable) -> Sensitivities:
    """Extract cache/power sensitivity from a profile table."""
    mid_freq_idx = len(PROFILE_FREQUENCIES_GHZ) // 2        # 2.4 GHz
    quarter_cache_idx = 3                                    # 4 regions (512 kB)
    cache_sens = float(
        table.utility[-1, mid_freq_idx] - table.utility[0, mid_freq_idx]
    )
    power_sens = float(
        table.utility[quarter_cache_idx, -1] - table.utility[quarter_cache_idx, 0]
    )
    return Sensitivities(cache=cache_sens, power=power_sens)


def classify(sens: Sensitivities) -> str:
    """The class letter (C/P/B/N) a profiled application's sensitivities earn."""
    cache_sensitive = sens.cache >= CACHE_SENSITIVE_THRESHOLD
    power_sensitive = sens.power >= POWER_SENSITIVE_THRESHOLD
    if cache_sensitive and power_sensitive:
        return "B"
    if cache_sensitive:
        return "C"
    if power_sensitive:
        return "P"
    return "N"

