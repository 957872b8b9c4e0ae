"""DVFS power model (Wattch/Cacti-flavoured first-order physics).

Each core runs at a frequency between 0.8 and 4.0 GHz; voltage scales
linearly with frequency between 0.8 and 1.2 V (Table 1).  Dynamic power
follows ``P_dyn = activity * C_eff * V(f)^2 * f`` and static power is a
temperature-dependent fraction of a voltage-dependent leakage base,
following Intel's Sandy Bridge power-management approximation the paper
adopts.  The model follows the paper's 65 nm assumptions: a fully active
core at 4 GHz draws well above its 10 W TDP share, so the chip-level
power budget is a genuinely contended resource.

The market treats *power* (watts) as the resource; performance comes
from the frequency the purchased watts can sustain, so this module also
provides the inverse mapping ``frequency_for_power`` (and its array form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CoreConfig

__all__ = ["DVFSPowerModel", "RAPL_QUANTUM_WATTS"]

#: Intel RAPL's power-limit granularity (Section 4.1.1): 0.125 W.
RAPL_QUANTUM_WATTS = 0.125


@dataclass(frozen=True)
class DVFSPowerModel:
    """Per-core power as a function of frequency, activity and temperature.

    Parameters
    ----------
    core:
        Frequency/voltage envelope.
    effective_capacitance:
        ``C_eff`` in watts per (V^2 * GHz); 4.0 puts a fully active 4 GHz
        core at ~23 W dynamic (the paper's 65 nm power model: the TDP
        share of 10 W per core cannot sustain peak frequency, which is
        what makes power a genuinely contended resource).
    leakage_coefficient:
        Leakage base in watts per volt at the reference temperature.
    leakage_temp_slope_k:
        Exponential temperature dependence scale (leakage doubles every
        ``ln(2) * slope`` kelvin), per the Sandy-Bridge-style model.
    reference_temperature_c:
        Temperature at which the leakage coefficient is specified.
    """

    core: CoreConfig = CoreConfig()
    effective_capacitance: float = 4.0
    leakage_coefficient: float = 1.2
    leakage_temp_slope_k: float = 30.0
    reference_temperature_c: float = 80.0
    _axes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def voltage(self, frequency_ghz: float) -> float:
        """Linear V-f mapping within the DVFS envelope (clamped outside)."""
        f = self._clamp_frequency(frequency_ghz)
        span = self.core.max_frequency_ghz - self.core.min_frequency_ghz
        t = (f - self.core.min_frequency_ghz) / span
        return self.core.min_voltage + t * (self.core.max_voltage - self.core.min_voltage)

    def dynamic_power(self, frequency_ghz: float, activity: float = 1.0) -> float:
        """``activity * C_eff * V^2 * f`` in watts."""
        f = self._clamp_frequency(frequency_ghz)
        v = self.voltage(f)
        return activity * self.effective_capacitance * v * v * f

    def static_power(self, frequency_ghz: float, temperature_c: float | None = None) -> float:
        """Voltage- and temperature-dependent leakage in watts."""
        v = self.voltage(frequency_ghz)
        return self.leakage_coefficient * v * self._leakage_scale(temperature_c)

    def total_power(
        self,
        frequency_ghz: float,
        activity: float = 1.0,
        temperature_c: float | None = None,
    ) -> float:
        """Dynamic plus static power at an operating point."""
        return self.dynamic_power(frequency_ghz, activity) + self.static_power(
            frequency_ghz, temperature_c
        )

    def min_power(self, activity: float = 1.0, temperature_c: float | None = None) -> float:
        """Power of the free minimum-frequency allocation (800 MHz)."""
        return self.total_power(self.core.min_frequency_ghz, activity, temperature_c)

    def max_power(self, activity: float = 1.0, temperature_c: float | None = None) -> float:
        """Power at the top of the DVFS envelope (4 GHz)."""
        return self.total_power(self.core.max_frequency_ghz, activity, temperature_c)

    def frequency_for_power(
        self,
        watts: float,
        activity: float = 1.0,
        temperature_c: float | None = None,
    ) -> float:
        """Highest sustainable frequency within a power cap (inverse model).

        Total power is strictly increasing in frequency, so a bisection
        on the envelope suffices.  Caps below the minimum-frequency power
        return the minimum frequency (the free allocation guarantees it);
        caps above the 4 GHz power return 4 GHz.
        """
        power = self._power_in_envelope(activity, temperature_c)
        lo = self.core.min_frequency_ghz
        hi = self.core.max_frequency_ghz
        if watts <= power(lo):
            return lo
        if watts >= power(hi):
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if power(mid) <= watts:
                lo = mid
            else:
                hi = mid
        return lo

    def frequencies_for_power(
        self, watts: np.ndarray, activity: float = 1.0, temperature_c: float | None = None
    ) -> np.ndarray:
        """:meth:`frequency_for_power` elementwise: same bisection, same bits."""
        power = self._power_in_envelope(activity, temperature_c)
        f_min, f_max = self.core.min_frequency_ghz, self.core.max_frequency_ghz
        watts = np.asarray(watts, dtype=float)
        lo, hi = np.full(watts.shape, f_min), np.full(watts.shape, f_max)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fits = power(mid) <= watts
            lo, hi = np.where(fits, mid, lo), np.where(fits, hi, mid)
        lo[watts >= power(f_max)] = f_max
        lo[watts <= power(f_min)] = f_min
        return lo

    def _power_in_envelope(self, activity: float, temperature_c: float | None):
        """``f -> total_power(f)`` in the envelope: same float ops, on floats or arrays."""
        core = self.core
        span = core.max_frequency_ghz - core.min_frequency_ghz
        swing = core.max_voltage - core.min_voltage
        dynamic = activity * self.effective_capacitance
        scale = self._leakage_scale(temperature_c)

        def power(f):
            v = core.min_voltage + ((f - core.min_frequency_ghz) / span) * swing
            return dynamic * v * v * f + self.leakage_coefficient * v * scale

        return power

    def power_axis(self, activity: float, points: int) -> "tuple[np.ndarray, np.ndarray]":
        """``points`` extra watts from 0 to the 4 GHz draw, and their frequencies.

        Never depends on a miss curve, so it is memoized (read-only) per
        ``(activity, points)``: every epoch of a monitor and every core
        of a chip with that activity share one array bisection.
        """
        key = (activity, points)
        if key not in self._axes:
            floor = self.min_power(activity)
            extra = np.linspace(0.0, self.max_power(activity) - floor, points)
            freqs = self.frequencies_for_power(floor + extra, activity)
            extra.flags.writeable = freqs.flags.writeable = False
            self._axes[key] = (extra, freqs)
        return self._axes[key]

    def _leakage_scale(self, temperature_c: float | None) -> float:
        if temperature_c is None:
            temperature_c = self.reference_temperature_c
        return _exp_clamped(
            (temperature_c - self.reference_temperature_c) / self.leakage_temp_slope_k
        )

    def _clamp_frequency(self, frequency_ghz: float) -> float:
        return min(max(frequency_ghz, self.core.min_frequency_ghz), self.core.max_frequency_ghz)


def _exp_clamped(x: float) -> float:
    """``exp(x)`` with the argument clamped to keep thermals numerically sane."""
    import math

    return math.exp(min(max(x, -20.0), 20.0))
