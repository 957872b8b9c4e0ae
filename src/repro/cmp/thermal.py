"""HotSpot-style lumped RC thermal model.

The paper estimates run-time chip temperature with HotSpot integrated
into SESC, and makes static power exponentially dependent on it.  We
model each core (or the whole chip, depending on granularity) as a
single thermal node: a heat capacity fed by the core's power and
leaking to ambient through a thermal resistance,

    C_th * dT/dt = P - (T - T_amb) / R_th

integrated explicitly every simulation epoch.  The steady-state
temperature is ``T_amb + P * R_th``; the model is calibrated so a core
dissipating its 10 W TDP settles near the 80 C leakage reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ThermalNode", "ThermalModel"]


@dataclass
class ThermalNode:
    """One lumped RC node (a core, or the package)."""

    resistance_k_per_w: float = 3.5   # 10 W -> 35 K rise over ambient
    capacitance_j_per_k: float = 0.03  # ~100 ms thermal time constant
    ambient_c: float = 45.0
    temperature_c: float = field(default=70.0)

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the node by ``dt_s`` seconds under ``power_w`` input.

        Uses the exact exponential solution of the linear ODE for the
        interval (unconditionally stable for any ``dt_s``), and returns
        the new temperature.
        """
        import math

        steady = self.ambient_c + power_w * self.resistance_k_per_w
        tau = self.resistance_k_per_w * self.capacitance_j_per_k
        decay = math.exp(-dt_s / tau)
        self.temperature_c = steady + (self.temperature_c - steady) * decay
        return self.temperature_c


class ThermalModel:
    """Per-core thermal state for a whole CMP."""

    def __init__(self, num_cores: int):
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.nodes = [ThermalNode() for _ in range(num_cores)]

    def step(self, powers_w, dt_s: float) -> list:
        """Advance every core one epoch; returns the new temperatures."""
        if len(powers_w) != len(self.nodes):
            raise ValueError("one power sample per core required")
        return [node.step(p, dt_s) for node, p in zip(self.nodes, powers_w)]

    @property
    def temperatures_c(self) -> list:
        return [node.temperature_c for node in self.nodes]
