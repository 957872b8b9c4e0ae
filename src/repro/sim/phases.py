"""Program-phase tracking for the execution-driven simulator.

Applications may declare a cyclic list of phases (compute-heavy,
memory-heavy, ...) with per-phase multipliers on CPI, L2 access
intensity and power activity.  Phase changes are the reason the paper
re-runs the allocation market every millisecond, so the simulator needs
to know each application's live multipliers at any simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cmp.application import AppProfile, Phase

__all__ = ["PhaseState", "PhaseTracker"]

#: Multipliers of an application without declared phases.
_STATIONARY = Phase(duration_ms=float("inf"))


@dataclass(frozen=True)
class PhaseState:
    """The live multipliers of one application at one instant."""

    phase_index: int
    apki_scale: float
    cpi_scale: float
    activity_scale: float


class PhaseTracker:
    """Maps simulation time to the active phase of one application."""

    def __init__(self, app: AppProfile):
        self.app = app
        self.phases = list(app.phases) if app.phases else [_STATIONARY]
        self.cycle_ms = sum(p.duration_ms for p in self.phases)

    def state_at(self, time_ms: float) -> PhaseState:
        """Phase multipliers active at ``time_ms`` (phases cycle forever)."""
        if len(self.phases) == 1:
            phase = self.phases[0]
            return PhaseState(0, phase.apki_scale, phase.cpi_scale, phase.activity_scale)
        t = time_ms % self.cycle_ms
        elapsed = 0.0
        for index, phase in enumerate(self.phases):
            elapsed += phase.duration_ms
            if t < elapsed:
                return PhaseState(
                    index, phase.apki_scale, phase.cpi_scale, phase.activity_scale
                )
        last = self.phases[-1]
        return PhaseState(
            len(self.phases) - 1, last.apki_scale, last.cpi_scale, last.activity_scale
        )
