"""Power and energy accounting (paper Appendix E: future-work power metric).

Per-query energy = sum over accelerators of (busy time x TDP) plus chip idle
power over the query's wall time, capped at the SoC's TDP when multiple
engines run concurrently (smartphone chipsets cap near 3 W).
"""

from __future__ import annotations

from dataclasses import dataclass

from .soc import SoCSpec

__all__ = ["PowerModel", "QueryEnergy"]


@dataclass(frozen=True)
class QueryEnergy:
    energy_joules: float
    average_watts: float
    wall_seconds: float


class PowerModel:
    # fraction of the CPU's TDP burned orchestrating any inference (the
    # "AI tax": scheduling, pre/post-processing, driver work)
    ORCHESTRATION_FRACTION = 0.9

    def __init__(self, soc: SoCSpec):
        self.soc = soc
        self.idle_watts = sum(a.idle_watts for a in soc.accelerators)
        self.tdp_watts = {a.name: a.tdp_watts for a in soc.accelerators}
        self.orchestration_watts = soc.accelerator("cpu").tdp_watts * self.ORCHESTRATION_FRACTION

    def query_energy(self, busy: dict[str, float], latency_seconds: float) -> QueryEnergy:
        """Energy of one query from each accelerator's ``busy`` seconds."""
        active = 0.0
        for name, seconds in busy.items():
            active += seconds * self.tdp_watts[name]
        orchestration = self.orchestration_watts * latency_seconds
        energy = active + orchestration + self.idle_watts * latency_seconds
        avg_watts = energy / latency_seconds if latency_seconds > 0 else 0.0
        if avg_watts > self.soc.tdp_watts:
            # TDP cap: the chip cannot actually sustain this draw — clamp the
            # energy and let the thermal model absorb the difference
            energy = self.soc.tdp_watts * latency_seconds
            avg_watts = self.soc.tdp_watts
        return QueryEnergy(energy, avg_watts, latency_seconds)
