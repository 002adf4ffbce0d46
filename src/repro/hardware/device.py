"""The simulated device: an SoC plus mutable thermal/power state.

This object is what performance-mode SUTs wrap. Each query advances virtual
time, heats the die, and returns (latency, energy); sustained load therefore
drifts latencies upward exactly the way the run rules anticipate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .power import PowerModel, QueryEnergy
from .scheduler import CompiledModel, offline_throughput
from .soc import SoCSpec
from .thermal import ThermalModel

__all__ = ["QueryResult", "OfflineResult", "SimulatedDevice"]


class QueryResult(NamedTuple):
    latency_seconds: float
    energy: QueryEnergy
    temperature_c: float
    clock_scale: float


@dataclass(frozen=True)
class OfflineResult:
    total_samples: int
    total_seconds: float
    steady_clock_scale: float
    energy_joules: float

    @property
    def throughput_fps(self) -> float:
        return self.total_samples / self.total_seconds


class SimulatedDevice:
    """One physical device under test; a factory reset is a fresh instance."""

    def __init__(self, soc: SoCSpec, ambient_c: float = 22.0):
        self.soc = soc
        self.thermal = ThermalModel(soc, ambient_c=ambient_c)
        self.power = PowerModel(soc)
        self.virtual_time = 0.0
        self.total_energy_joules = 0.0
        # the last query's (model, batch, clock scale, (latency, energy))
        self._last: tuple = (None, None, None, None)

    def run_query(self, compiled: CompiledModel, batch: int = 1) -> QueryResult:
        """Execute one query on the performance model, mutating device state.

        Latency and energy are a pure function of the (frozen) compiled model,
        the batch and the clock scale, so a query repeating the last one's
        reuses its result.
        """
        scale = self.thermal.clock_scale()
        last = self._last
        if last[0] is compiled and last[1] == batch and last[2] == scale:
            latency, energy = last[3]
        else:
            latency, busy = compiled.query_seconds(scale, batch)
            energy = self.power.query_energy(busy, latency)
            self._last = (compiled, batch, scale, (latency, energy))
        self.thermal.advance(latency, energy.average_watts)
        self.virtual_time += latency
        self.total_energy_joules += energy.energy_joules
        return QueryResult(latency, energy, self.thermal.temperature_c, scale)

    def run_offline(self, pipelines: list[CompiledModel], total_samples: int) -> OfflineResult:
        """Offline burst: ALP pipelines at thermal steady state.

        Batched execution with concurrent engines saturates the chip: it runs
        flat-out at the TDP cap, settles at the corresponding steady-state
        temperature, and the sustained throughput carries that throttle.
        """
        power = self.soc.tdp_watts
        steady_c = self.thermal.steady_state_c(power)
        clock = self.thermal.clock_scale_at(steady_c)
        total_seconds = total_samples / (offline_throughput(pipelines) * clock)
        energy = power * total_seconds
        # the burst leaves the die at its steady state, at most 95 degC
        self.thermal.temperature_c = max(self.thermal.temperature_c, min(steady_c, 95.0))
        self.virtual_time += total_seconds
        self.total_energy_joules += energy
        return OfflineResult(total_samples, total_seconds, clock, energy)

    def cooldown(self, seconds: float) -> None:
        self.thermal.cooldown(seconds)
        self.virtual_time += seconds
