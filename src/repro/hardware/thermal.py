"""First-order RC thermal model with clock throttling (run rules §6.1).

Die temperature follows dT/dt = (P - (T - T_amb)/R) / C. Above the throttle
threshold the clock derates linearly, which is what stretches the tail of the
single-stream latency distribution — the reason the benchmark mandates the
90th percentile, cooldown intervals and a 20-25 degC room.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .soc import SoCSpec

__all__ = ["ThermalModel"]


@dataclass
class ThermalModel:
    soc: SoCSpec
    ambient_c: float = 22.0
    temperature_c: float = 22.0
    min_clock_scale: float = 0.55

    def __post_init__(self) -> None:
        if not 15.0 <= self.ambient_c <= 35.0:
            raise ValueError("ambient temperature out of plausible range")
        self.temperature_c = max(self.temperature_c, self.ambient_c)

    def clock_scale(self) -> float:
        """Current frequency derate in [min_clock_scale, 1]."""
        return self.clock_scale_at(self.temperature_c)

    def clock_scale_at(self, temperature_c: float) -> float:
        """Frequency derate of this die at ``temperature_c``."""
        over = temperature_c - self.soc.throttle_temp
        if over <= 0:
            return 1.0
        return max(self.min_clock_scale, 1.0 - self.soc.throttle_slope * over)

    def steady_state_c(self, power_watts: float) -> float:
        """The temperature a constant draw of ``power_watts`` settles at."""
        return self.ambient_c + power_watts * self.soc.thermal_resistance

    def advance(self, seconds: float, power_watts: float) -> None:
        """Integrate the RC model over ``seconds`` at constant power."""
        if seconds < 0:
            raise ValueError("time cannot run backwards")
        if seconds == 0:
            return
        r, c = self.soc.thermal_resistance, self.soc.thermal_capacitance
        # exact solution of the linear ODE over the interval
        t_inf = self.steady_state_c(power_watts)
        decay = math.exp(-seconds / (r * c))
        self.temperature_c = t_inf + (self.temperature_c - t_inf) * decay

    def cooldown(self, seconds: float) -> None:
        """Idle cooling (the app's 0-5 minute break setting)."""
        self.advance(seconds, power_watts=0.0)

    def reset(self) -> None:
        self.temperature_c = self.ambient_c
