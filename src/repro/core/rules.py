"""Run rules and test conditions (paper §6.1).

The rules object is threaded through the harness: it fixes the LoadGen
settings, the environmental requirements (room temperature, battery power),
and the cooldown discipline between individual tests. The paper also
recommends a full battery charge and a 10-minute break between suite runs;
both happen outside one suite run, so no field models them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..loadgen.scenarios import TestSettings

__all__ = ["RunRules", "RuleViolation", "DEFAULT_RULES", "QUICK_RULES"]


class RuleViolation(ValueError):
    """A test condition outside what the run rules allow."""


@dataclass(frozen=True)
class RunRules:
    # test control (§6.1)
    min_query_count: int = 1024
    min_duration_s: float = 60.0
    offline_sample_count: int = 24576
    latency_percentile: float = 90.0
    # thermal conditions: 20-25 degC room, cooldown break of 0-5 minutes
    ambient_min_c: float = 20.0
    ambient_max_c: float = 25.0
    cooldown_s: float = 120.0
    battery_powered: bool = True  # the benchmark runs on battery power
    # result validation: audit reproduction tolerance (§6.2)
    audit_tolerance: float = 0.05
    # fault tolerance: bounded per-query retry, bounded drops before the run
    # aborts as a flagged partial result
    query_retry_budget: int = 3
    query_drop_budget: int = 16

    def validate_conditions(self, ambient_c: float) -> None:
        if not self.ambient_min_c <= ambient_c <= self.ambient_max_c:
            raise RuleViolation(
                f"room temperature {ambient_c:.1f} degC outside the required "
                f"{self.ambient_min_c:.0f}-{self.ambient_max_c:.0f} degC range"
            )
        if not self.battery_powered:
            raise RuleViolation("the benchmark must run on battery power")

    def loadgen_settings(self, scenario, mode) -> TestSettings:
        return TestSettings(
            scenario=scenario,
            mode=mode,
            min_query_count=self.min_query_count,
            min_duration_s=self.min_duration_s,
            offline_sample_count=self.offline_sample_count,
            latency_percentile=self.latency_percentile,
            query_retry_budget=self.query_retry_budget,
            query_drop_budget=self.query_drop_budget,
        )


DEFAULT_RULES = RunRules()

# reduced-scale rules for tests/examples: same code paths, less virtual load
QUICK_RULES = RunRules(
    min_query_count=128,
    min_duration_s=5.0,
    offline_sample_count=2048,
    cooldown_s=30.0,
)
