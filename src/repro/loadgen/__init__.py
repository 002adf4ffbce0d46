"""The Load Generator: scenarios, QSL, SUT glue, logs, validation (paper §4)."""

from .clock import VirtualClock
from .faults import FaultySUT, QueryFailure, QueryFault, QueryTimeout
from .logging import LOG_SCHEMA_VERSION, LoadGenLog, QueryRecord
from .qsl import QuerySampleLibrary
from .scenarios import LoadGenerator, Mode, Scenario, TestSettings, loadgen_checksum
from .sut import AccuracySUT, PerformanceSUT, SystemUnderTest
from .validation import validate_log, validate_serialized

__all__ = [
    "VirtualClock",
    "QuerySampleLibrary",
    "SystemUnderTest",
    "AccuracySUT",
    "PerformanceSUT",
    "FaultySUT",
    "QueryFault",
    "QueryFailure",
    "QueryTimeout",
    "LoadGenerator",
    "TestSettings",
    "Scenario",
    "Mode",
    "LoadGenLog",
    "QueryRecord",
    "LOG_SCHEMA_VERSION",
    "validate_log",
    "validate_serialized",
    "loadgen_checksum",
]
