"""The Load Generator: scenarios, QSL, SUT glue, logs, validation (paper §4)."""

from .faults import QueryFault
from .logging import LOG_SCHEMA_VERSION, LoadGenLog, RecordColumns
from .qsl import QuerySampleLibrary
from .scenarios import LoadGenerator, Mode, Scenario, TestSettings, loadgen_checksum
from .sut import AccuracySUT, PerformanceSUT, SystemUnderTest
from .validation import validate_log, validate_serialized

__all__ = [
    "QuerySampleLibrary",
    "SystemUnderTest",
    "AccuracySUT",
    "PerformanceSUT",
    "QueryFault",
    "LoadGenerator",
    "TestSettings",
    "Scenario",
    "Mode",
    "LoadGenLog",
    "RecordColumns",
    "LOG_SCHEMA_VERSION",
    "validate_log",
    "validate_serialized",
    "loadgen_checksum",
]
