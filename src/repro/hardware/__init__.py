"""Mobile-SoC hardware simulation: accelerators, scheduling, thermal, power."""

from .accelerator import OP_SUPPORT, AcceleratorSpec
from .device import OfflineResult, QueryResult, SimulatedDevice
from .power import PowerModel, QueryEnergy
from .scheduler import CompiledModel, FrameworkProfile, Segment, compile_model, partition_graph
from .soc import GENERATION_PAIRS, SOC_CATALOG, SoCSpec, get_soc
from .thermal import ThermalModel

__all__ = [
    "AcceleratorSpec",
    "OP_SUPPORT",
    "SoCSpec",
    "SOC_CATALOG",
    "GENERATION_PAIRS",
    "get_soc",
    "Segment",
    "CompiledModel",
    "FrameworkProfile",
    "partition_graph",
    "compile_model",
    "ThermalModel",
    "PowerModel",
    "QueryEnergy",
    "SimulatedDevice",
    "QueryResult",
    "OfflineResult",
]
