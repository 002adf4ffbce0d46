"""SoC catalog: the commercial chipsets of the v0.7 and v1.0 rounds.

Specs are transcribed/derived from the paper's Appendix C (TOPS claims, core
counts, process node, generational deltas) and calibrated so the simulated
benchmark reproduces the published result *shapes*: Figure 7 orderings
(Dimensity wins detection/segmentation, Exynos wins classification/NLP),
the Table 2 offline anchors (Exynos 674.4 FPS vs Snapdragon 605.37 FPS,
summed ALP pipelines at the thermal steady-state clock),
Table 3's delegate gaps, and Figure 6's ~2x generational uplift with the
Exynos segmentation outlier. Absolute wall-clock fidelity is a non-goal
(DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.numerics import Numerics
from .accelerator import AcceleratorSpec

__all__ = ["SoCSpec", "SOC_CATALOG", "GENERATION_PAIRS", "get_soc"]

FP32, FP16, INT8, UINT8 = Numerics.FP32, Numerics.FP16, Numerics.INT8, Numerics.UINT8


@dataclass(frozen=True)
class SoCSpec:
    name: str
    vendor: str
    form_factor: str  # "smartphone" | "laptop"
    benchmark_version: str  # submission round this SoC appeared in
    accelerators: tuple[AcceleratorSpec, ...]
    process_node_nm: int
    interconnect_gbps: float = 5.0  # inter-IP-block transfer bandwidth
    segment_sync_ms: float = 0.5  # cost of an accelerator-to-accelerator hop
    tdp_watts: float = 3.0  # paper App. E: smartphone chipsets cap near 3 W
    # RC thermal model parameters
    thermal_resistance: float = 7.7  # degC per watt (whole-phone, to skin)
    thermal_capacitance: float = 3.0  # joules per degC (phones heat in ~1 min)
    throttle_temp: float = 36.0  # smartphones are skin-temperature limited
    throttle_slope: float = 0.03  # clock derate per degC above threshold

    def __post_init__(self) -> None:
        names = [acc.name for acc in self.accelerators]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: accelerator names must be unique")

    def accelerator(self, name: str) -> AcceleratorSpec:
        for acc in self.accelerators:
            if acc.name == name:
                return acc
        raise KeyError(f"{self.name} has no accelerator {name!r}")


def _int8(v: float, fp16_ratio: float = 0.5) -> dict[Numerics, float]:
    return {INT8: v, UINT8: v, FP16: v * fp16_ratio}


SOC_CATALOG: dict[str, SoCSpec] = {
    # ------------------------------------------------------------- Samsung
    "exynos_990": SoCSpec(
        name="exynos_990", vendor="samsung", form_factor="smartphone",
        benchmark_version="v0.7", process_node_nm=7,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",
                            {FP32: 0.08, FP16: 0.16, INT8: 0.30, UINT8: 0.30},
                            memory_gbps=18.0, dispatch_overhead_us=5.0,
                            tdp_watts=2.0, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Mali-G77 MP11: strong FP16
                            {FP32: 0.60, FP16: 1.30, INT8: 1.35, UINT8: 1.35},
                            memory_gbps=22.0, dispatch_overhead_us=60.0,
                            tdp_watts=2.2, per_op_overhead_us=15.0),
            AcceleratorSpec("npu", "npu",  # dual-core NPU
                            _int8(1.75), memory_gbps=12.0,
                            dispatch_overhead_us=45.0, tdp_watts=1.6,
                            per_op_overhead_us=18.0),
        ),
        # slow inter-IP transfers: the bottleneck the 2100 fixed (paper §7.1)
        interconnect_gbps=0.2, segment_sync_ms=12.0,
    ),
    "exynos_2100": SoCSpec(
        name="exynos_2100", vendor="samsung", form_factor="smartphone",
        benchmark_version="v1.0", process_node_nm=5,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",
                            {FP32: 0.11, FP16: 0.22, INT8: 0.40, UINT8: 0.40},
                            memory_gbps=24.0, dispatch_overhead_us=4.0,
                            tdp_watts=2.0, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Mali-G78 MP14 (+40%)
                            {FP32: 0.85, FP16: 1.80, INT8: 1.85, UINT8: 1.85},
                            memory_gbps=28.0, dispatch_overhead_us=50.0,
                            tdp_watts=2.4, per_op_overhead_us=12.0),
            AcceleratorSpec("npu", "npu",  # triple-core NPU + DSP, 5nm EUV
                            _int8(3.6), memory_gbps=20.0,
                            dispatch_overhead_us=30.0, tdp_watts=1.8,
                            per_op_overhead_us=12.0),
        ),
        interconnect_gbps=18.0, segment_sync_ms=0.25,
    ),
    # ------------------------------------------------------------ Qualcomm
    "snapdragon_865plus": SoCSpec(
        name="snapdragon_865plus", vendor="qualcomm", form_factor="smartphone",
        benchmark_version="v0.7", process_node_nm=7,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",
                            {FP32: 0.09, FP16: 0.18, INT8: 0.32, UINT8: 0.32},
                            memory_gbps=18.0, dispatch_overhead_us=5.0,
                            tdp_watts=2.0, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Adreno 650
                            {FP32: 0.55, FP16: 1.10, INT8: 1.15, UINT8: 1.15},
                            memory_gbps=25.0, dispatch_overhead_us=55.0,
                            tdp_watts=2.2, per_op_overhead_us=15.0),
            # Hexagon 698: discrete scalar/vector/tensor blocks, 15 TOPS peak
            AcceleratorSpec("hta", "hta", _int8(1.35), memory_gbps=11.0,
                            dispatch_overhead_us=40.0, tdp_watts=1.2,
                            per_op_overhead_us=22.0),
            AcceleratorSpec("hvx", "hvx", _int8(1.05), memory_gbps=9.0,
                            dispatch_overhead_us=40.0, tdp_watts=1.0,
                            per_op_overhead_us=22.0),
        ),
        interconnect_gbps=6.0, segment_sync_ms=0.8,
    ),
    "snapdragon_888": SoCSpec(
        name="snapdragon_888", vendor="qualcomm", form_factor="smartphone",
        benchmark_version="v1.0", process_node_nm=5,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",
                            {FP32: 0.11, FP16: 0.22, INT8: 0.38, UINT8: 0.38},
                            memory_gbps=24.0, dispatch_overhead_us=4.0,
                            tdp_watts=2.0, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Adreno 660
                            {FP32: 0.85, FP16: 1.70, INT8: 1.75, UINT8: 1.75},
                            memory_gbps=30.0, dispatch_overhead_us=45.0,
                            tdp_watts=2.4, per_op_overhead_us=12.0),
            # Hexagon 780: fused scalar+vector+tensor monolith, 26 TOPS (+73%)
            AcceleratorSpec("hta", "hta", _int8(2.5), memory_gbps=22.0,
                            dispatch_overhead_us=25.0, tdp_watts=1.6,
                            per_op_overhead_us=12.0),
            AcceleratorSpec("hvx", "hvx", _int8(1.7), memory_gbps=18.0,
                            dispatch_overhead_us=25.0, tdp_watts=1.2,
                            per_op_overhead_us=14.0),
        ),
        interconnect_gbps=14.0, segment_sync_ms=0.35,
    ),
    # ------------------------------------------------------------ MediaTek
    "dimensity_820": SoCSpec(
        name="dimensity_820", vendor="mediatek", form_factor="smartphone",
        benchmark_version="v0.7", process_node_nm=7,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",
                            {FP32: 0.08, FP16: 0.16, INT8: 0.28, UINT8: 0.28},
                            memory_gbps=16.0, dispatch_overhead_us=5.0,
                            tdp_watts=1.9, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Mali-G57 MC5
                            {FP32: 0.30, FP16: 0.60, INT8: 0.65, UINT8: 0.65},
                            memory_gbps=18.0, dispatch_overhead_us=60.0,
                            tdp_watts=2.0, per_op_overhead_us=18.0),
            # APU 3.0, single MDLA core; high local SRAM bandwidth (camera-
            # pipeline heritage) is what wins the memory-heavy vision tasks
            AcceleratorSpec("apu", "apu",
                            {INT8: 1.5, UINT8: 1.5, FP16: 0.75},
                            memory_gbps=22.0, dispatch_overhead_us=40.0,
                            tdp_watts=1.4, per_op_overhead_us=25.0),
        ),
        interconnect_gbps=7.0, segment_sync_ms=0.6,
    ),
    "dimensity_1100": SoCSpec(
        name="dimensity_1100", vendor="mediatek", form_factor="smartphone",
        benchmark_version="v1.0", process_node_nm=6,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",
                            {FP32: 0.10, FP16: 0.20, INT8: 0.34, UINT8: 0.34},
                            memory_gbps=20.0, dispatch_overhead_us=4.0,
                            tdp_watts=1.9, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Mali-G77 MC9, 6nm
                            {FP32: 0.55, FP16: 1.15, INT8: 1.2, UINT8: 1.2},
                            memory_gbps=24.0, dispatch_overhead_us=50.0,
                            tdp_watts=2.2, per_op_overhead_us=15.0),
            # dual MDLA cores
            AcceleratorSpec("apu", "apu",
                            {INT8: 3.1, UINT8: 3.1, FP16: 1.55},
                            memory_gbps=26.0, dispatch_overhead_us=30.0,
                            tdp_watts=1.6, per_op_overhead_us=14.0),
        ),
        interconnect_gbps=12.0, segment_sync_ms=0.2,
    ),
    # ---------------------------------------------------------------- Intel
    "core_i7_1165g7": SoCSpec(
        name="core_i7_1165g7", vendor="intel", form_factor="laptop",
        benchmark_version="v0.7", process_node_nm=10,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",  # 4C/8T Willow Cove, VNNI int8
                            {FP32: 0.35, FP16: 0.35, INT8: 1.3, UINT8: 1.3},
                            memory_gbps=45.0, dispatch_overhead_us=3.0,
                            tdp_watts=14.0, per_op_overhead_us=3.0),
            AcceleratorSpec("gpu", "gpu",  # Xe-LP 96 EU
                            {FP32: 1.1, FP16: 2.2, INT8: 2.6, UINT8: 2.6},
                            memory_gbps=50.0, dispatch_overhead_us=35.0,
                            tdp_watts=12.0, per_op_overhead_us=8.0),
        ),
        interconnect_gbps=40.0, segment_sync_ms=0.1,
        tdp_watts=28.0, thermal_resistance=2.5, thermal_capacitance=40.0,
        throttle_temp=85.0,
    ),
    "core_i7_11375h": SoCSpec(
        name="core_i7_11375h", vendor="intel", form_factor="laptop",
        benchmark_version="v1.0", process_node_nm=10,
        accelerators=(
            AcceleratorSpec("cpu", "cpu",  # 1.1x CPU frequency uplift
                            {FP32: 0.385, FP16: 0.385, INT8: 1.43, UINT8: 1.43},
                            memory_gbps=48.0, dispatch_overhead_us=3.0,
                            tdp_watts=15.0, per_op_overhead_us=2.7),
            AcceleratorSpec("gpu", "gpu",  # ~1.04x iGPU frequency uplift
                            {FP32: 1.15, FP16: 2.3, INT8: 2.7, UINT8: 2.7},
                            memory_gbps=52.0, dispatch_overhead_us=33.0,
                            tdp_watts=12.5, per_op_overhead_us=7.7),
        ),
        interconnect_gbps=42.0, segment_sync_ms=0.1,
        tdp_watts=35.0, thermal_resistance=2.5, thermal_capacitance=40.0,
        throttle_temp=85.0,
    ),
}

# Appendix E: "iOS support recently became available ... we expect results
# in the near future" — the device is modeled, flagged as a preview round
# (it never enters the v0.7/v1.0 comparisons).
SOC_CATALOG["apple_a14"] = SoCSpec(
    name="apple_a14", vendor="apple", form_factor="smartphone",
    benchmark_version="preview", process_node_nm=5,
    accelerators=(
        AcceleratorSpec("cpu", "cpu",
                        {FP32: 0.14, FP16: 0.28, INT8: 0.45, UINT8: 0.45},
                        memory_gbps=28.0, dispatch_overhead_us=4.0,
                        tdp_watts=2.2, per_op_overhead_us=3.0),
        AcceleratorSpec("gpu", "gpu",
                        {FP32: 0.9, FP16: 1.9, INT8: 1.9, UINT8: 1.9},
                        memory_gbps=30.0, dispatch_overhead_us=40.0,
                        tdp_watts=2.4, per_op_overhead_us=12.0),
        # 16-core Neural Engine, 11 TOPS marketing peak
        AcceleratorSpec("ane", "ane",
                        {INT8: 3.0, UINT8: 3.0, FP16: 2.6},
                        memory_gbps=26.0, dispatch_overhead_us=25.0,
                        tdp_watts=1.8, per_op_overhead_us=12.0),
    ),
    interconnect_gbps=16.0, segment_sync_ms=0.2,
)

# v0.7 -> v1.0 generational pairs (Figure 6)
GENERATION_PAIRS: dict[str, tuple[str, str]] = {
    "samsung": ("exynos_990", "exynos_2100"),
    "qualcomm": ("snapdragon_865plus", "snapdragon_888"),
    "mediatek": ("dimensity_820", "dimensity_1100"),
    "intel": ("core_i7_1165g7", "core_i7_11375h"),
}


def get_soc(name: str) -> SoCSpec:
    if name not in SOC_CATALOG:
        raise KeyError(f"unknown SoC {name!r}; available: {sorted(SOC_CATALOG)}")
    return SOC_CATALOG[name]
