"""Accelerator performance models.

Each accelerator is a roofline: sustained compute rate per numeric format
plus a memory-bandwidth bound, with a per-partition dispatch overhead. The
catalog values are calibrated from the paper's Appendix C (published TOPS,
core counts, generational claims) so the benchmark reproduces the *shape*
of the v0.7/v1.0 results; see DESIGN.md §1 on wall-clock fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernels.numerics import Numerics

__all__ = ["AcceleratorSpec", "OP_SUPPORT"]


# Which graph op types each accelerator class can execute natively.
# Unsupported ops fall back to the CPU, splitting the graph into segments —
# the mechanism behind framework overhead differences (paper Table 3) and
# why NLP avoids fixed-function NPUs (paper Insight 5).
# note: bilinear resize is deliberately absent from fixed-function engines —
# a common real-world gap that fragments DeepLab-style graphs into segments
_NPU_OPS = {
    "conv2d", "depthwise_conv2d", "fully_connected", "avg_pool2d", "max_pool2d",
    "global_avg_pool", "add", "concat", "activation", "reshape", "depth_to_space",
    "constant", "pad",
}
_DSP_OPS = set(_NPU_OPS)
_GPU_OPS = _NPU_OPS | {"softmax", "layer_norm", "attention", "embedding", "split",
                       "batch_norm", "lstm"}
_CPU_OPS = _GPU_OPS  # the CPU runs everything (it is also the fallback target)

OP_SUPPORT: dict[str, set[str]] = {
    "cpu": set(_CPU_OPS),
    "gpu": set(_GPU_OPS),
    "npu": set(_NPU_OPS),
    "dsp": set(_DSP_OPS),
    "apu": set(_NPU_OPS),
    "hta": set(_DSP_OPS),
    "hvx": set(_DSP_OPS),
    # Apple Neural Engine: fixed-function but with resize support
    "ane": set(_NPU_OPS) | {"resize_bilinear"},
}


@dataclass(frozen=True)
class AcceleratorSpec:
    """One processing engine inside an SoC.

    ``effective_tops`` maps numeric format -> sustained tera-ops/s (already
    derated from marketing peak). A missing format means the engine cannot
    execute it at all and the scheduler must place such ops elsewhere.
    """

    name: str
    kind: str  # key into OP_SUPPORT
    effective_tops: dict[Numerics, float]
    memory_gbps: float
    dispatch_overhead_us: float
    tdp_watts: float
    idle_watts: float = 0.05
    # fixed launch/fill cost per operator: small layers cannot saturate wide
    # engines, which is why op-heavy detection graphs run far below peak
    per_op_overhead_us: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in OP_SUPPORT:
            raise ValueError(f"unknown accelerator kind {self.kind!r}")
        if not self.effective_tops:
            raise ValueError(f"{self.name}: needs at least one numeric format")

    def supports(self, numerics: Numerics) -> bool:
        return numerics in self.effective_tops

    def supported_ops(self) -> set[str]:
        return OP_SUPPORT[self.kind]
