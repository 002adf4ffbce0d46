"""Tensor metadata for the graph IR."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..kernels.numerics import Numerics, QuantParams

__all__ = ["TensorSpec"]


@dataclass
class TensorSpec:
    """Static description of one activation tensor in a graph.

    ``shape`` uses -1 for the (leading) batch dimension; all other dims are
    concrete. ``qparams`` is populated by the quantization pass. ``role``
    distinguishes ordinary activations ("data") from integer token ids
    ("ids") and attention masks ("mask"), which are never quantized.
    """

    name: str
    shape: tuple[int, ...]
    numerics: Numerics = Numerics.FP32
    qparams: QuantParams | None = None
    role: str = "data"

    def __post_init__(self) -> None:
        self.shape = tuple(int(d) for d in self.shape)

    @property
    def elements_per_sample(self) -> int:
        n = 1
        for d in self.shape:
            if d != -1:
                n *= d
        return n

    def bytes_per_sample(self) -> float:
        return self.elements_per_sample * self.numerics.bytes_per_element

    def with_batch(self, batch: int) -> tuple[int, ...]:
        return tuple(batch if d == -1 else d for d in self.shape)

    def copy(self, **changes) -> "TensorSpec":
        return replace(self, **changes)
