"""Numeric formats and quantization parameters used across the stack.

MLPerf Mobile submissions span FP32, FP16, INT8 and UINT8 (paper Table 2).
Every tensor in the graph IR carries a :class:`Numerics` tag and, when the
format is an integer one, a :class:`QuantParams` describing the affine
quantization ``real = scale * (q - zero_point)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Numerics",
    "QuantParams",
    "quantize",
    "dequantize",
    "requantize",
    "choose_qparams",
    "fake_quant",
    "cast_fp16",
]


class Numerics(enum.Enum):
    """Numeric execution format for a tensor or an operator."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"
    UINT8 = "uint8"
    INT16 = "int16"

    @property
    def is_float(self) -> bool:
        return self in (Numerics.FP32, Numerics.FP16)

    @property
    def is_quantized(self) -> bool:
        return not self.is_float

    @property
    def bits(self) -> int:
        return {"fp32": 32, "fp16": 16, "int8": 8, "uint8": 8, "int16": 16}[self.value]

    @property
    def bytes_per_element(self) -> float:
        return self.bits / 8.0

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(
            {
                "fp32": np.float32,
                "fp16": np.float16,
                "int8": np.int8,
                "uint8": np.uint8,
                "int16": np.int16,
            }[self.value]
        )

    @property
    def qmin(self) -> int:
        if self.is_float:
            raise ValueError(f"{self} is not a quantized format")
        return int(np.iinfo(self.np_dtype).min)

    @property
    def qmax(self) -> int:
        if self.is_float:
            raise ValueError(f"{self} is not a quantized format")
        return int(np.iinfo(self.np_dtype).max)

    @classmethod
    def parse(cls, value: "str | Numerics") -> "Numerics":
        if isinstance(value, Numerics):
            return value
        return cls(value.lower())


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters: ``real = scale * (q - zero_point)``.

    ``scale`` and ``zero_point`` are scalars for per-tensor quantization, or
    1-D arrays (indexed by ``axis``) for per-channel quantization of weights.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    numerics: Numerics = Numerics.INT8
    axis: int | None = None  # None => per-tensor

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", np.atleast_1d(np.asarray(self.scale, dtype=np.float64)))
        object.__setattr__(
            self, "zero_point", np.atleast_1d(np.asarray(self.zero_point, dtype=np.int64))
        )
        if np.any(self.scale <= 0):
            raise ValueError("quantization scale must be strictly positive")
        if self.scale.shape != self.zero_point.shape:
            raise ValueError("scale and zero_point must have matching shapes")
        if self.axis is None and self.scale.size != 1:
            raise ValueError("per-tensor QuantParams must have scalar scale")

    @property
    def per_channel(self) -> bool:
        return self.axis is not None

    def broadcast_shape(self, ndim: int) -> tuple[int, ...]:
        """Shape that broadcasts scale/zero_point against an ``ndim`` tensor."""
        if self.axis is None:
            return (1,) * ndim
        shape = [1] * ndim
        shape[self.axis] = self.scale.size
        return tuple(shape)

    def representable_range(self) -> tuple[float, float]:
        """Real-valued interval this format can store: ``scale·(q − zp)`` over
        ``[qmin, qmax]``, hulled over channels for per-channel params."""
        qmin, qmax = self.numerics.qmin, self.numerics.qmax
        zp = self.zero_point.astype(np.float64)
        lo = float(np.min(self.scale * (qmin - zp)))
        hi = float(np.max(self.scale * (qmax - zp)))
        return lo, hi


def choose_qparams(
    min_val: float | np.ndarray,
    max_val: float | np.ndarray,
    numerics: Numerics = Numerics.INT8,
    *,
    symmetric: bool = False,
    axis: int | None = None,
) -> QuantParams:
    """Derive affine quantization parameters from an observed value range.

    Mirrors TFLite conventions: the representable range always includes 0,
    symmetric mode pins the zero point to 0 (int8) or mid-range (uint8).
    """
    lo = np.minimum(np.asarray(min_val, dtype=np.float64), 0.0)
    hi = np.maximum(np.asarray(max_val, dtype=np.float64), 0.0)
    qmin, qmax = numerics.qmin, numerics.qmax
    if symmetric:
        bound = np.maximum(np.abs(lo), np.abs(hi))
        bound = np.where(bound == 0, 1e-8, bound)
        # a subnormal bound can underflow the division to exactly 0.0
        scale = np.maximum(bound / ((qmax - qmin) / 2.0), np.finfo(np.float64).tiny)
        zero_point = np.full_like(np.atleast_1d(scale), (qmax + qmin + 1) // 2, dtype=np.int64)
    else:
        span = hi - lo
        span = np.where(span == 0, 1e-8, span)
        scale = np.maximum(span / (qmax - qmin), np.finfo(np.float64).tiny)
        zero_point = np.clip(np.round(qmin - lo / scale), qmin, qmax).astype(np.int64)
    return QuantParams(scale=scale, zero_point=zero_point, numerics=numerics, axis=axis)


def _to_codes(scaled: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Round half to even, ``+ zero_point``, clip, cast: the tail of
    :func:`quantize`, in place on the float64 ``scaled = values / scale``."""
    np.rint(scaled, out=scaled)
    scaled += qp.zero_point.reshape(qp.broadcast_shape(scaled.ndim))
    np.clip(scaled, qp.numerics.qmin, qp.numerics.qmax, out=scaled)
    return scaled.astype(qp.numerics.np_dtype)


def quantize(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Quantize float values to the integer domain of ``qp``.

    ``values / scale`` is taken in float64 into one fresh buffer, and every
    later step runs in place on it."""
    values = np.asarray(values)
    scale = qp.scale.reshape(qp.broadcast_shape(values.ndim))
    return _to_codes(np.divide(values, scale, dtype=np.float64), qp)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Map integer-domain values back to float32: ``(q - zp) * scale`` in
    float64, in one buffer, then cast."""
    q = np.asarray(q)
    shape = qp.broadcast_shape(q.ndim)
    real = np.subtract(q, qp.zero_point.reshape(shape), dtype=np.float64)
    real *= qp.scale.reshape(shape)
    return real.astype(np.float32)


def requantize(acc: np.ndarray, in_scale: np.ndarray, out_qp: QuantParams) -> np.ndarray:
    """Rescale an integer accumulator into the output quantized domain.

    ``acc`` holds the accumulator's integer values as float64, exact below
    2**53, and is consumed: ``acc * in_scale``, then :func:`quantize`'s
    ``/ scale``, rounding, zero point and clip run in place on its buffer.
    ``in_scale`` is the effective accumulator scale (input_scale *
    weight_scale, possibly per output channel and already broadcast against
    ``acc``).
    """
    acc *= in_scale
    acc /= out_qp.scale.reshape(out_qp.broadcast_shape(acc.ndim))
    return _to_codes(acc, out_qp)


def fake_quant(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Quantize then dequantize — the numeric error of one quantization hop."""
    return dequantize(quantize(values, qp), qp)


def cast_fp16(values: np.ndarray) -> np.ndarray:
    """Round-trip through IEEE half precision, returning float32.

    This is how FP16 execution is modelled: every op output passes through
    half precision, accumulators stay in float32 (matching GPU FP16 paths).
    """
    return np.asarray(values, dtype=np.float16).astype(np.float32)
