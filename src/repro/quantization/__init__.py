"""Rules-compliant model optimization: PTQ calibration, INT8/UINT8
quantization, FP16 conversion, and cross-layer equalization."""

from .cle import equalize_cross_layer
from .ptq import (
    CalibrationResult,
    calibrate,
    convert_fp16,
    quantize_graph,
)

__all__ = [
    "CalibrationResult",
    "calibrate",
    "quantize_graph",
    "convert_fp16",
    "equalize_cross_layer",
]
