"""Rules-compliant model optimization: PTQ, FP16 conversion, bias correction."""

from .bias_correction import apply_bias_correction
from .cle import equalize_cross_layer
from .observers import (
    MinMaxObserver,
    MovingAverageObserver,
    PercentileObserver,
    make_observer,
)
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
    "apply_bias_correction",
    "equalize_cross_layer",
    "MinMaxObserver",
    "MovingAverageObserver",
    "PercentileObserver",
    "make_observer",
]
