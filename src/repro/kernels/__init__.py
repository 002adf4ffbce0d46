"""NumPy compute kernels: the lowest layer of the stack.

Everything above (graph executor, models, quantization) is built on these
pure functions. Float kernels take/return float32 NHWC arrays; quantized
kernels operate on integer arrays tagged with :class:`QuantParams`.
"""

from .activations import (
    apply_quantized_lut,
    gelu,
    quantized_lut,
    relu,
    relu6,
    sigmoid,
    softmax,
    tanh,
)
from .attention import multi_head_attention
from .conv import (
    conv_output_shape,
    im2col,
    pad_input,
    prepare_conv2d,
    prepare_conv2d_quantized,
    prepare_depthwise_conv2d,
    prepare_depthwise_conv2d_quantized,
)
from .linear import (
    batched_matmul,
    prepare_fully_connected,
    prepare_fully_connected_quantized,
    prepare_integer_gemm,
)
from .normalization import batch_norm, fold_batch_norm, layer_norm
from .numerics import (
    Numerics,
    QuantParams,
    cast_fp16,
    choose_qparams,
    dequantize,
    quantize,
    requantize,
)
from .recurrent import depth_to_space, lstm_cell, lstm_sequence
from .pooling import global_avg_pool, resize_bilinear

__all__ = [
    "Numerics",
    "QuantParams",
    "quantize",
    "dequantize",
    "requantize",
    "choose_qparams",
    "cast_fp16",
    "conv_output_shape",
    "im2col",
    "pad_input",
    "prepare_conv2d",
    "prepare_conv2d_quantized",
    "prepare_depthwise_conv2d",
    "prepare_depthwise_conv2d_quantized",
    "prepare_fully_connected",
    "prepare_fully_connected_quantized",
    "prepare_integer_gemm",
    "batched_matmul",
    "relu",
    "relu6",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "quantized_lut",
    "apply_quantized_lut",
    "batch_norm",
    "layer_norm",
    "fold_batch_norm",
    "global_avg_pool",
    "resize_bilinear",
    "multi_head_attention",
    "lstm_cell",
    "lstm_sequence",
    "depth_to_space",
]
