"""NumPy compute kernels: the lowest layer of the stack.

Everything above (graph executor, models, quantization) is built on these
pure functions. Float kernels take/return float32 NHWC arrays; quantized
kernels operate on integer arrays tagged with :class:`QuantParams`.
"""

from .activations import (
    apply_quantized_lut,
    gelu,
    hard_sigmoid,
    hard_swish,
    log_softmax,
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
    fake_quant,
    quantize,
    requantize,
)
from .recurrent import depth_to_space, lstm_cell, lstm_sequence
from .pooling import (
    avg_pool2d,
    global_avg_pool,
    max_pool2d,
    resize_bilinear,
    resize_nearest,
)

__all__ = [
    "Numerics",
    "QuantParams",
    "quantize",
    "dequantize",
    "requantize",
    "choose_qparams",
    "fake_quant",
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
    "hard_swish",
    "hard_sigmoid",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "log_softmax",
    "quantized_lut",
    "apply_quantized_lut",
    "batch_norm",
    "layer_norm",
    "fold_batch_norm",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool",
    "resize_bilinear",
    "resize_nearest",
    "multi_head_attention",
    "lstm_cell",
    "lstm_sequence",
    "depth_to_space",
]
