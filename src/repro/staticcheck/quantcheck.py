"""Quantization soundness analyzer (rules QS001–QS007).

Static checks over INT8/UINT8 graphs. The central proof is QS001: for every
integer-kernel op (conv / depthwise / fully-connected) the accumulator the
kernel actually computes is bounded *statically*, and the bound must clear
int32, the accumulator width every mobile NPU/DSP commits to. The kernels
centre the weights once, ``w_c = w_q - zw``, and reduce over input codes
bounded by ``code_bound``:

- conv and fully-connected run the integer GEMM over raw codes,
  ``x_q @ w_c + (bias - zx * colsum(w_c))``, so ``code_bound`` is the input
  format's largest magnitude;
- depthwise centres the input first, ``(x_q - zx) @ w_c + bias``, so
  ``code_bound`` is ``max |x_q - zx|``.

Every partial sum of the reduction is then at most
``code_bound * max_n sum_K |w_c|`` in magnitude (the same quantity
:func:`~repro.kernels.linear.exact_operand_dtype` proves exactness with),
and the accumulator adds at most ``max |offset|`` to it. The actual
quantized weights are used when materialized; a symbolic graph gets the
format worst case.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..graph.ops import Add, Concat, Conv2D, DepthwiseConv2D, FullyConnected
from ..kernels.linear import max_column_l1
from ..kernels.numerics import QuantParams
from .findings import Finding

__all__ = ["check_quantization", "accumulator_bound"]

_INT32_MAX = 2**31 - 1
_SKIP_ROLES = {"ids", "mask"}

# scales outside this window mean a degenerate calibration or a corrupted
# qparam, not a real activation distribution
_SCALE_LO, _SCALE_HI = 1e-12, 1e6

# an add operand whose scale is this many times coarser than its partner's
# collapses the finer operand to a handful of codes after requantization
_ADD_SCALE_RATIO = 64.0


def _reduction_size(op, graph: Graph) -> int:
    w_shape = graph.param_shape(op.attrs["weight"])
    if isinstance(op, DepthwiseConv2D):
        kh, kw, _, _ = w_shape
        return kh * kw
    if isinstance(op, Conv2D):
        kh, kw, cin, _ = w_shape
        return kh * kw * cin
    return w_shape[0]  # fully connected: (in, out)


def accumulator_bound(op, graph: Graph) -> int:
    """Worst-case |accumulator| of one integer-kernel op, as its kernel
    computes it: ``code_bound * max_n sum_K |w_c| + max |offset|``."""
    x_qp = graph.spec(op.inputs[0]).qparams
    w_qp = graph.param_qparams.get(op.attrs["weight"])
    x_num = x_qp.numerics if x_qp is not None else graph.numerics
    zx = int(x_qp.zero_point[0]) if x_qp is not None else 0
    depthwise = isinstance(op, DepthwiseConv2D)
    if depthwise:
        code_bound = max(zx - x_num.qmin, x_num.qmax - zx)
    else:
        code_bound = max(-x_num.qmin, x_num.qmax)

    wq = graph.params.get(op.attrs["weight"])
    b_name = op.attrs.get("bias")
    bias = graph.params.get(b_name) if b_name else None
    offset_abs = 0 if bias is None else int(np.abs(bias.astype(np.int64)).max())
    if wq is not None and w_qp is not None:
        w = wq.astype(np.int64)
        if depthwise:  # (kh, kw, C, 1) reduced over (kh, kw) per channel
            w_c = (w[..., 0] - w_qp.zero_point.reshape(1, 1, -1)).reshape(-1, w.shape[2])
        else:  # conv (kh, kw, cin, cout) and fully-connected (in, out)
            w_c = w.reshape(-1, w.shape[-1]) - w_qp.zero_point.reshape(1, -1)
        w_l1 = max_column_l1(w_c)
        if not depthwise:
            offset = -zx * w_c.sum(axis=0)
            if bias is not None:
                offset = offset + bias.astype(np.int64)
            offset_abs = int(np.abs(offset).max())
    else:
        w_num = w_qp.numerics if w_qp is not None else graph.numerics
        zw = w_qp.zero_point if w_qp is not None else np.zeros(1, np.int64)
        w_dev = int(max(w_num.qmax - zw.min(), zw.max() - w_num.qmin))
        w_l1 = _reduction_size(op, graph) * w_dev
        if not depthwise:
            offset_abs += abs(zx) * w_l1
    return code_bound * w_l1 + offset_abs


def _check_qparams(qp: QuantParams, gname: str, where: str, *, op=None,
                   tensor=None) -> list[Finding]:
    out: list[Finding] = []
    scales = np.asarray(qp.scale, dtype=np.float64)
    if not np.all(np.isfinite(scales)) or scales.min() < _SCALE_LO or scales.max() > _SCALE_HI:
        out.append(Finding(
            "QS002", gname, op=op, tensor=tensor,
            message=f"{where}: scale {scales.min():.3e}..{scales.max():.3e} is "
                    f"degenerate (outside [{_SCALE_LO:g}, {_SCALE_HI:g}])"))
    zp = qp.zero_point
    qmin, qmax = qp.numerics.qmin, qp.numerics.qmax
    if zp.min() < qmin or zp.max() > qmax:
        out.append(Finding(
            "QS003", gname, op=op, tensor=tensor,
            message=f"{where}: zero point {int(zp.min())}..{int(zp.max())} outside "
                    f"{qp.numerics.value} range [{qmin}, {qmax}]"))
    return out


def check_quantization(graph: Graph) -> list[Finding]:
    """Rules QS001–QS007 over one quantized graph."""
    if not graph.numerics.is_quantized:
        return []
    out: list[Finding] = []
    gname = graph.name

    # QS002/QS003 over every activation and parameter qparam; QS007 coverage
    for name, spec in graph.tensor_specs.items():
        if spec.role in _SKIP_ROLES:
            continue
        if spec.qparams is None:
            out.append(Finding(
                "QS007", gname, tensor=name,
                message=f"data tensor {name!r} carries no qparams in a "
                        f"{graph.numerics.value} graph (float island boundary "
                        f"will be skipped)"))
            continue
        out += _check_qparams(spec.qparams, gname, f"tensor {name!r}", tensor=name)
    for pname, qp in graph.param_qparams.items():
        out += _check_qparams(qp, gname, f"parameter {pname!r}", tensor=pname)

    for op in graph.ops:
        # QS005: the op's own fallback decision, the one its prepare takes
        missing = op.missing_qparams(graph)
        if missing:
            out.append(Finding(
                "QS005", gname, op=op.name,
                message=f"integer-kernel op {op.name!r} ({op.op_type}) falls "
                        f"back to float: missing {'/'.join(missing)} qparams"))
        # QS001 + QS006 for integer-kernel MAC ops
        elif isinstance(op, (Conv2D, DepthwiseConv2D, FullyConnected)):
            x_qp = graph.spec(op.inputs[0]).qparams
            w_qp = graph.param_qparams[op.attrs["weight"]]
            bound = accumulator_bound(op, graph)
            if bound > _INT32_MAX:
                out.append(Finding(
                    "QS001", gname, op=op.name,
                    message=f"op {op.name!r} ({op.op_type}): worst-case "
                            f"accumulator |{bound}| exceeds int32 max "
                            f"{_INT32_MAX} (reduction size "
                            f"{_reduction_size(op, graph)})",
                    details={"bound": bound, "int32_max": _INT32_MAX}))
            b_name = op.attrs.get("bias")
            b_qp = graph.param_qparams.get(b_name) if b_name else None
            if b_qp is not None:
                expected = x_qp.scale[0] * w_qp.scale
                got = np.asarray(b_qp.scale, dtype=np.float64)
                if got.shape != expected.shape or not np.allclose(
                        got, expected, rtol=1e-9, atol=0.0):
                    out.append(Finding(
                        "QS006", gname, op=op.name, tensor=b_name,
                        message=f"bias {b_name!r} of {op.name!r} quantized at "
                                f"scale != input_scale * weight_scale; the "
                                f"int32 bias would be misinterpreted"))

        # QS004: concat inputs must fit the shared output domain exactly
        if isinstance(op, Concat):
            out_qp = graph.spec(op.outputs[0]).qparams
            if out_qp is not None:
                out_lo, out_hi = out_qp.representable_range()
                tol = float(np.max(out_qp.scale)) + 1e-9
                for t in op.inputs:
                    in_qp = graph.spec(t).qparams
                    if in_qp is None:
                        continue
                    in_lo, in_hi = in_qp.representable_range()
                    if in_lo < out_lo - tol or in_hi > out_hi + tol:
                        out.append(Finding(
                            "QS004", gname, op=op.name, tensor=t,
                            message=f"concat {op.name!r}: input {t!r} range "
                                    f"[{in_lo:.4g}, {in_hi:.4g}] exceeds the shared "
                                    f"output domain [{out_lo:.4g}, {out_hi:.4g}]; "
                                    f"requantization will clip",
                            details={"input_range": [in_lo, in_hi],
                                     "output_range": [out_lo, out_hi]}))
        # QS004 (add flavour): wildly mismatched operand scales
        if isinstance(op, Add) and len(op.inputs) == 2:
            qa = graph.spec(op.inputs[0]).qparams
            qb = graph.spec(op.inputs[1]).qparams
            if qa is not None and qb is not None:
                sa, sb = float(np.max(qa.scale)), float(np.max(qb.scale))
                ratio = max(sa, sb) / min(sa, sb)
                if ratio > _ADD_SCALE_RATIO:
                    coarse = op.inputs[0] if sa > sb else op.inputs[1]
                    out.append(Finding(
                        "QS004", gname, op=op.name, tensor=coarse,
                        message=f"add {op.name!r}: operand scales differ by "
                                f"{ratio:.0f}x; the finer operand collapses to a "
                                f"few codes after requantization"))
    return out
