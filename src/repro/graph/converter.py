"""Model export pipeline: freeze -> fold batch norms -> fuse activations.

This is the analogue of the TFLite exporter in Figure 5 (code path 2): the
reference TensorFlow checkpoint becomes a mobile-friendly frozen graph. The
run rules require submissions to *start* from the frozen reference graph, so
``export_mobile`` records the source checksum in the exported metadata; the
submission checker verifies it.
"""

from __future__ import annotations

from ..kernels.normalization import fold_batch_norm
from .graph import Graph
from .ops import Activation, BatchNorm, Conv2D, DepthwiseConv2D, FullyConnected

__all__ = ["fold_batch_norms", "fuse_activations", "export_mobile"]

_CONV_TYPES = (Conv2D, DepthwiseConv2D)
_FUSABLE_ACTS = {"relu", "relu6"}


def fold_batch_norms(graph: Graph) -> Graph:
    """Fold every conv->BN pair into the convolution weights/bias."""
    g = graph.clone()
    producers = g.producers()
    consumers = g.consumers()
    removed: list[BatchNorm] = []
    for op in list(g.ops):
        if not isinstance(op, BatchNorm):
            continue
        src = producers.get(op.inputs[0])
        if not isinstance(src, _CONV_TYPES):
            continue
        if len(consumers.get(op.inputs[0], [])) != 1:
            continue  # conv output used elsewhere; cannot fold
        w_name = src.attrs["weight"]
        new_b = f"{src.name}/b_folded"
        if g.params[w_name] is None:
            # symbolic graph: fold structurally (shapes only, no arithmetic)
            bias_shape = g.param_shapes[op.attrs["gamma"]]
            g.params[new_b] = None
            g.param_shapes[new_b] = bias_shape
        else:
            folded_w, folded_b = fold_batch_norm(
                g.params[w_name],
                g.params.get(src.attrs.get("bias")),
                g.params[op.attrs["mean"]],
                g.params[op.attrs["variance"]],
                g.params[op.attrs["gamma"]],
                g.params[op.attrs["beta"]],
                op.attrs.get("eps", 1e-3),
                depthwise=isinstance(src, DepthwiseConv2D),
            )
            g.params[w_name] = folded_w
            g.params[new_b] = folded_b
            g.param_shapes[new_b] = tuple(folded_b.shape)
        src.attrs["bias"] = new_b
        # conv now produces the BN's output tensor directly
        old_out = src.outputs[0]
        bn_out = op.outputs[0]
        g.ops.remove(op)
        removed.append(op)
        src.outputs[0] = bn_out
        spec = g.tensor_specs[bn_out]
        del g.tensor_specs[old_out]
        g.tensor_specs[bn_out] = spec
        for pname in (op.attrs["mean"], op.attrs["variance"], op.attrs["gamma"], op.attrs["beta"]):
            g.params.pop(pname, None)
            g.param_shapes.pop(pname, None)
        producers = g.producers()
        consumers = g.consumers()
    g.metadata["folded_batch_norms"] = len(removed)
    g.validate()
    return g


def fuse_activations(graph: Graph) -> Graph:
    """Fuse standalone relu/relu6 ops into the producing conv/fc.

    These are the clamps a TFLite conv or fc kernel fuses; sigmoid and gelu
    stay standalone ``Activation`` ops.
    """
    g = graph.clone()
    producers = g.producers()
    consumers = g.consumers()
    fused = 0
    for op in list(g.ops):
        if not isinstance(op, Activation) or op.attrs["kind"] not in _FUSABLE_ACTS:
            continue
        src = producers.get(op.inputs[0])
        if not isinstance(src, (*_CONV_TYPES, FullyConnected)):
            continue
        if src.attrs.get("activation") is not None:
            continue
        if len(consumers.get(op.inputs[0], [])) != 1:
            continue
        src.attrs["activation"] = op.attrs["kind"]
        old_out = src.outputs[0]
        act_out = op.outputs[0]
        g.ops.remove(op)
        src.outputs[0] = act_out
        del g.tensor_specs[old_out]
        fused += 1
        producers = g.producers()
        consumers = g.consumers()
    g.metadata["fused_activations"] = fused
    g.validate()
    return g


def export_mobile(graph: Graph) -> Graph:
    """Full export: fold BN, fuse activations, freeze, stamp provenance.

    The exported graph also carries a static-verification attestation
    (``metadata["staticcheck"]``): the exporter runs the dataflow,
    quantization and placement analyzers and stamps their verdict keyed to
    the frozen checksum, so downstream submission checks can prove the
    shipped graph was verified — and detect post-export tampering.
    """
    source_checksum = graph.checksum()
    g = fold_batch_norms(graph)
    g = fuse_activations(g)
    g.metadata["source_checksum"] = source_checksum
    g.metadata["export_format"] = "mobile-v1"
    g.metadata["export_checksum"] = g.freeze()
    # deferred import: staticcheck imports the graph package at module scope
    from ..staticcheck.verifier import attest

    attest(g, g.metadata["export_checksum"])
    return g
