"""MobileBERT — the question-answering (SQuAD v1.1) reference model.

Implements the bottleneck-transformer structure of Sun et al. (2020): a wide
body dimension with narrow intra-block bottlenecks, multi-head attention in
the bottleneck space, and a stack of small feed-forward networks per layer.
The QA head projects every token to start/end logits. ~25M parameters at
full size (seq len 384, 24 layers).
"""

from __future__ import annotations

import numpy as np

from ..graph.builder import GraphBuilder
from .common import ModelBundle, calibrate_batch_norms, standardize_head

__all__ = ["create_mobilebert", "probe_token_batch"]


def probe_token_batch(
    seq_len: int, vocab_size: int, n: int = 16, seed: int = 77
) -> dict[str, np.ndarray]:
    """Deterministic probe batch of token ids + full attention mask."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab_size, size=(n, seq_len)).astype(np.float32)
    mask = np.ones((n, seq_len), dtype=np.float32)
    return {"input_ids": ids, "input_mask": mask}


def _transformer_layer(
    b: GraphBuilder,
    x: str,
    *,
    body: int,
    bottleneck: int,
    num_heads: int,
    ffn_stack: int,
    mask: str,
    idx: int,
) -> str:
    """One MobileBERT layer: bottleneck-in, attention, FFN stack, bottleneck-out."""
    p = f"layer_{idx}"
    inner = b.fc(x, bottleneck, name=f"{p}/bottleneck_in")

    q = b.fc(inner, bottleneck, name=f"{p}/q")
    k = b.fc(inner, bottleneck, name=f"{p}/k")
    v = b.fc(inner, bottleneck, name=f"{p}/v")
    attn = b.attention(q, k, v, num_heads=num_heads, mask=mask, name=f"{p}/attn")
    attn = b.fc(attn, bottleneck, name=f"{p}/attn_out")
    h = b.add(inner, attn, name=f"{p}/attn_residual")
    h = b.layer_norm(h, name=f"{p}/attn_ln")

    for j in range(ffn_stack):
        ff = b.fc(h, bottleneck * 4, activation="gelu", name=f"{p}/ffn{j}/up")
        ff = b.fc(ff, bottleneck, name=f"{p}/ffn{j}/down")
        h = b.add(h, ff, name=f"{p}/ffn{j}/residual")
        h = b.layer_norm(h, name=f"{p}/ffn{j}/ln")

    out = b.fc(h, body, name=f"{p}/bottleneck_out")
    out = b.add(x, out, name=f"{p}/out_residual")
    return b.layer_norm(out, name=f"{p}/out_ln")


def create_mobilebert(
    *,
    seq_len: int = 384,
    vocab_size: int = 30522,
    body: int = 512,
    bottleneck: int = 128,
    num_layers: int = 24,
    num_heads: int = 4,
    ffn_stack: int = 4,
    seed: int = 2019,
    materialize: bool = True,
) -> ModelBundle:
    """Build the MobileBERT QA graph (start/end span logits per token)."""
    b = GraphBuilder(
        f"mobilebert_l{num_layers}_s{seq_len}", seed=seed, materialize=materialize
    )
    ids = b.input("input_ids", (-1, seq_len), role="ids")
    mask = b.input("input_mask", (-1, seq_len), role="mask")
    h = b.embedding(ids, vocab_size, bottleneck, max_positions=seq_len, name="embeddings")
    h = b.fc(h, body, name="embedding_projection")
    h = b.layer_norm(h, name="embedding_ln")
    for i in range(num_layers):
        h = _transformer_layer(
            b, h, body=body, bottleneck=bottleneck, num_heads=num_heads,
            ffn_stack=ffn_stack, mask=mask, idx=i,
        )
    span = b.fc(h, 2, name="qa_head")
    start_raw, end_raw = b.split(span, 2, name="qa_split")
    start_logits = b.reshape(start_raw, (seq_len,), name="start_logits")
    end_logits = b.reshape(end_raw, (seq_len,), name="end_logits")
    b.outputs(start_logits, end_logits)
    graph = b.build()
    graph.metadata.update(task="question_answering", reference="MobileBERT")

    if materialize:
        # no batch norms: the sweep only runs the probe batch
        probes = calibrate_batch_norms(
            graph, probe_token_batch(seq_len, vocab_size, n=16, seed=seed + 1))
        standardize_head(graph, probes["qa_head/out"], "qa_head/w", "qa_head/b", target_std=2.5)

    return ModelBundle(
        graph=graph,
        task="question_answering",
        input_name=ids,
        output_names={"start_logits": start_logits, "end_logits": end_logits},
        config={
            "seq_len": seq_len,
            "vocab_size": vocab_size,
            "body": body,
            "bottleneck": bottleneck,
            "num_layers": num_layers,
            "num_heads": num_heads,
        },
    )
