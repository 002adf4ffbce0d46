"""Mobile streaming speech recognition (paper App. E future work).

The paper lists a mobile RNN-T as in-the-works ("we're working with Google
and Facebook engineers to build a mobile model version"). This reference is
the streaming-encoder core of such a model: a stacked-LSTM acoustic encoder
over filterbank-style features with a per-frame token head, decoded greedily
with CTC-style collapse. It registers as an *experimental* task — not part
of the v0.7/v1.0 suites — exactly as the paper positions it.
"""

from __future__ import annotations

import numpy as np

from ..graph.builder import GraphBuilder
from .common import ModelBundle

__all__ = ["create_mobile_streaming_asr"]


def create_mobile_streaming_asr(
    *,
    num_frames: int = 300,
    feature_dim: int = 80,
    hidden: int = 640,
    num_layers: int = 2,
    vocab_size: int = 128,
    seed: int = 2022,
    materialize: bool = True,
) -> ModelBundle:
    """Build the streaming-ASR encoder graph.

    Output logits are (batch, T, vocab_size + 1); the final class is the
    CTC blank.
    """
    b = GraphBuilder(
        f"mobile_streaming_asr_t{num_frames}_h{hidden}", seed=seed,
        materialize=materialize,
    )
    x = b.input("features", (-1, num_frames, feature_dim))
    h = b.fc(x, hidden, activation="relu", name="frontend")
    for i in range(num_layers):
        h = b.lstm(h, hidden, name=f"encoder_{i}")
    logits = b.fc(h, vocab_size + 1, name="token_head")
    b.outputs(logits)
    graph = b.build()
    graph.metadata.update(task="speech_recognition", reference="Mobile streaming ASR")

    return ModelBundle(
        graph=graph,
        task="speech_recognition",
        input_name=x,
        output_names={"logits": logits},
        config={
            "num_frames": num_frames,
            "feature_dim": feature_dim,
            "hidden": hidden,
            "vocab_size": vocab_size,
            "blank_id": vocab_size,
        },
    )
