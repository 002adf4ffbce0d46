"""Synthetic SQuAD v1.1 (mini dev) stand-in for the question-answering task."""

from __future__ import annotations

import numpy as np

from ..graph.executor import Executor
from ..graph.graph import Graph
from ..metrics.squad import squad_scores
from ..pipelines.postprocess import extract_answer_span
from .base import TaskDataset, batched_indices
from ..synthdata import token_sequence_batch

__all__ = ["SyntheticSQuAD"]

# longest answer span, in tokens, that labelling and prediction extract
MAX_ANSWER_LENGTH = 12


class SyntheticSQuAD(TaskDataset):
    """Oracle-labelled extractive-QA set.

    The ground-truth answer span equals the FP32 oracle's extracted span with
    probability ``oracle_fidelity``, otherwise a random passage span — so the
    FP32 F1 lands near ``fidelity x 100`` and quantized F1 tracks span drift
    caused by logit perturbation (the paper's Insight 5 mechanism).
    """

    name = "squad"
    task = "question_answering"
    metric_name = "f1"

    def __init__(self, ids, masks, context_starts, truths, cal_ids, cal_masks):
        self.ids = ids
        self.masks = masks
        self.context_starts = context_starts
        self.truths = truths
        self._cal_ids = cal_ids
        self._cal_masks = cal_masks

    @classmethod
    def generate(
        cls,
        oracle_graph: Graph,
        model_config: dict,
        *,
        size: int = 256,
        calibration_size: int = 64,
        seed: int = 45,
        oracle_fidelity: float = 0.90,
        batch_size: int = 32,
    ) -> "SyntheticSQuAD":
        seq_len = model_config["seq_len"]
        vocab = model_config["vocab_size"]
        rng = np.random.default_rng(seed)

        ids, masks, ctx = token_sequence_batch(size, seq_len, vocab, seed)
        ex = Executor(oracle_graph)
        start_name, end_name = oracle_graph.output_names
        truths: list[tuple[int, int]] = []
        oracle_spans: list[tuple[int, int]] = []
        for idx in batched_indices(size, batch_size):
            out = ex.run({"input_ids": ids[idx], "input_mask": masks[idx]})
            for j, i in enumerate(idx):
                span = extract_answer_span(
                    out[start_name][j], out[end_name][j],
                    max_answer_length=MAX_ANSWER_LENGTH,
                    context_start=int(ctx[i]),
                )
                oracle_spans.append(span)
        for i in range(size):
            if rng.random() < oracle_fidelity:
                truths.append(oracle_spans[i])
            else:
                seq_used = int(masks[i].sum())
                lo = int(ctx[i])
                start = int(rng.integers(lo, max(seq_used - 1, lo + 1)))
                length = int(rng.integers(1, MAX_ANSWER_LENGTH + 1))
                truths.append((start, min(start + length - 1, seq_used - 1)))

        cal_ids, cal_masks, _ = token_sequence_batch(
            calibration_size, seq_len, vocab, seed + 10_000
        )
        return cls(ids, masks, ctx, truths, cal_ids, cal_masks)

    def __len__(self) -> int:
        return len(self.truths)

    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        indices = np.asarray(indices)
        return {"input_ids": self.ids[indices], "input_mask": self.masks[indices]}

    def ground_truth(self, index: int) -> tuple[int, int]:
        return self.truths[index]

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> tuple[int, int]:
        start = outputs[next(k for k in outputs if "start" in k)]
        end = outputs[next(k for k in outputs if "end" in k)]
        return extract_answer_span(start, end, max_answer_length=MAX_ANSWER_LENGTH,
                                   context_start=int(self.context_starts[index]))

    def evaluate(self, predictions: dict[int, tuple[int, int]]) -> dict[str, float]:
        idx = sorted(predictions)
        scores = squad_scores([predictions[i] for i in idx], [self.truths[i] for i in idx])
        return {"f1": scores["f1"], "exact_match": scores["exact_match"]}

    def calibration_batches(self, batch_size: int = 16) -> list[dict[str, np.ndarray]]:
        return [
            {
                "input_ids": self._cal_ids[i : i + batch_size],
                "input_mask": self._cal_masks[i : i + batch_size],
            }
            for i in range(0, len(self._cal_ids), batch_size)
        ]
