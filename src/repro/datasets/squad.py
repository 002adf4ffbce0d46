"""Synthetic SQuAD v1.1 (mini dev) stand-in for the question-answering task.

Labelling runs the FP32 oracle over the whole validation set. Like MLPerf
Mobile's labelled validation sets, the oracle's spans of the default set ship
in the store (:mod:`repro.store`), as kind ``squad_spans``, under the key
:func:`oracle_key`: :meth:`SyntheticSQuAD.generate` reads them on an exact key
match and runs the oracle pass otherwise.
``tools/references.py --check squad_spans`` checks the file against a fresh
oracle pass; ``--write squad_spans`` rewrites it.
"""

from __future__ import annotations

import numpy as np

from .. import store
from ..graph.executor import Executor
from ..graph.graph import Graph
from ..metrics.squad import squad_scores
from ..pipelines.postprocess import extract_answer_span
from ..synthdata import token_sequence_batch
from .base import TaskDataset, feed_batches

__all__ = ["SyntheticSQuAD", "oracle_key", "run_oracle"]

CALIBRATION_SIZE = 64
# longest answer span, in tokens, that labelling and prediction extract
MAX_ANSWER_LENGTH = 12
# probability that a ground-truth span is the FP32 oracle's own span
ORACLE_FIDELITY = 0.90
ORACLE_BATCH = 32  # samples per oracle-labelling executor run
SEED = 45  # default dataset seed
# Part of the stored spans' key: bump it with any change to how a sample is
# labelled (token synthesis, the oracle pass, span extraction), so that no
# stored spans are served for the new recipe.
ORACLE_VERSION = 1
SPANS = "squad_spans"  # the store's kind of stored oracle spans
STORED_SET = "default"  # its one file: the spans of the default set


def oracle_key(oracle_graph: Graph, model_config: dict, *, size: int, seed: int) -> str:
    """Key of one labelling: recipe version, oracle graph, token shape, set size
    and seed, and the span extraction and batch constants."""
    return store.key({
        "oracle_version": ORACLE_VERSION,
        "graph": oracle_graph.checksum(),
        "seq_len": model_config["seq_len"],
        "vocab_size": model_config["vocab_size"],
        "size": size,
        "seed": seed,
        "max_answer_length": MAX_ANSWER_LENGTH,
        "oracle_batch": ORACLE_BATCH,
    })


def run_oracle(oracle_graph: Graph, feeds: dict[str, np.ndarray],
               context_starts: np.ndarray) -> list[tuple[int, int]]:
    """The oracle's answer span of every sample, in ``ORACLE_BATCH`` batches."""
    ex = Executor(oracle_graph)
    start_name, end_name = oracle_graph.output_names
    spans: list[tuple[int, int]] = []
    for feed in feed_batches(feeds, ORACLE_BATCH):
        out = ex.run(feed)
        for start_logits, end_logits in zip(out[start_name], out[end_name]):
            spans.append(extract_answer_span(
                start_logits, end_logits, max_answer_length=MAX_ANSWER_LENGTH,
                context_start=int(context_starts[len(spans)]),
            ))
    return spans


class SyntheticSQuAD(TaskDataset):
    """Oracle-labelled extractive-QA set.

    The ground-truth answer span equals the FP32 oracle's extracted span with
    probability ``ORACLE_FIDELITY``, otherwise a random passage span — so the
    FP32 F1 lands near ``fidelity x 100`` and quantized F1 tracks span drift
    caused by logit perturbation (the paper's Insight 5 mechanism).
    """

    name = "squad"
    task = "question_answering"
    metric_name = "f1"

    def __init__(self, feeds, truths, calibration, context_starts):
        super().__init__(feeds, truths, calibration)
        self.context_starts = context_starts

    @classmethod
    def generate(
        cls, oracle_graph: Graph, model_config: dict, *, size: int, seed: int = SEED
    ) -> "SyntheticSQuAD":
        seq_len = model_config["seq_len"]
        vocab = model_config["vocab_size"]
        rng = np.random.default_rng(seed)

        ids, masks, ctx = token_sequence_batch(size, seq_len, vocab, seed)
        feeds = {"input_ids": ids, "input_mask": masks}
        stored = store.load(SPANS, STORED_SET,
                            oracle_key(oracle_graph, model_config, size=size, seed=seed))
        if stored is None:
            oracle_spans = run_oracle(oracle_graph, feeds, ctx)
        else:
            oracle_spans = [tuple(span) for span in stored["spans"].tolist()]
        truths: list[tuple[int, int]] = []
        for i in range(size):
            if rng.random() < ORACLE_FIDELITY:
                truths.append(oracle_spans[i])
            else:
                seq_used = int(masks[i].sum())
                lo = int(ctx[i])
                start = int(rng.integers(lo, max(seq_used - 1, lo + 1)))
                length = int(rng.integers(1, MAX_ANSWER_LENGTH + 1))
                truths.append((start, min(start + length - 1, seq_used - 1)))

        cal_ids, cal_masks, _ = token_sequence_batch(
            CALIBRATION_SIZE, seq_len, vocab, seed + 10_000
        )
        return cls(feeds, truths, {"input_ids": cal_ids, "input_mask": cal_masks}, ctx)

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> tuple[int, int]:
        start = outputs[next(k for k in outputs if "start" in k)]
        end = outputs[next(k for k in outputs if "end" in k)]
        return extract_answer_span(start, end, max_answer_length=MAX_ANSWER_LENGTH,
                                   context_start=int(self.context_starts[index]))

    def score(self, predictions: list[tuple[int, int]],
              truths: list[tuple[int, int]]) -> dict[str, float]:
        scores = squad_scores(predictions, truths)
        return {"f1": scores["f1"], "exact_match": scores["exact_match"]}
