"""Synthetic streaming-speech dataset (App. E speech-recognition task)."""

from __future__ import annotations

import numpy as np

from ..metrics.speech import token_accuracy, word_error_rate
from ..pipelines.postprocess import greedy_ctc_decode
from ..synthdata import speech_sequence_batch
from .base import TaskDataset

__all__ = ["SyntheticSpeech"]

CALIBRATION_SIZE = 32


class SyntheticSpeech(TaskDataset):
    name = "speech"
    task = "speech_recognition"
    metric_name = "token_accuracy"

    def __init__(self, feeds, truths, calibration, blank_id):
        super().__init__(feeds, truths, calibration)
        self.blank_id = blank_id

    @classmethod
    def generate(cls, model_config: dict, *, size: int, seed: int = 46) -> "SyntheticSpeech":
        dims = (model_config["num_frames"], model_config["feature_dim"],
                model_config["vocab_size"])
        feats, transcripts, _ = speech_sequence_batch(size, *dims, seed)
        cal, _, _ = speech_sequence_batch(CALIBRATION_SIZE, *dims, seed + 10_000)
        return cls({"features": feats}, transcripts, {"features": cal},
                   model_config["blank_id"])

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> list[int]:
        logits = next(iter(outputs.values()))
        return greedy_ctc_decode(logits, blank_id=self.blank_id)

    def score(self, predictions: list[list[int]], truths: list[list[int]]) -> dict[str, float]:
        return {
            "token_accuracy": token_accuracy(predictions, truths),
            "wer": word_error_rate(predictions, truths) * 100.0,
        }
