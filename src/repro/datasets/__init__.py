"""Synthetic datasets standing in for the Table-1 data sets."""

from .ade20k import SyntheticADE20K
from .base import IndexDataset, TaskDataset, feed_batches
from .coco import SyntheticCOCO
from .imagenet import SyntheticImageNet
from .registry import DATASET_REGISTRY, DEFAULT_SIZES, create_dataset
from .speech import SyntheticSpeech
from .squad import SyntheticSQuAD
from .superres import SyntheticSuperRes

__all__ = [
    "TaskDataset",
    "IndexDataset",
    "feed_batches",
    "SyntheticImageNet",
    "SyntheticCOCO",
    "SyntheticADE20K",
    "SyntheticSQuAD",
    "SyntheticSpeech",
    "SyntheticSuperRes",
    "DATASET_REGISTRY",
    "DEFAULT_SIZES",
    "create_dataset",
]
