"""Dataset factory keyed by the Table-1 dataset names."""

from __future__ import annotations

from ..graph.graph import Graph
from .ade20k import SyntheticADE20K
from .base import TaskDataset
from .coco import SyntheticCOCO
from .imagenet import SyntheticImageNet
from .speech import SyntheticSpeech
from .squad import SyntheticSQuAD
from .superres import SyntheticSuperRes

__all__ = ["DATASET_REGISTRY", "DEFAULT_SIZES", "create_dataset"]

DATASET_REGISTRY = {
    "imagenet": SyntheticImageNet,
    "coco": SyntheticCOCO,
    "ade20k": SyntheticADE20K,
    "squad": SyntheticSQuAD,
    # App. E experimental tasks
    "speech": SyntheticSpeech,
    "superres": SyntheticSuperRes,
}

# validation-set sizes: scaled-down analogues of the real set sizes, chosen
# so a full accuracy pass stays tractable for the NumPy executor
DEFAULT_SIZES = {
    "imagenet": 512,
    "coco": 192,
    "ade20k": 96,
    "squad": 192,
    "speech": 96,
    "superres": 48,
}


def create_dataset(
    name: str,
    oracle_graph: Graph | None,
    model_config: dict,
    *,
    size: int | None = None,
    seed: int | None = None,
) -> TaskDataset:
    """Generate the synthetic dataset ``name`` (``DEFAULT_SIZES`` unless ``size``).

    Vision datasets carry real scene ground truth and ignore the oracle;
    SQuAD is oracle-labelled (DESIGN.md §1) and requires ``oracle_graph`` —
    the exported FP32 reference graph. ``seed=None`` keeps each dataset's
    own default seed.
    """
    if name not in DATASET_REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}")
    gen_kwargs = {"size": size or DEFAULT_SIZES[name]}
    if seed is not None:
        gen_kwargs["seed"] = seed
    if name == "squad":
        if oracle_graph is None:
            raise ValueError("squad dataset generation requires the FP32 oracle graph")
        return SyntheticSQuAD.generate(oracle_graph, model_config, **gen_kwargs)
    return DATASET_REGISTRY[name].generate(model_config, **gen_kwargs)
