"""Reference model architectures (paper Table 1) and the model zoo."""

from .common import ModelBundle
from .deeplabv3plus import create_deeplab_v3plus
from .mobilebert import create_mobilebert, probe_token_batch
from .mobiledet import create_mobiledet_ssd
from .mobilenet_edgetpu import create_mobilenet_edgetpu
from .speech import create_mobile_streaming_asr
from .super_resolution import create_mobile_edge_sr
from .ssd_mobilenet_v2 import create_ssd_mobilenet_v2
from .zoo import (
    MODEL_REGISTRY,
    ModelEntry,
    available_models,
    create_full_model,
    create_reference_model,
    model_card,
    model_feeds,
)

__all__ = [
    "ModelBundle",
    "ModelEntry",
    "MODEL_REGISTRY",
    "available_models",
    "create_reference_model",
    "create_full_model",
    "model_card",
    "model_feeds",
    "create_mobilenet_edgetpu",
    "create_ssd_mobilenet_v2",
    "create_mobiledet_ssd",
    "create_deeplab_v3plus",
    "create_mobilebert",
    "create_mobile_streaming_asr",
    "create_mobile_edge_sr",
    "probe_token_batch",
]
