"""Simulated object detectors.

The paper evaluates YOLOv5 (single-stage CNN) and DETR (transformer).  This
package provides pure-NumPy stand-ins that preserve the architectural
property the paper studies:

* :class:`SingleStageDetector` — per-cell predictions depend only on a
  *local receptive field* plus a weak global-context term (the YOLO-like
  connectivity pattern),
* :class:`TransformerDetector` — per-cell features are mixed through real
  softmax self-attention over *all* cells before classification (the
  DETR-like connectivity pattern).

Both share a prototype-based classification head that is fit ("trained") on
synthetic scenes, so that clean-image predictions are correct by
construction — the paper's starting assumption.
"""

from repro.detectors.activation_cache import ActivationCacheStore, CleanActivations
from repro.detectors.base import Detector, DetectorConfig
from repro.detectors.prototypes import PrototypeBank
from repro.detectors.single_stage import SingleStageDetector
from repro.detectors.transformer import TransformerDetector
from repro.detectors.training import TrainingConfig, train_detector
from repro.detectors.zoo import build_detector, build_model_zoo
from repro.detectors.ensemble import DetectorEnsemble

__all__ = [
    "ActivationCacheStore",
    "CleanActivations",
    "Detector",
    "DetectorConfig",
    "PrototypeBank",
    "SingleStageDetector",
    "TransformerDetector",
    "TrainingConfig",
    "train_detector",
    "build_detector",
    "build_model_zoo",
    "DetectorEnsemble",
]
