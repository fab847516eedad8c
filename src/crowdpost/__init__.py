"""Post-detection toolkit for joint head/person detection.

Geometry, NMS, a trainable head-body relation model, the recall/removal
post-process, log-average miss rate evaluation and a synthetic crowd
simulator, tied together by the `crowdpost` command line tool.
"""

from .data_model import (BODY, HEAD, Detection, DetectionGroup, DetectionSet,
                         FormatError, PersonInstance, Scene)
from .evaluator import EvalConfig, EvalResult, compute_mr2, reasonable_filter
from .geometry import BBox, intersection_area, ioh, iou
from .nms import NmsConfig, build_detection_set, nms
from .pipeline import PipelineOutput, PostProcessConfig, postprocess
from .ratio import HeadBodyRatio, apply_ratio, estimate_ratio
from .rdm import RelationModel, TrainConfig, build_training_pairs, extract_features, \
    pair_features, train
from .simulator import NoiseConfig, SimConfig, generate_scene, generate_scenes, \
    simulate_detections, simulate_detector

__version__ = "0.1.0"

__all__ = [
    "BBox", "BODY", "Detection", "DetectionGroup", "DetectionSet", "EvalConfig",
    "EvalResult", "FormatError", "HEAD", "HeadBodyRatio", "NmsConfig", "NoiseConfig",
    "PersonInstance", "PipelineOutput", "PostProcessConfig", "RelationModel",
    "Scene", "SimConfig", "TrainConfig", "apply_ratio", "build_detection_set",
    "build_training_pairs", "compute_mr2", "estimate_ratio", "extract_features",
    "generate_scene", "generate_scenes", "intersection_area", "ioh", "iou", "nms",
    "pair_features", "postprocess", "reasonable_filter", "simulate_detections",
    "simulate_detector", "train",
]
