"""Greedy score-descending non-maximum suppression.

Returns both the survivors and the floor-filtered input so callers can keep
the before/after pair that the recall post-process needs.  Zero-area boxes
are degenerate detections: they are dropped at the score floor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import Detection, DetectionSet
from .geometry import area, box_array, pairwise_iou

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.5
    score_floor: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")
        if not 0.0 <= self.score_floor < 1.0:
            raise ValueError(f"score_floor {self.score_floor} outside [0, 1)")


def nms(dets: list[Detection], cfg: NmsConfig) -> tuple[list[Detection], list[Detection]]:
    """Suppress overlapping detections; the caller passes those of one class
    within one scene.

    Returns (kept, input_after_floor): `input_after_floor` keeps, in input
    order, the detections that reach the score floor and have a box of
    positive area; `kept` is sorted by descending score with ties
    broken by ascending det id; a box is suppressed when its IoU with a
    higher-ranked kept box exceeds the threshold.
    """
    scored = [d for d in dets if d.score >= cfg.score_floor]
    after_floor = [d for d in scored if area(d.box) > 0.0]
    if len(after_floor) < len(scored):
        logger.info("dropped %d zero-area detections", len(scored) - len(after_floor))
    ranked = sorted(after_floor, key=lambda d: (-d.score, d.det_id))
    if len(ranked) < 2:
        return ranked, after_floor
    boxes = box_array(d.box for d in ranked)
    overlaps = pairwise_iou(boxes, boxes) > cfg.iou_threshold
    suppressed = np.zeros(len(ranked), dtype=bool)
    kept: list[Detection] = []
    for i, cand in enumerate(ranked):
        if not suppressed[i]:
            kept.append(cand)
            suppressed |= overlaps[i]
    return kept, after_floor


def build_detection_set(scene_id: str, heads_pre: list[Detection],
                        bodies_pre: list[Detection], cfg: NmsConfig) -> DetectionSet:
    """NMS both classes of one scene into the post-process input triple.

    Heads keep only their survivors; bodies keep both the floor-filtered
    pre-NMS list (recall candidates) and the survivors.
    """
    heads_kept, _ = nms(heads_pre, cfg)
    bodies_kept, bodies_floor = nms(bodies_pre, cfg)
    return DetectionSet(scene_id=scene_id, heads_post_nms=heads_kept,
                        bodies_pre_nms=bodies_floor, bodies_post_nms=bodies_kept)
