"""Greedy score-descending non-maximum suppression.

`nms_groups` suppresses every group of a `DetectionColumns` in one array
pass: the groups are size-sorted into zero-padded stacks
(`geometry.padded_batches`) and one IoU call covers each stack.  The greedy
step then walks each group's boxes in rank order over its overlap rows
packed into Python ints, one bit per box, so it costs a few integer
operations per box, not a numpy call.  A zero pad box has IoU 0 with every
box, so it never suppresses.  `records.build_detection_set` calls it on one
scene's `Detection` lists, its two classes as two groups.

Each group keeps its floor-filtered input and its survivors as positions in
it, the before/after pair that the recall post-process needs, so a kept
detection can only be a floored one.  Zero-area boxes are degenerate
detections: they are dropped at the score floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DetectionColumns, id_keys
from .fileio import logger
from .geometry import areas, padded_batches, padded_stack, pairwise_iou


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.5
    score_floor: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")
        if not 0.0 <= self.score_floor < 1.0:
            raise ValueError(f"score_floor {self.score_floor} outside [0, 1)")


def nms_groups(dets: DetectionColumns, cfg: NmsConfig) -> tuple[DetectionColumns, np.ndarray]:
    """Suppress overlapping detections within each group, of one class each.
    Returns the floored detections (those that reach the score floor and
    have a box of positive area) in input order and in the same groups, and
    the position among them of each kept one, group after group, by
    descending score with ties broken by ascending det id; a box is
    suppressed when its IoU with a higher-ranked kept box of its group
    exceeds the threshold."""
    group = dets.det_groups()
    scored = dets.scores >= cfg.score_floor
    floored = np.flatnonzero(scored & (areas(dets.boxes) > 0.0))
    if len(floored) < scored.sum():
        logger(__name__).info("dropped %d zero-area detections", scored.sum() - len(floored))
    ids = dets.det_ids
    rank = np.lexsort((id_keys([ids[i] for i in floored.tolist()]), -dets.scores[floored],
                       group[floored]))
    ranked = floored[rank]
    counts = np.bincount(group[ranked], minlength=len(dets.scene_ids))
    starts = np.cumsum(counts) - counts
    boxes = dets.boxes[ranked]
    keep: list[int] = []
    for batch, (n, _) in padded_batches(counts, counts):
        stack, _ = padded_stack(boxes, starts[batch], counts[batch], n)
        # row i of a group's overlap matrix as a Python int, bit j for box j
        words = np.packbits(pairwise_iou(stack, stack) > cfg.iou_threshold, axis=-1,
                            bitorder="little")
        width, buf = words.shape[-1], words.tobytes()
        rows = [int.from_bytes(buf[k:k + width], "little") for k in range(0, len(buf), width)]
        # the greedy step, group by group in rank order: a box that no kept
        # box suppressed is kept, and suppresses its overlaps
        for row, start, count in zip(range(0, len(rows), n), starts[batch].tolist(),
                                     counts[batch].tolist()):
            suppressed = 0
            for i in range(count):
                if not suppressed >> i & 1:
                    keep.append(start + i)
                    suppressed |= rows[row + i]
    # batches run by size; the kept indices go back to group and rank order
    return dets.take(floored), rank[np.sort(np.array(keep, dtype=np.intp))]
