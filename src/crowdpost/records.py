"""`train-rdm`'s record route.

`train-rdm`'s per-scene NMS (`build_detection_set`) runs `run`'s
`nms_groups` on `Detection` records, named tuples of fields a reader
checked, and its pair builder (`build_training_pairs`) runs `run`'s gate
and `eval`'s matcher.  Only `train-rdm` loads this module.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .data_model import DetectionColumns, SceneColumns
from .evaluator import greedy_assign
from .nms import NmsConfig, nms_groups
from .pipeline import gate
from .rdm import ASSIGN_IOU, pair_features


class Detection(NamedTuple):
    """A scored box, its corners (x_min, y_min, x_max, y_max) as a 4-tuple of
    floats: its scene and class are those of the group that holds it."""

    det_id: int
    box: tuple
    score: float


class DetectionSet(NamedTuple):
    """Pipeline input for one scene: kept heads, and bodies before/after NMS."""

    scene_id: str
    heads_post_nms: tuple
    bodies_pre_nms: tuple
    bodies_post_nms: tuple


def detection_lists(dets: DetectionColumns) -> list[list[Detection]]:
    """Each group's detections as a list of `Detection` records."""
    records = list(map(Detection, dets.det_ids, map(tuple, dets.boxes.tolist()),
                       dets.scores.tolist()))
    offsets = dets.det_offsets
    return [records[a:b] for a, b in zip(offsets, offsets[1:])]


def _columns(scene_ids: list[str], runs: list) -> DetectionColumns:
    """Detection runs as columns, run k as group k of scene `scene_ids[k]`."""
    dets = [d for run in runs for d in run]
    ids, boxes, scores = zip(*dets) if dets else ((), (), ())
    return DetectionColumns(scene_ids, list(accumulate(map(len, runs), initial=0)), list(ids),
                            np.array(boxes, dtype=np.float64).reshape(-1, 4),
                            np.array(scores, dtype=np.float64))


# ---------------------------------------------------------------------------
# train-rdm's NMS and training pairs

def build_detection_set(scene_id: str, heads_pre: list[Detection],
                        bodies_pre: list[Detection], cfg: NmsConfig) -> DetectionSet:
    """NMS both classes of one scene into the post-process input triple.

    Heads keep only their survivors; bodies keep both the floor-filtered
    pre-NMS list (recall candidates) and the survivors.  Survivors come by
    descending score, ties by ascending det id; the floored list keeps the
    input order.
    """
    floored, kept = nms_groups(_columns([scene_id, scene_id], [heads_pre, bodies_pre]), cfg)
    heads_post, bodies_post = detection_lists(floored.take(kept))
    return DetectionSet(scene_id, tuple(heads_post), tuple(detection_lists(floored)[1]),
                        tuple(bodies_post))


def build_training_pairs(scenes: SceneColumns, detection_sets: list[DetectionSet],
                         ioh_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate head x body pairs above the IoH gate and label them.

    Heads come from the post-NMS set, bodies from the pre-NMS set so that
    pairs with suppressed bodies are represented; `pipeline.gate` passes
    them, set after set.  A pair is positive exactly when both detections
    are assigned to the same ground-truth person by `evaluator.greedy_assign`
    at `rdm.ASSIGN_IOU`, every person of their scene, flagged ignore or not,
    a candidate.  The sets name distinct scenes, as `train-rdm` gives them.

    Returns (features, labels) as (n, 10) and (n,) float arrays.
    """
    row_of = {scene_id: k for k, scene_id in enumerate(scenes.scene_ids)}
    scene_ids = [ds.scene_id for ds in detection_sets]
    for scene_id in scene_ids:
        if scene_id not in row_of:
            raise ValueError(f"no ground-truth scene for {scene_id!r}")
    heads = _columns(scene_ids, [ds.heads_post_nms for ds in detection_sets])
    bodies = _columns(scene_ids, [ds.bodies_pre_nms for ds in detection_sets])
    set_scene = np.array([row_of[scene_id] for scene_id in scene_ids], dtype=np.intp)
    everyone = np.ones(len(scenes.person_ids), dtype=bool)

    def assigned(dets: DetectionColumns, gt_boxes: np.ndarray) -> np.ndarray:
        # each detection's person row, -1 for none
        return greedy_assign(dets, set_scene[dets.det_groups()], gt_boxes,
                             scenes.person_offsets, everyone, ASSIGN_IOU)[0]

    head_person, body_person = assigned(heads, scenes.heads), assigned(bodies, scenes.bodies)
    rows, cols = gate(heads, bodies, ioh_threshold)
    features = pair_features(heads.boxes[rows], heads.scores[rows], bodies.boxes[cols],
                             bodies.scores[cols])
    person = head_person[rows]
    return features, ((person >= 0) & (person == body_person[cols])).astype(np.float64)
