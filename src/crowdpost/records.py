"""`train-rdm`'s record route and the readers' per-field parser.

`train-rdm`'s per-scene NMS (`build_detection_set`) runs `run`'s
`nms_groups` on `Detection` records, named tuples of fields a reader
checked, and its pair builder (`build_training_pairs`) runs `run`'s gate
and `eval`'s matcher.  The readers return columns (`data_model`), and come
here only for a file with a line not shaped like the writers' lines: an
integer where a float belongs, a field of the wrong type, a value out of
range.  Then the per-field parser here checks each line and turns it into
the row `data_model.scene_columns` or `group_columns` takes, or raises the
error that names the first faulty field.  `simulate`, `estimate-ratio`,
`run` and `eval` never load this module on the files the writers write.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .data_model import (CLASSES, DETECTION_FORMAT, SCENE_FORMAT, STAGES, DetectionColumns,
                         FormatError, SceneColumns)

if TYPE_CHECKING:
    from .nms import NmsConfig

_COORDINATES = ("x_min", "y_min", "x_max", "y_max")
_isfinite = math.isfinite


def _box_fault(x1, y1, x2, y2) -> str | None:
    """Why a box of float corners is not valid, None if it is: the first
    non-finite coordinate, or a negative extent."""
    for name, value in zip(_COORDINATES, (x1, y1, x2, y2)):
        if not _isfinite(value):
            return f"non-finite box coordinate {name}={value}"
    if x2 < x1 or y2 < y1:
        return f"box has negative extent: ({x1}, {y1}, {x2}, {y2})"
    return None


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
# the per-field parser
#
# It checks a decoded line field by field, in the order below, and raises
# the `FormatError` of the first fault; a valid line becomes its row, with a
# list per person or detection field and box corners flat.

def _field(item, key):
    return f"{item}.{key}" if item else key


def _parse_box(value, path, line_no, item, key) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise FormatError("box must be a 4-element [x1, y1, x2, y2] list",
                          path, line_no, _field(item, key))
    box = tuple(_number(v, path, line_no, item, key) for v in value)
    fault = _box_fault(*box)
    if fault:
        raise FormatError(fault, path, line_no, _field(item, key))
    return box


def _entry(value, path, line_no, item) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"expected an object, got {value!r}", path, line_no, item)
    return value


def _typed(value, kind, what, path, line_no, item, key):
    # a float id or a string flag is rejected, not converted: a file must
    # hold the JSON type itself
    if type(value) is not kind:
        raise FormatError(f"expected {what}, got {value!r}", path, line_no, _field(item, key))
    return value


def _number(value, path, line_no, item, key) -> float:
    """A JSON number as a float: an integer converts here, where an overflow
    names its field, and a bool or a numeric string is rejected."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise FormatError(f"expected a number, got {value!r}", path, line_no, _field(item, key))
    try:
        return float(value)
    except OverflowError as exc:
        raise FormatError(str(exc), path, line_no, _field(item, key)) from exc


def _require(obj, key, path, line_no, item=""):
    if key not in obj:
        raise FormatError("missing required key", path, line_no, _field(item, key))
    return obj[key]


def _check_format(obj, expected, path, line_no):
    fmt = obj.get("format", expected)
    if fmt != expected:
        raise FormatError(f"unsupported format {fmt!r}, expected {expected!r}",
                          path, line_no, "format")


def _parse_person(p, path, line_no, item) -> tuple:
    """One `persons` entry as (id, head, body, ignore, occ)."""
    p = _entry(p, path, line_no, item)
    head = _parse_box(_require(p, "head", path, line_no, item), path, line_no, item, "head")
    body = _parse_box(_require(p, "body", path, line_no, item), path, line_no, item, "body")
    person_id = _typed(_require(p, "id", path, line_no, item), int, "an integer",
                       path, line_no, item, "id")
    ignore = _typed(p.get("ignore", False), bool, "a boolean", path, line_no, item, "ignore")
    occ = _number(p.get("occ", 0.0), path, line_no, item, "occ")
    if not 0.0 <= occ <= 1.0:
        raise FormatError(f"occlusion_ratio {occ} outside [0, 1]", path, line_no, item)
    # labeling rule: the head box lies within the body box
    if (head[0] < body[0] or head[1] < body[1] or head[2] > body[2] or head[3] > body[3]):
        raise FormatError("head box extends beyond body box", path, line_no, item)
    return person_id, head, body, ignore, occ


def parsed_scene_row(obj, path, line_no) -> tuple:
    """The row of a scene line, every field checked."""
    _check_format(obj, SCENE_FORMAT, path, line_no)
    scene_id = _typed(_require(obj, "scene_id", path, line_no), str, "a string",
                      path, line_no, "", "scene_id")
    width = _number(_require(obj, "width", path, line_no), path, line_no, "", "width")
    height = _number(_require(obj, "height", path, line_no), path, line_no, "", "height")
    raw_persons = _require(obj, "persons", path, line_no)
    if not isinstance(raw_persons, list):
        raise FormatError("persons must be a list", path, line_no, "persons")
    persons = [_parse_person(p, path, line_no, f"persons[{i}]")
               for i, p in enumerate(raw_persons)]
    if width <= 0 or height <= 0:
        raise FormatError(f"non-positive image size {width}x{height}", path, line_no)
    if not (_isfinite(width) and _isfinite(height)):
        raise FormatError(f"non-finite image size {width}x{height}", path, line_no)
    seen = set()
    for person_id, _, (x1, y1, x2, y2), _, _ in persons:
        if person_id in seen:
            raise FormatError(f"duplicate person id {person_id}", path, line_no)
        seen.add(person_id)
        if x1 < 0 or y1 < 0 or x2 > width or y2 > height:
            raise FormatError(f"person {person_id} body box outside image bounds",
                              path, line_no)
    return (scene_id, width, height, [p[0] for p in persons],
            [v for p in persons for v in p[1]], [v for p in persons for v in p[2]],
            [p[3] for p in persons], [p[4] for p in persons])


def _parse_det(d, path, line_no, item) -> tuple:
    """One `dets` entry as (id, box, score)."""
    d = _entry(d, path, line_no, item)
    box = _parse_box(_require(d, "box", path, line_no, item), path, line_no, item, "box")
    det_id = _require(d, "id", path, line_no, item)
    score = _number(_require(d, "score", path, line_no, item), path, line_no, item, "score")
    _typed(det_id, int, "an integer", path, line_no, item, "id")
    if not 0.0 <= score <= 1.0:
        raise FormatError(f"detection score {score} outside [0, 1]", path, line_no, item)
    return det_id, box, score


def parsed_group_row(obj, path, line_no) -> tuple:
    """The row of a detection line, every field checked."""
    _check_format(obj, DETECTION_FORMAT, path, line_no)
    scene_id = _typed(_require(obj, "scene_id", path, line_no), str, "a string",
                      path, line_no, "", "scene_id")
    class_name = _require(obj, "class", path, line_no)
    if class_name not in CLASSES:
        raise FormatError(f"unknown class {class_name!r}", path, line_no, "class")
    stage = _require(obj, "stage", path, line_no)
    if stage not in STAGES:
        raise FormatError(f"unknown stage {stage!r}", path, line_no, "stage")
    raw = _require(obj, "dets", path, line_no)
    if not isinstance(raw, list):
        raise FormatError("dets must be a list", path, line_no, "dets")
    dets = [_parse_det(d, path, line_no, f"dets[{i}]") for i, d in enumerate(raw)]
    seen = set()
    for det_id, _, _ in dets:
        if det_id in seen:
            raise FormatError(f"duplicate det id {det_id}", path, line_no)
        seen.add(det_id)
    return (scene_id, class_name, stage, [d[0] for d in dets],
            [v for d in dets for v in d[1]], [d[2] for d in dets])


# ---------------------------------------------------------------------------
# train-rdm's NMS and training pairs
#
# These import `nms`, `pipeline`, `evaluator` and `rdm` when called, so that
# a reader's fallback line, which needs only the parser, loads none of them.

def build_detection_set(scene_id: str, heads_pre: list[Detection],
                        bodies_pre: list[Detection], cfg: NmsConfig) -> DetectionSet:
    """NMS both classes of one scene into the post-process input triple.

    Heads keep only their survivors; bodies keep both the floor-filtered
    pre-NMS list (recall candidates) and the survivors.  Survivors come by
    descending score, ties by ascending det id; the floored list keeps the
    input order.
    """
    from .nms import nms_groups
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
    from .evaluator import greedy_assign
    from .pipeline import gate
    from .rdm import ASSIGN_IOU, pair_features
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
