"""`train-rdm`'s record route and the readers' per-field parser.

`train-rdm`'s per-scene NMS (`nms`, `build_detection_set`) and its pair
builder (`build_training_pairs`) work on `Detection` records, each with its
`BBox`.  The readers return columns (`data_model`), and come here only for
a file with a line not shaped like the writers' lines: an integer where a
float belongs, a field of the wrong type, a value out of range.  Then the
per-field parser here checks each line and turns it into the row
`data_model.scene_columns` or `group_columns` takes, or raises the error
that names the first faulty field.  `simulate`, `estimate-ratio`, `run` and
`eval` never load this module on the files the writers write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .data_model import (CLASSES, DETECTION_FORMAT, SCENE_FORMAT, STAGES, DetectionColumns,
                         FormatError, SceneColumns)
from .geometry import greedy_match, pairwise_ioh, pairwise_iou

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


@dataclass(frozen=True, slots=True)
class BBox:
    """Rectangle in pixel coordinates, corner form (x_min, y_min, x_max, y_max).

    Zero-area boxes are allowed; negative extents and non-finite coordinates
    are rejected at construction.  Coordinates are stored as Python floats.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.x_min, self.y_min, self.x_max, self.y_max
        if not (type(x1) is float and type(y1) is float and type(x2) is float
                and type(y2) is float):
            x1, y1, x2, y2 = corners = float(x1), float(y1), float(x2), float(y2)
            for name, value in zip(_COORDINATES, corners):
                object.__setattr__(self, name, value)
        # the checks of `_box_fault`, inline for the valid box
        if not (_isfinite(x1) and _isfinite(y1) and _isfinite(x2) and _isfinite(y2)
                and x1 <= x2 and y1 <= y2):
            raise ValueError(_box_fault(x1, y1, x2, y2))


def box_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Stack boxes into an (n, 4) float64 array in corner form."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored box: its scene and class are those of the group that holds it.

    A field not of its type is converted, so numpy scalars from programmatic
    callers become Python ints and floats."""

    det_id: int
    box: BBox
    score: float

    def __post_init__(self):
        if type(self.det_id) is not int:
            object.__setattr__(self, "det_id", int(self.det_id))
        score = self.score
        if type(score) is not float:
            score = float(score)
            object.__setattr__(self, "score", score)
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"detection score {score} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class DetectionSet:
    """Pipeline input for one scene: kept heads, and bodies before/after NMS."""

    scene_id: str
    heads_post_nms: tuple[Detection, ...]
    bodies_pre_nms: tuple[Detection, ...]
    bodies_post_nms: tuple[Detection, ...]

    def __post_init__(self):
        for name in ("heads_post_nms", "bodies_pre_nms", "bodies_post_nms"):
            if type(getattr(self, name)) is not tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))


def detection_lists(dets: DetectionColumns) -> list[list[Detection]]:
    """Each group's detections as a list of `Detection` records."""
    records = list(map(Detection, dets.det_ids, starmap(BBox, dets.boxes.tolist()),
                       dets.scores.tolist()))
    offsets = dets.det_offsets
    return [records[a:b] for a, b in zip(offsets, offsets[1:])]


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
# train-rdm's per-scene NMS and training pairs
#
# These import `nms` and `rdm` when called, so that a reader's fallback
# line, which needs only the parser, does not load NMS and the relation model.

def nms(dets: list[Detection], cfg: NmsConfig) -> tuple[list[Detection], list[Detection]]:
    """Suppress overlapping detections; the caller passes those of one class
    within one scene.

    Returns (kept, input_after_floor): `input_after_floor` keeps, in input
    order, the detections that reach the score floor and have a box of
    positive area; `kept` is sorted by descending score with ties broken by
    ascending det id; a box is suppressed when its IoU with a higher-ranked
    kept box exceeds the threshold.
    """
    from .nms import suppress
    columns = DetectionColumns([""], [0, len(dets)], [d.det_id for d in dets],
                               box_array(d.box for d in dets),
                               np.array([d.score for d in dets], dtype=np.float64))
    kept, floored = suppress(columns, cfg)
    return [dets[i] for i in kept.tolist()], [dets[i] for i in floored.tolist()]


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


def _assign_to_persons(dets: Sequence[Detection], boxes: np.ndarray) -> np.ndarray:
    """Greedy score-descending assignment of detections to ground truth.

    Each detection takes the unmatched person of maximal IoU when that IoU
    reaches ASSIGN_IOU; each person is used at most once.  Returns each
    detection's row of `boxes`, -1 for none.
    """
    from .rdm import ASSIGN_IOU
    ranked = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].det_id))
    ious = pairwise_iou(box_array(dets[i].box for i in ranked), boxes)
    rows = np.full(len(dets), -1)
    rows[ranked] = greedy_match(ious, ASSIGN_IOU)
    return rows


def build_training_pairs(scenes: SceneColumns, detection_sets: list[DetectionSet],
                         ioh_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate head x body pairs above the IoH gate and label them.

    Heads come from the post-NMS set, bodies from the pre-NMS set so that
    pairs with suppressed bodies are represented.  A pair is positive exactly
    when both detections are assigned to the same ground-truth person.

    Returns (features, labels) as (n, 10) and (n,) float arrays.
    """
    from .rdm import FEATURE_DIM, pair_features
    row_of = {scene_id: k for k, scene_id in enumerate(scenes.scene_ids)}
    offsets = scenes.person_offsets
    feats, labels = [], []
    for ds in detection_sets:
        if ds.scene_id not in row_of:
            raise ValueError(f"no ground-truth scene for {ds.scene_id!r}")
        k = row_of[ds.scene_id]
        persons = slice(offsets[k], offsets[k + 1])
        heads, bodies = ds.heads_post_nms, ds.bodies_pre_nms
        head_person = _assign_to_persons(heads, scenes.heads[persons])
        body_person = _assign_to_persons(bodies, scenes.bodies[persons])
        head_boxes, body_boxes = box_array(h.box for h in heads), box_array(b.box for b in bodies)
        head_idx, body_idx = np.nonzero(pairwise_ioh(head_boxes, body_boxes) > ioh_threshold)
        feats.append(pair_features(
            head_boxes[head_idx], np.array([h.score for h in heads])[head_idx],
            body_boxes[body_idx], np.array([b.score for b in bodies])[body_idx]))
        person = head_person[head_idx]
        labels.append(((person >= 0) & (person == body_person[body_idx])).astype(np.float64))
    if not feats:
        return np.zeros((0, FEATURE_DIM)), np.zeros(0)
    return np.concatenate(feats), np.concatenate(labels)
