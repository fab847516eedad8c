"""The record route: boxes, persons, scenes and detections as frozen records.

The simulator makes records, `write_scenes` writes them, and `train-rdm`'s
per-scene NMS (`nms`, `build_detection_set`) and its pair builder
(`build_training_pairs`) work on them.  The readers return columns
(`data_model`), and turn a line into a record only when it does not have the
shape of the writers' lines: an integer where a float belongs, a field of the
wrong type, a value out of range.  Then the per-field parser here converts
it, or raises the error that names the field.  `run` and `eval` never load
this module on valid input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .data_model import (CLASSES, DETECTION_FORMAT, SCENE_FORMAT, STAGES, DetectionColumns,
                         FormatError, GroupColumns, SceneColumns, group_columns)
from .fileio import atomic_write_text
from .geometry import greedy_match, pairwise_ioh, pairwise_iou

if TYPE_CHECKING:
    from .nms import NmsConfig

_COORDINATES = ("x_min", "y_min", "x_max", "y_max")
_isfinite = math.isfinite


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
        if not (type(x1) is float and type(y1) is float
                and type(x2) is float and type(y2) is float
                and _isfinite(x1) and _isfinite(y1) and _isfinite(x2) and _isfinite(y2)):
            # convert and check in field order, so the first bad coordinate is named
            for name in _COORDINATES:
                value = float(getattr(self, name))
                if not _isfinite(value):
                    raise ValueError(f"non-finite box coordinate {name}={value}")
                object.__setattr__(self, name, value)
            x1, y1, x2, y2 = self.x_min, self.y_min, self.x_max, self.y_max
        if x2 < x1 or y2 < y1:
            raise ValueError(f"box has negative extent: ({x1}, {y1}, {x2}, {y2})")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    @classmethod
    def from_center_size(cls, cx: float, cy: float, w: float, h: float) -> "BBox":
        return cls(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def area(b: BBox) -> float:
    return b.width * b.height


def box_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Stack boxes into an (n, 4) float64 array in corner form."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


# The records below convert a field only when it does not already hold the
# target type, so values read from a file are converted once, and numpy
# scalars from programmatic callers still become Python ints and floats.

@dataclass(frozen=True, slots=True)
class PersonInstance:
    """One annotated person: paired head and full-body boxes."""

    person_id: int
    head: BBox
    body: BBox
    ignore: bool = False
    occlusion_ratio: float = 0.0

    def __post_init__(self):
        if type(self.person_id) is not int:
            object.__setattr__(self, "person_id", int(self.person_id))
        if type(self.ignore) is not bool:
            object.__setattr__(self, "ignore", bool(self.ignore))
        occ = self.occlusion_ratio
        if type(occ) is not float:
            occ = float(occ)
            object.__setattr__(self, "occlusion_ratio", occ)
        if not 0.0 <= occ <= 1.0:
            raise ValueError(f"occlusion_ratio {occ} outside [0, 1]")
        h, b = self.head, self.body
        # labeling rule: the head box lies within the body box
        if h.x_min < b.x_min or h.y_min < b.y_min or h.x_max > b.x_max or h.y_max > b.y_max:
            raise ValueError("head box extends beyond body box")


@dataclass(frozen=True, slots=True)
class Scene:
    """Ground truth for one image."""

    scene_id: str
    width: float
    height: float
    persons: tuple[PersonInstance, ...]

    def __post_init__(self):
        width, height, persons = self.width, self.height, self.persons
        if type(width) is not float:
            width = float(width)
            object.__setattr__(self, "width", width)
        if type(height) is not float:
            height = float(height)
            object.__setattr__(self, "height", height)
        if type(persons) is not tuple:
            persons = tuple(persons)
            object.__setattr__(self, "persons", persons)
        if width <= 0 or height <= 0:
            raise ValueError(f"non-positive image size {width}x{height}")
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError(f"non-finite image size {width}x{height}")
        seen = set()
        for p in persons:
            if p.person_id in seen:
                raise ValueError(f"duplicate person id {p.person_id}")
            seen.add(p.person_id)
            b = p.body
            if b.x_min < 0 or b.y_min < 0 or b.x_max > width or b.y_max > height:
                raise ValueError(f"person {p.person_id} body box outside image bounds")


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored box: its scene and class are those of the group that holds it."""

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
class DetectionGroup:
    """All detections of one (scene, class, stage) triple, as stored on one file line."""

    scene_id: str
    class_name: str
    stage: str
    dets: tuple[Detection, ...]

    def __post_init__(self):
        dets = self.dets
        if type(dets) is not tuple:
            dets = tuple(dets)
            object.__setattr__(self, "dets", dets)
        if self.class_name not in CLASSES:
            raise ValueError(f"unknown class {self.class_name!r}")
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        seen = set()
        for d in dets:
            if d.det_id in seen:
                raise ValueError(f"duplicate det id {d.det_id}")
            seen.add(d.det_id)


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


# ---------------------------------------------------------------------------
# records and columns
#
# A row is one scene's or one group's fields, with a list per person or
# detection field and box corners flat, as the readers collect them.

def _scene_fields(scene: Scene) -> tuple:
    persons = scene.persons
    return (scene.scene_id, scene.width, scene.height, [p.person_id for p in persons],
            [v for p in persons for v in p.head.as_list()],
            [v for p in persons for v in p.body.as_list()],
            [p.ignore for p in persons], [p.occlusion_ratio for p in persons])


def _group_fields(group: DetectionGroup) -> tuple:
    dets = group.dets
    return (group.scene_id, group.class_name, group.stage, [d.det_id for d in dets],
            [v for d in dets for v in d.box.as_list()], [d.score for d in dets])


def groups_as_columns(groups: Iterable[DetectionGroup]) -> GroupColumns:
    """The columns of these `DetectionGroup` records, in their order."""
    return group_columns(list(map(_group_fields, groups)))


def detection_lists(dets: DetectionColumns) -> list[list[Detection]]:
    """Each group's detections as a list of `Detection` records."""
    records = list(map(Detection, dets.det_ids, starmap(BBox, dets.boxes.tolist()),
                       dets.scores.tolist()))
    offsets = dets.det_offsets
    return [records[a:b] for a, b in zip(offsets, offsets[1:])]


# ---------------------------------------------------------------------------
# the per-field parsers

def _field(item, key):
    return f"{item}.{key}" if item else key


def _parse_box(value, path, line_no, item, key) -> BBox:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise FormatError("box must be a 4-element [x1, y1, x2, y2] list",
                          path, line_no, _field(item, key))
    x1, y1, x2, y2 = value
    if not (type(x1) is float and type(y1) is float
            and type(x2) is float and type(y2) is float):
        x1, y1, x2, y2 = (_number(v, path, line_no, item, key) for v in value)
    try:
        return BBox(x1, y1, x2, y2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path, line_no, _field(item, key)) from exc


def _entry(value, path, line_no, item) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"expected an object, got {value!r}", path, line_no, item)
    return value


def _typed(value, kind, what, path, line_no, item, key):
    # the record classes convert, so a float id or a string flag would be
    # misread rather than rejected; a file must hold the JSON type itself
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


def _parse_person(p, path, line_no, item) -> PersonInstance:
    """One `persons` entry, every field checked and a fault named."""
    p = _entry(p, path, line_no, item)
    head = _parse_box(_require(p, "head", path, line_no, item), path, line_no, item, "head")
    body = _parse_box(_require(p, "body", path, line_no, item), path, line_no, item, "body")
    person_id = _typed(_require(p, "id", path, line_no, item), int, "an integer",
                       path, line_no, item, "id")
    ignore = _typed(p.get("ignore", False), bool, "a boolean", path, line_no, item, "ignore")
    occ = _number(p.get("occ", 0.0), path, line_no, item, "occ")
    try:
        return PersonInstance(person_id=person_id, head=head, body=body,
                              ignore=ignore, occlusion_ratio=occ)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path, line_no, item) from exc


def _parse_scene(obj, path, line_no) -> Scene:
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
    try:
        return Scene(scene_id=scene_id, width=width, height=height, persons=tuple(persons))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path, line_no) from exc


def parsed_scene_row(obj, path, line_no) -> tuple:
    """The row of a scene line, every field checked by the per-field parser."""
    return _scene_fields(_parse_scene(obj, path, line_no))


def _parse_det(d, path, line_no, item) -> Detection:
    """One `dets` entry, every field checked and a fault named."""
    d = _entry(d, path, line_no, item)
    box = _parse_box(_require(d, "box", path, line_no, item), path, line_no, item, "box")
    det_id = _require(d, "id", path, line_no, item)
    score = _number(_require(d, "score", path, line_no, item), path, line_no, item, "score")
    _typed(det_id, int, "an integer", path, line_no, item, "id")
    try:
        return Detection(det_id=det_id, box=box, score=score)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path, line_no, item) from exc


def _parse_group(obj, path, line_no) -> DetectionGroup:
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
    try:
        return DetectionGroup(scene_id=scene_id, class_name=class_name,
                              stage=stage, dets=tuple(dets))
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc), path, line_no) from exc


def parsed_group_row(obj, path, line_no) -> tuple:
    """The row of a detection line, every field checked by the per-field parser."""
    return _group_fields(_parse_group(obj, path, line_no))


# ---------------------------------------------------------------------------
# scene files
#
# `write_scenes` formats each line directly, as `data_model` writes
# detection lines: the records hold exact ints, bools and finite floats, so
# the text is the bytes `json.dumps` gives for the line's object.

def _box_text(b: BBox) -> str:
    return f"[{b.x_min!r}, {b.y_min!r}, {b.x_max!r}, {b.y_max!r}]"


def _scene_line(scene: Scene) -> str:
    persons = ", ".join(
        f'{{"id": {p.person_id!r}, "head": {_box_text(p.head)}, "body": {_box_text(p.body)}, '
        f'"ignore": {"true" if p.ignore else "false"}, "occ": {p.occlusion_ratio!r}}}'
        for p in scene.persons)
    return (f'{{"format": "{SCENE_FORMAT}", "scene_id": {_json_string(scene.scene_id)}, '
            f'"width": {scene.width!r}, "height": {scene.height!r}, "persons": [{persons}]}}\n')


def write_scenes(scenes, path) -> None:
    atomic_write_text(path, "".join(map(_scene_line, scenes)))


# ---------------------------------------------------------------------------
# train-rdm's per-scene NMS and training pairs
#
# These import `nms` and `rdm` when called, so that `simulate`,
# `estimate-ratio` and a reader's fallback line, which need only the records,
# do not load NMS and the relation model.

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
