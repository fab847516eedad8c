"""Ground-truth scenes, detections and their JSON-lines interchange files.

Both file kinds hold one JSON object per line.  Scene lines:

    {"format": "scenes/v1", "scene_id": ..., "width": ..., "height": ...,
     "persons": [{"id", "head": [x1,y1,x2,y2], "body": [...], "ignore", "occ"}, ...]}

Detection lines group the detections of one scene, class and NMS stage; in
memory as on file, a detection is its id, box and score, and its scene and
class are those of the group, set or list that holds it:

    {"format": "detections/v1", "scene_id": ..., "class": "head"|"body",
     "stage": "pre_nms"|"post_nms", "dets": [{"id", "box": [...], "score"}, ...]}
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string

from .fileio import atomic_write_text
from .geometry import BBox

HEAD = "head"
BODY = "body"
CLASSES = (HEAD, BODY)

PRE_NMS = "pre_nms"
POST_NMS = "post_nms"
STAGES = (PRE_NMS, POST_NMS)

SCENE_FORMAT = "scenes/v1"
DETECTION_FORMAT = "detections/v1"


class FormatError(ValueError):
    """Schema violation in a JSON-lines file; points at the offending line/field."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        where = ""
        if path is not None:
            where = f"{os.path.basename(os.fspath(path))}:"
            where += f"{line}:" if line is not None else ""
        if field:
            where += f" {field}:"
        super().__init__(f"{where} {message}".strip())
        self.path = os.fspath(path) if path is not None else None
        self.line = line
        self.field = field


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
# scene files

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


def _plain_box(value) -> BBox | None:
    """The box of a list of four JSON floats that passes BBox's checks, else
    None: the readers' fast path, which leaves naming a fault to `_parse_box`."""
    if type(value) is list and len(value) == 4:
        x1, y1, x2, y2 = value
        if type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float:
            try:
                return BBox(x1, y1, x2, y2)
            except ValueError:
                pass
    return None


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
    persons = []
    raw_persons = _require(obj, "persons", path, line_no)
    if not isinstance(raw_persons, list):
        raise FormatError("persons must be a list", path, line_no, "persons")
    for p in raw_persons:
        # fast path: every field already of its JSON type and in range;
        # anything else goes through _parse_person, which converts an integer
        # coordinate or raises the error that names the field
        if type(p) is dict:
            person_id, ignore, occ = p.get("id"), p.get("ignore", False), p.get("occ", 0.0)
            if type(person_id) is int and type(ignore) is bool and type(occ) is float:
                head, body = _plain_box(p.get("head")), _plain_box(p.get("body"))
                if head is not None and body is not None:
                    try:
                        persons.append(PersonInstance(person_id, head, body, ignore, occ))
                        continue
                    except ValueError:
                        pass
        persons.append(_parse_person(p, path, line_no, f"persons[{len(persons)}]"))
    try:
        return Scene(scene_id=scene_id, width=width, height=height, persons=tuple(persons))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path, line_no) from exc


def _iter_jsonl(path):
    # read as bytes and decoded per line, so a byte that is not UTF-8 names its line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"not UTF-8 ({exc.reason} at byte {exc.start})",
                                  path, line_no) from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", path, line_no) from exc
            except (RecursionError, ValueError) as exc:
                # nesting deeper than the decoder's recursion limit, or an
                # integer literal longer than int() accepts
                raise FormatError(f"invalid JSON ({exc})", path, line_no) from exc
            if not isinstance(obj, dict):
                raise FormatError("line is not a JSON object", path, line_no)
            yield line_no, obj


def read_scenes(path) -> list[Scene]:
    scenes = []
    seen = set()
    for line_no, obj in _iter_jsonl(path):
        scene = _parse_scene(obj, path, line_no)
        if scene.scene_id in seen:
            raise FormatError(f"duplicate scene_id {scene.scene_id!r}", path, line_no)
        seen.add(scene.scene_id)
        scenes.append(scene)
    return scenes


# The writers format each line directly, giving the bytes `json.dumps` gives
# for the line's object: the records hold exact ints, bools and finite
# floats, whose JSON text is their repr, and the one free-form string, the
# scene id, is escaped by the function `json.dumps` uses for it.

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
# detection files

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
    dets = []
    for d in raw:
        # fast path as in _parse_scene; _parse_det names a fault
        if type(d) is dict:
            det_id, score = d.get("id"), d.get("score")
            if type(det_id) is int and type(score) is float and 0.0 <= score <= 1.0:
                box = _plain_box(d.get("box"))
                if box is not None:
                    dets.append(Detection(det_id, box, score))
                    continue
        dets.append(_parse_det(d, path, line_no, f"dets[{len(dets)}]"))
    try:
        return DetectionGroup(scene_id=scene_id, class_name=class_name,
                              stage=stage, dets=tuple(dets))
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc), path, line_no) from exc


def read_detection_groups(path) -> list[DetectionGroup]:
    groups = []
    seen = set()
    for line_no, obj in _iter_jsonl(path):
        group = _parse_group(obj, path, line_no)
        key = (group.scene_id, group.class_name, group.stage)
        if key in seen:
            raise FormatError(f"duplicate group {key}", path, line_no)
        seen.add(key)
        groups.append(group)
    return groups


def _group_line(group: DetectionGroup) -> str:
    dets = ", ".join(f'{{"id": {d.det_id!r}, "box": {_box_text(d.box)}, "score": {d.score!r}}}'
                     for d in group.dets)
    return (f'{{"format": "{DETECTION_FORMAT}", "scene_id": {_json_string(group.scene_id)}, '
            f'"class": "{group.class_name}", "stage": "{group.stage}", "dets": [{dets}]}}\n')


def write_detection_groups(groups, path) -> None:
    atomic_write_text(path, "".join(map(_group_line, groups)))
