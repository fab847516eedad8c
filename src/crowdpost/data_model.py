"""Ground-truth scenes, detections and their JSON-lines interchange files.

Both file kinds hold one JSON object per line.  Scene lines:

    {"format": "scenes/v1", "scene_id": ..., "width": ..., "height": ...,
     "persons": [{"id", "head": [x1,y1,x2,y2], "body": [...], "ignore", "occ"}, ...]}

Detection lines group the detections of one scene, class and NMS stage; in
memory as on file, a detection is its id, box and score, and its scene and
class are those of the group, set or list that holds it:

    {"format": "detections/v1", "scene_id": ..., "class": "head"|"body",
     "stage": "pre_nms"|"post_nms", "dets": [{"id", "box": [...], "score"}, ...]}

The readers return a file as columns (`SceneColumns`, `GroupColumns`): flat
lists and arrays, not records, and `write_detection_groups` writes a
`GroupColumns`.  The records are what the simulator makes and what
`train-rdm`'s per-scene NMS works on.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat, starmap
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter

import numpy as np

from .fileio import RepeatedKey, atomic_write_text, unique_keys
from .geometry import BBox, ragged

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
# columns
#
# The readers return the records of a file as columns: one list or array per
# field, entries of one scene or group next to each other, and offsets that
# bound each scene's persons or each group's detections.

def _valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Per row of an (n, 4) array: does `BBox` accept it (finite, no negative extent)?"""
    return (np.isfinite(boxes).all(axis=1)
            & (boxes[:, 2] >= boxes[:, 0]) & (boxes[:, 3] >= boxes[:, 1]))


def _owners(offsets: list[int], bad: np.ndarray) -> list[int]:
    """The rows, bounded by `offsets`, that hold an entry flagged in `bad`."""
    if not bad.any():
        return []
    return np.unique(np.searchsorted(offsets, np.flatnonzero(bad), side="right") - 1).tolist()


def id_keys(ids: list[int]) -> np.ndarray:
    """int64 keys that sort like `ids`, also for ids beyond int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        keys = np.empty(len(ids), dtype=np.int64)
        keys[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return keys


def _floats(runs) -> np.ndarray:
    return np.fromiter(chain.from_iterable(runs), dtype=np.float64)


def _offsets(runs) -> list[int]:
    return list(accumulate(map(len, runs), initial=0))


class SceneColumns:
    """Scenes as columns.

    Per scene: `scene_ids`, `widths` and `heights`, and `person_offsets`,
    whose entries k and k + 1 bound the persons of scene k.  Per person:
    `person_ids`, `heads` and `bodies` ((n, 4) float64 corners), `ignore`
    (bool) and `occlusion` (float64).  Person ids are unique within a scene.
    """

    __slots__ = ("scene_ids", "widths", "heights", "person_offsets", "person_ids",
                 "heads", "bodies", "ignore", "occlusion")

    def __init__(self, scene_ids, widths, heights, person_offsets, person_ids,
                 heads, bodies, ignore, occlusion):
        self.scene_ids, self.widths, self.heights = scene_ids, widths, heights
        self.person_offsets, self.person_ids = person_offsets, person_ids
        self.heads, self.bodies, self.ignore, self.occlusion = heads, bodies, ignore, occlusion

    def _faulty(self) -> list[int]:
        """The scenes holding a person that `PersonInstance` or `Scene` rejects."""
        heads, bodies, occ = self.heads, self.bodies, self.occlusion
        counts = np.diff(self.person_offsets)
        ok = (_valid_boxes(heads) & _valid_boxes(bodies) & (occ >= 0.0) & (occ <= 1.0)
              & (heads[:, :2] >= bodies[:, :2]).all(axis=1)
              & (heads[:, 2:] <= bodies[:, 2:]).all(axis=1)
              & (bodies[:, :2] >= 0.0).all(axis=1)
              & (bodies[:, 2] <= np.repeat(self.widths, counts))
              & (bodies[:, 3] <= np.repeat(self.heights, counts)))
        return _owners(self.person_offsets, ~ok)


class DetectionColumns:
    """Detections of many groups as columns; `len()` is the number of detections.

    Per group: `scene_ids` and `det_offsets`, whose entries g and g + 1 bound
    the detections of group g.  Per detection: `det_ids`, `boxes` ((n, 4)
    float64 corners) and `scores` (float64).
    """

    __slots__ = ("scene_ids", "det_offsets", "det_ids", "boxes", "scores")

    def __init__(self, scene_ids, det_offsets, det_ids, boxes, scores):
        self.scene_ids, self.det_offsets = scene_ids, det_offsets
        self.det_ids, self.boxes, self.scores = det_ids, boxes, scores

    def __len__(self):
        return len(self.det_ids)

    def det_groups(self) -> np.ndarray:
        """The group of each detection."""
        counts = np.diff(self.det_offsets)
        return np.repeat(np.arange(len(counts)), counts)

    def _gather(self, scene_ids, index: np.ndarray, counts: np.ndarray) -> "DetectionColumns":
        ids = self.det_ids
        return DetectionColumns(scene_ids, [0, *np.cumsum(counts).tolist()],
                                [ids[i] for i in index.tolist()], self.boxes[index],
                                self.scores[index])

    def take(self, index: np.ndarray) -> "DetectionColumns":
        """The detections at `index`, in the same groups: `index` lists
        group 0's chosen detections first, then group 1's, and so on."""
        group = np.searchsorted(self.det_offsets, index, side="right") - 1
        return self._gather(self.scene_ids, index,
                            np.bincount(group, minlength=len(self.scene_ids)))

    def regroup(self, scene_ids, groups) -> "DetectionColumns":
        """Group k holds the detections of group `groups[k]`, or none when
        that is -1, as a group of scene `scene_ids[k]`."""
        groups = np.asarray(groups, dtype=np.intp).reshape(-1)
        offsets = np.asarray(self.det_offsets)
        present = groups >= 0
        starts = np.where(present, offsets[groups], 0)
        counts = np.where(present, offsets[groups + 1] - starts, 0)
        return self._gather(scene_ids, ragged(starts, counts)[0], counts)

    def groups(self):
        """Each group as one-group columns, in order."""
        ids, boxes, scores, offsets = self.det_ids, self.boxes, self.scores, self.det_offsets
        for scene_id, a, b in zip(self.scene_ids, offsets, offsets[1:]):
            yield DetectionColumns([scene_id], [0, b - a], ids[a:b], boxes[a:b], scores[a:b])

    def detection_lists(self) -> list[list[Detection]]:
        """Each group's detections as a list of `Detection` records."""
        dets = list(map(Detection, self.det_ids, starmap(BBox, self.boxes.tolist()),
                        self.scores.tolist()))
        offsets = self.det_offsets
        return [dets[a:b] for a, b in zip(offsets, offsets[1:])]

    def _faulty(self) -> list[int]:
        """The groups holding a detection that `BBox` or `Detection` rejects."""
        scores = self.scores
        return _owners(self.det_offsets,
                       ~(_valid_boxes(self.boxes) & (scores >= 0.0) & (scores <= 1.0)))


class GroupColumns:
    """Detection groups as columns: `detections` holds every group's scene and
    detections, `class_names` and `stages` the rest of each group's key."""

    __slots__ = ("detections", "class_names", "stages")

    def __init__(self, detections: DetectionColumns, class_names, stages):
        self.detections, self.class_names, self.stages = detections, class_names, stages

    @classmethod
    def from_groups(cls, groups) -> "GroupColumns":
        """The columns of these `DetectionGroup` records, in their order."""
        return _group_columns(list(map(_group_fields, groups)))

    def select(self, class_name: str, stage: str) -> DetectionColumns:
        """The detections of the groups of one class and stage, in file order."""
        chosen = [c == class_name and s == stage
                  for c, s in zip(self.class_names, self.stages)]
        d = self.detections
        return d.regroup(list(compress(d.scene_ids, chosen)), np.flatnonzero(chosen))


# A row is one scene's or one group's fields, with a list per person or
# detection field and box corners flat; the readers collect rows, and these
# turn them into columns.

def _scene_fields(scene: Scene) -> tuple:
    persons = scene.persons
    return (scene.scene_id, scene.width, scene.height, [p.person_id for p in persons],
            [v for p in persons for v in p.head.as_list()],
            [v for p in persons for v in p.body.as_list()],
            [p.ignore for p in persons], [p.occlusion_ratio for p in persons])


def _scene_columns(rows: list[tuple]) -> SceneColumns:
    scene_ids, widths, heights, ids, heads, bodies, ignore, occ = list(zip(*rows)) or [()] * 8
    return SceneColumns(list(scene_ids), list(widths), list(heights), _offsets(ids),
                        list(chain.from_iterable(ids)), _floats(heads).reshape(-1, 4),
                        _floats(bodies).reshape(-1, 4),
                        np.fromiter(chain.from_iterable(ignore), dtype=bool), _floats(occ))


def _group_fields(group: DetectionGroup) -> tuple:
    dets = group.dets
    return (group.scene_id, group.class_name, group.stage, [d.det_id for d in dets],
            [v for d in dets for v in d.box.as_list()], [d.score for d in dets])


def _group_columns(rows: list[tuple]) -> GroupColumns:
    scene_ids, class_names, stages, ids, boxes, scores = list(zip(*rows)) or [()] * 6
    detections = DetectionColumns(list(scene_ids), _offsets(ids), list(chain.from_iterable(ids)),
                                  _floats(boxes).reshape(-1, 4), _floats(scores))
    return GroupColumns(detections, list(class_names), list(stages))


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


# the C scanner behind `json.loads`, called without its wrapper; a line it
# does not take whole goes to `json.loads`, which raises the error
_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _iter_jsonl(path):
    # read as bytes and decoded per line, so a byte that is not UTF-8 names its line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"not UTF-8 ({exc.reason} at byte {exc.start})",
                                  path, line_no) from exc
            if line.isspace():
                continue
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = 0
            if not end or line[end:].strip(_JSON_SPACE):
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
            # every key takes a colon, so a line with more colons than the keys
            # of its object and of the objects its lists hold may repeat a key,
            # which the decoder resolves silently, last value winning: such a
            # line is decoded again, checking the keys of each of its objects
            keys = len(obj)
            for value in obj.values():
                if type(value) is list and set(map(type, value)) <= _DICT:
                    keys += sum(map(len, value))
            if line.count(":") != keys:
                try:
                    json.loads(line, object_pairs_hook=unique_keys)
                except RepeatedKey as exc:
                    raise FormatError(str(exc), path, line_no) from None
            yield line_no, obj


def _raise_first_fault(path, parse, flagged: list[int], error: FormatError | None) -> None:
    """Raise the fault of the first of the `flagged` lines, as `parse`, the
    per-field parser, words it, when that line comes no later than the line
    of `error`, the fault the reading pass stopped at; else raise `error`."""
    if error is not None:
        flagged = [n for n in flagged if n <= error.line]
    if flagged:
        wanted = set(flagged)
        for line_no, obj in _iter_jsonl(path):
            if line_no in wanted:
                parse(obj, path, line_no)
                if line_no == flagged[-1]:
                    break
    if error is not None:
        raise error


def _read_rows(path, fast_row, parse, fields, key, duplicate):
    """One row per line: `fast_row(obj)`, or the `fields` of the record that
    `parse`, the per-field parser, makes of a line `fast_row` turns away.
    Returns the rows, their line numbers, and the `FormatError` the pass
    stopped at, if any; a second row of the same `key` is one."""
    rows, lines, seen, error = [], [], set(), None
    try:
        for line_no, obj in _iter_jsonl(path):
            row = fast_row(obj) or fields(parse(obj, path, line_no))
            rows.append(row)
            lines.append(line_no)
            if key(row) in seen:
                raise FormatError(duplicate(key(row)), path, line_no)
            seen.add(key(row))
    except FormatError as exc:
        error = exc
    return rows, lines, error


# The readers take a line's values with C-level calls when every field has
# its JSON type, leaving the range checks to one array pass over the file.
# Any other line goes through the per-field parser, which converts an
# integer or raises the error that names the field.  A range fault that the
# array pass finds is raised by the same parser, for the first such line,
# unless the reading pass stopped at an earlier line.

_GET_ID, _GET_HEAD, _GET_BODY = itemgetter("id"), itemgetter("head"), itemgetter("body")
_GET_BOX, _GET_SCORE = itemgetter("box"), itemgetter("score")
_INT, _FLOAT, _BOOL, _LIST, _DICT, _FOUR = {int}, {float}, {bool}, {list}, {dict}, {4}


def _flat_boxes(boxes) -> list | None:
    """The corners of a list of boxes, flat, if each is a list of four floats."""
    if set(map(type, boxes)) <= _LIST and set(map(len, boxes)) <= _FOUR:
        coords = list(chain.from_iterable(boxes))
        if set(map(type, coords)) <= _FLOAT:
            return coords
    return None


def _scene_row(obj) -> tuple | None:
    """The row of a scene line whose fields all have their JSON type, whose
    size is positive and finite and whose person ids are unique; None for
    any other line."""
    try:
        if obj.get("format", SCENE_FORMAT) != SCENE_FORMAT:
            return None
        scene_id, width, height = obj["scene_id"], obj["width"], obj["height"]
        persons = obj["persons"]
        if not (type(scene_id) is str and type(width) is float and type(height) is float
                and 0.0 < width < math.inf and 0.0 < height < math.inf
                and type(persons) is list):
            return None
        ids = list(map(_GET_ID, persons))
        heads = _flat_boxes(list(map(_GET_HEAD, persons)))
        bodies = _flat_boxes(list(map(_GET_BODY, persons)))
        ignore = list(map(dict.get, persons, repeat("ignore"), repeat(False)))
        occlusion = list(map(dict.get, persons, repeat("occ"), repeat(0.0)))
        if (heads is None or bodies is None or not set(map(type, ids)) <= _INT
                or not set(map(type, ignore)) <= _BOOL
                or not set(map(type, occlusion)) <= _FLOAT or len(set(ids)) != len(ids)):
            return None
    except (KeyError, TypeError):
        return None
    return scene_id, width, height, ids, heads, bodies, ignore, occlusion


def read_scenes(path) -> SceneColumns:
    """The scenes of a file, as columns."""
    rows, lines, error = _read_rows(path, _scene_row, _parse_scene, _scene_fields,
                                    itemgetter(0), "duplicate scene_id {!r}".format)
    scenes = _scene_columns(rows)
    _raise_first_fault(path, _parse_scene, [lines[k] for k in scenes._faulty()], error)
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
    dets = [_parse_det(d, path, line_no, f"dets[{i}]") for i, d in enumerate(raw)]
    try:
        return DetectionGroup(scene_id=scene_id, class_name=class_name,
                              stage=stage, dets=tuple(dets))
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc), path, line_no) from exc


def _group_row(obj) -> tuple | None:
    """The row of a detection line whose fields all have their JSON type and
    whose det ids are unique; None for any other line."""
    try:
        if obj.get("format", DETECTION_FORMAT) != DETECTION_FORMAT:
            return None
        scene_id, class_name, stage, dets = obj["scene_id"], obj["class"], obj["stage"], obj["dets"]
        if not (type(scene_id) is str and class_name in CLASSES and stage in STAGES
                and type(dets) is list):
            return None
        ids = list(map(_GET_ID, dets))
        boxes = _flat_boxes(list(map(_GET_BOX, dets)))
        scores = list(map(_GET_SCORE, dets))
        if (boxes is None or not set(map(type, ids)) <= _INT
                or not set(map(type, scores)) <= _FLOAT or len(set(ids)) != len(ids)):
            return None
    except (KeyError, TypeError):
        return None
    return scene_id, class_name, stage, ids, boxes, scores


def read_detection_groups(path) -> GroupColumns:
    """The detection groups of a file, as columns."""
    rows, lines, error = _read_rows(path, _group_row, _parse_group, _group_fields,
                                    itemgetter(0, 1, 2), "duplicate group {}".format)
    groups = _group_columns(rows)
    _raise_first_fault(path, _parse_group,
                       [lines[g] for g in groups.detections._faulty()], error)
    return groups


def _group_lines(groups: GroupColumns):
    # group by group, so that a file's text is never held whole
    d = groups.detections
    offsets = d.det_offsets
    for scene_id, class_name, stage, a, b in zip(d.scene_ids, groups.class_names,
                                                  groups.stages, offsets, offsets[1:]):
        dets = ", ".join(
            f'{{"id": {i!r}, "box": [{x1!r}, {y1!r}, {x2!r}, {y2!r}], "score": {s!r}}}'
            for i, (x1, y1, x2, y2), s in zip(d.det_ids[a:b], d.boxes[a:b].tolist(),
                                               d.scores[a:b].tolist()))
        yield (f'{{"format": "{DETECTION_FORMAT}", "scene_id": {_json_string(scene_id)}, '
               f'"class": "{class_name}", "stage": "{stage}", "dets": [{dets}]}}\n')


def write_detection_groups(groups: GroupColumns, path) -> None:
    """One line per group, from the columns (`GroupColumns.from_groups`
    gives the columns of records)."""
    atomic_write_text(path, _group_lines(groups))
