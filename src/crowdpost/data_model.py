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
`GroupColumns`.  The records (`BBox`, `Scene`, `Detection`, ...), which
the simulator makes and `train-rdm`'s per-scene NMS works on, live in
`records` with their per-field parsers.  A reader loads that module only
for a line its fast path turns away, so reading a file the writers wrote
builds no record and compiles no record class.
"""

from __future__ import annotations

import json
import math
import os
from itertools import accumulate, chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter

import numpy as np

from .fileio import RepeatedKey, atomic_write_text, unique_keys
from .geometry import ragged

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

    def select(self, class_name: str, stage: str) -> DetectionColumns:
        """The detections of the groups of one class and stage, in file order."""
        chosen = [c == class_name and s == stage
                  for c, s in zip(self.class_names, self.stages)]
        d = self.detections
        return d.regroup(list(compress(d.scene_ids, chosen)), np.flatnonzero(chosen))


# A row is one scene's or one group's fields, with a list per person or
# detection field and box corners flat; the readers collect rows, and these
# turn them into columns (`records.groups_as_columns` too).

def _scene_columns(rows: list[tuple]) -> SceneColumns:
    scene_ids, widths, heights, ids, heads, bodies, ignore, occ = list(zip(*rows)) or [()] * 8
    return SceneColumns(list(scene_ids), list(widths), list(heights), _offsets(ids),
                        list(chain.from_iterable(ids)), _floats(heads).reshape(-1, 4),
                        _floats(bodies).reshape(-1, 4),
                        np.fromiter(chain.from_iterable(ignore), dtype=bool), _floats(occ))


def group_columns(rows: list[tuple]) -> GroupColumns:
    scene_ids, class_names, stages, ids, boxes, scores = list(zip(*rows)) or [()] * 6
    detections = DetectionColumns(list(scene_ids), _offsets(ids), list(chain.from_iterable(ids)),
                                  _floats(boxes).reshape(-1, 4), _floats(scores))
    return GroupColumns(detections, list(class_names), list(stages))


# ---------------------------------------------------------------------------
# reading

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


def _read_rows(path, fast_row, parse, key, duplicate):
    """One row per line: `fast_row(obj)`, or the row that `parse`, the
    per-field parser, makes of a line `fast_row` turns away.  Returns the
    rows, their line numbers, and the `FormatError` the pass stopped at, if
    any; a second row of the same `key` is one."""
    rows, lines, seen, error = [], [], set(), None
    try:
        for line_no, obj in _iter_jsonl(path):
            row = fast_row(obj) or parse(obj, path, line_no)
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
# Any other line goes through the per-field parser of `records`, which
# converts an integer or raises the error that names the field.  A range
# fault that the array pass finds is raised by the same parser, for the
# first such line, unless the reading pass stopped at an earlier line.
# `records` is imported on the first such line only.

def _parsed_scene_row(obj, path, line_no) -> tuple:
    from .records import parsed_scene_row
    return parsed_scene_row(obj, path, line_no)


def _parsed_group_row(obj, path, line_no) -> tuple:
    from .records import parsed_group_row
    return parsed_group_row(obj, path, line_no)


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


# ---------------------------------------------------------------------------
# scene files

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
    rows, lines, error = _read_rows(path, _scene_row, _parsed_scene_row, itemgetter(0),
                                    "duplicate scene_id {!r}".format)
    scenes = _scene_columns(rows)
    _raise_first_fault(path, _parsed_scene_row, [lines[k] for k in scenes._faulty()], error)
    return scenes


# ---------------------------------------------------------------------------
# detection files

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
    rows, lines, error = _read_rows(path, _group_row, _parsed_group_row, itemgetter(0, 1, 2),
                                    "duplicate group {}".format)
    groups = group_columns(rows)
    _raise_first_fault(path, _parsed_group_row,
                       [lines[g] for g in groups.detections._faulty()], error)
    return groups


# The writer formats each line directly, giving the bytes `json.dumps` gives
# for the line's object: the columns hold exact ints and finite floats, whose
# JSON text is their repr, and the one free-form string, the scene id, is
# escaped by the function `json.dumps` uses for it.

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
    """One line per group, from the columns (`records.groups_as_columns`
    gives the columns of records)."""
    atomic_write_text(path, _group_lines(groups))
