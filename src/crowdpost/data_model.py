"""Ground-truth scenes, detections and their JSON-lines interchange files.

Both file kinds hold one JSON object per line.  Scene lines:

    {"format": "scenes/v1", "scene_id": ..., "width": ..., "height": ...,
     "persons": [{"id", "head": [x1,y1,x2,y2], "body": [...], "ignore", "occ"}, ...]}

Detection lines group the detections of one scene, class and NMS stage; in
memory as on file, a detection is its id, box and score, and its scene and
class are those of the group, set or list that holds it:

    {"format": "detections/v1", "scene_id": ..., "class": "head"|"body",
     "stage": "pre_nms"|"post_nms", "dets": [{"id", "box": [...], "score"}, ...]}

In memory a file is columns (`SceneColumns`, `GroupColumns`): flat lists and
arrays, not records.  `write_scenes` and `write_detection_groups` write
columns; `scene_columns` and `group_columns` make them from rows, one per
line, as the simulator and the per-field parser give them.  A reader takes a
file in batches of whole lines, about 64 KiB each: it decodes and scans each
line with the C scanner behind `json.loads`, takes each field of the batch's
lines with a few C-level calls and makes the batch's numbers float64 arrays
before it reads the next.  This pass raises nothing.  At any doubt (a line
that is not one JSON object alone, a field missing or not of the type the
writers write, a repeated key or id, a value out of range) the reader reads
the whole file again through the per-field parser below, which raises the
first fault in file order or, for a valid file such as one with integer
coordinates, gives the same columns.  The batch pass stays beside the parser
because it reads the writers' files 1.5 to 1.9 times as fast (scene,
pre-NMS and post-processed detection files of 60 dense or 1500 sparse
scenes, in process).
"""
from __future__ import annotations

import json
import math
import os
from itertools import accumulate, chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import add, eq, itemgetter

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
    """Schema violation in a JSON-lines file: the message, the field it
    names, and the file and line, which the reader adds to the parser's."""

    def __init__(self, message: str, field: str | None = None, path=None,
                 line: int | None = None):
        where = f"{os.path.basename(os.fspath(path))}:{line}:" if path is not None else ""
        if field:
            where += f" {field}:"
        super().__init__(f"{where} {message}".strip())
        self.message, self.field, self.line = message, field, line


# ---------------------------------------------------------------------------
# columns
#
# The readers return a file as columns: one list or array per field,
# entries of one scene or group next to each other, and offsets that bound
# each scene's persons or each group's detections.

def _valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Per row of an (n, 4) array: is it a valid box (finite, no negative extent)?"""
    return (np.isfinite(boxes).all(axis=1)
            & (boxes[:, 2] >= boxes[:, 0]) & (boxes[:, 3] >= boxes[:, 1]))


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


class GroupColumns:
    """Detection groups as columns: `detections` holds every group's scene and
    detections, `class_names` and `stages` the rest of each group's key (the
    readers give the `CLASSES` and `STAGES` constants, not a string a line)."""

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
# detection field and box corners flat, four per box; the exact path and the
# simulator make rows, and these turn them into columns.

def scene_columns(rows: list[tuple]) -> SceneColumns:
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

_BATCH_BYTES = 1 << 16

# the C scanner behind `json.loads`, called without its wrapper
_scan_once = json.JSONDecoder().scan_once
_INT, _FLOAT, _BOOL, _STR, _LIST, _DICT, _FOUR = {int}, {float}, {bool}, {str}, {list}, {dict}, {4}


def _repeated_key(line: str, obj: dict) -> str | None:
    """The fault of a line whose object repeats a key at any depth, which the
    decoder resolves silently, last value winning; None if it repeats none.
    Every key takes a colon, so only a line with more colons than the keys of
    its object and of the objects its lists hold is decoded again for it."""
    keys = len(obj)
    for value in obj.values():
        if type(value) is list and set(map(type, value)) <= _DICT:
            keys += sum(map(len, value))
    if line.count(":") != keys:
        try:
            json.loads(line, object_pairs_hook=unique_keys)
        except RepeatedKey as exc:
            return str(exc)
    return None


# ---------------------------------------------------------------------------
# the exact path and its per-field parser
#
# The parser checks a decoded line field by field, in the order below, and
# raises the `FormatError` of the first fault, naming its field; a valid
# line becomes its row.  `_parsed_rows` adds the file and the line.

_COORDINATES = ("x_min", "y_min", "x_max", "y_max")


def _field(item, key):
    return f"{item}.{key}" if item else key


def _parse_box(value, item, key) -> tuple:
    field = _field(item, key)
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise FormatError("box must be a 4-element [x1, y1, x2, y2] list", field)
    box = x1, y1, x2, y2 = tuple(_number(v, item, key) for v in value)
    for name, v in zip(_COORDINATES, box):
        if not math.isfinite(v):
            raise FormatError(f"non-finite box coordinate {name}={v}", field)
    if x2 < x1 or y2 < y1:
        raise FormatError(f"box has negative extent: ({x1}, {y1}, {x2}, {y2})", field)
    return box


def _entry(value, item) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"expected an object, got {value!r}", item)
    return value


def _typed(value, kind, what, item, key):
    # a float id or a string flag is rejected, not converted: a file must
    # hold the JSON type itself
    if type(value) is not kind:
        raise FormatError(f"expected {what}, got {value!r}", _field(item, key))
    return value


def _number(value, item, key) -> float:
    """A JSON number as a float: an integer converts here, where an overflow
    names its field, and a bool or a numeric string is rejected."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise FormatError(f"expected a number, got {value!r}", _field(item, key))
    try:
        return float(value)
    except OverflowError as exc:
        raise FormatError(str(exc), _field(item, key)) from exc


def _require(obj, key, item=""):
    if key not in obj:
        raise FormatError("missing required key", _field(item, key))
    return obj[key]


def _check_format(obj, expected):
    fmt = obj.get("format", expected)
    if fmt != expected:
        raise FormatError(f"unsupported format {fmt!r}, expected {expected!r}", "format")


def _parse_person(p, item) -> tuple:
    """One `persons` entry as (id, head, body, ignore, occ)."""
    p = _entry(p, item)
    head = _parse_box(_require(p, "head", item), item, "head")
    body = _parse_box(_require(p, "body", item), item, "body")
    person_id = _typed(_require(p, "id", item), int, "an integer", item, "id")
    ignore = _typed(p.get("ignore", False), bool, "a boolean", item, "ignore")
    occ = _number(p.get("occ", 0.0), item, "occ")
    if not 0.0 <= occ <= 1.0:
        raise FormatError(f"occlusion_ratio {occ} outside [0, 1]", item)
    # labeling rule: the head box lies within the body box
    if (head[0] < body[0] or head[1] < body[1] or head[2] > body[2] or head[3] > body[3]):
        raise FormatError("head box extends beyond body box", item)
    return person_id, head, body, ignore, occ


def _scene_row(obj) -> tuple:
    """The row of a scene line, every field checked."""
    _check_format(obj, SCENE_FORMAT)
    scene_id = _typed(_require(obj, "scene_id"), str, "a string", "", "scene_id")
    width = _number(_require(obj, "width"), "", "width")
    height = _number(_require(obj, "height"), "", "height")
    raw_persons = _require(obj, "persons")
    if not isinstance(raw_persons, list):
        raise FormatError("persons must be a list", "persons")
    persons = [_parse_person(p, f"persons[{i}]") for i, p in enumerate(raw_persons)]
    if width <= 0 or height <= 0:
        raise FormatError(f"non-positive image size {width}x{height}")
    if not (math.isfinite(width) and math.isfinite(height)):
        raise FormatError(f"non-finite image size {width}x{height}")
    seen = set()
    for person_id, _, (x1, y1, x2, y2), _, _ in persons:
        if person_id in seen:
            raise FormatError(f"duplicate person id {person_id}")
        seen.add(person_id)
        if x1 < 0 or y1 < 0 or x2 > width or y2 > height:
            raise FormatError(f"person {person_id} body box outside image bounds")
    return (scene_id, width, height, [p[0] for p in persons],
            [v for p in persons for v in p[1]], [v for p in persons for v in p[2]],
            [p[3] for p in persons], [p[4] for p in persons])


def _parse_det(d, item) -> tuple:
    """One `dets` entry as (id, box, score)."""
    d = _entry(d, item)
    box = _parse_box(_require(d, "box", item), item, "box")
    det_id = _require(d, "id", item)
    score = _number(_require(d, "score", item), item, "score")
    _typed(det_id, int, "an integer", item, "id")
    if not 0.0 <= score <= 1.0:
        raise FormatError(f"detection score {score} outside [0, 1]", item)
    return det_id, box, score


def _group_row(obj) -> tuple:
    """The row of a detection line, every field checked."""
    _check_format(obj, DETECTION_FORMAT)
    scene_id = _typed(_require(obj, "scene_id"), str, "a string", "", "scene_id")
    class_name = _require(obj, "class")
    if class_name not in CLASSES:
        raise FormatError(f"unknown class {class_name!r}", "class")
    stage = _require(obj, "stage")
    if stage not in STAGES:
        raise FormatError(f"unknown stage {stage!r}", "stage")
    raw = _require(obj, "dets")
    if not isinstance(raw, list):
        raise FormatError("dets must be a list", "dets")
    dets = [_parse_det(d, f"dets[{i}]") for i, d in enumerate(raw)]
    seen = set()
    for det_id, _, _ in dets:
        if det_id in seen:
            raise FormatError(f"duplicate det id {det_id}")
        seen.add(det_id)
    return (scene_id, class_name, stage, [d[0] for d in dets],
            [v for d in dets for v in d[1]], [d[2] for d in dets])


def _line_object(raw: bytes) -> dict | None:
    """The object of one line, None for a blank one."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    if line.isspace():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON ({exc.msg})") from exc
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder's recursion limit, or an
        # integer literal longer than int() accepts
        raise FormatError(f"invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FormatError("line is not a JSON object")
    repeated = _repeated_key(line, obj)
    if repeated:
        raise FormatError(repeated)
    return obj


def _parsed_rows(path, parse, key, duplicate) -> list[tuple]:
    """The exact path: one row per line, made by `parse`, which raises the
    first fault in file order; a second row of the same `key` is one too."""
    rows, seen = [], set()
    # read as bytes and decoded per line, so a byte that is not UTF-8 names its line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                obj = _line_object(raw)
                if obj is None:
                    continue
                row = parse(obj)
                if key(row) in seen:
                    raise FormatError(duplicate(key(row)))
            except FormatError as exc:
                raise FormatError(exc.message, exc.field, path, line_no) from exc.__cause__
            seen.add(key(row))
            rows.append(row)
    return rows


def _entries(raw: list[bytes], fmt: str, fields: tuple[str, ...]):
    """Of a batch of lines, each a `fmt` object up to its "\n": a list per
    field of `fields` but the last, which holds objects (persons,
    detections); the number of those in each line; the objects, flat; and
    their ids.  None for any other batch, a first field not a string, an id
    not an integer or repeated in its line, or a repeated key."""
    lines = list(map(bytes.decode, raw))
    scanned = list(map(_scan_once, lines, repeat(0)))
    # the StopIteration of a line the scanner cannot start ends the map early
    if len(scanned) != len(lines):
        return None
    objs, ends = zip(*scanned)
    if (tuple(map(add, ends, map(str.endswith, lines, repeat("\n")))) != tuple(map(len, lines))
            or not set(map(dict.get, objs, repeat("format"), repeat(fmt))) <= {fmt}):
        return None
    *columns, runs = map(list, zip(*map(itemgetter(*fields), objs)))
    entries = list(chain.from_iterable(runs))
    ids = list(map(itemgetter("id"), entries))
    counts = list(map(len, runs))
    if (not (set(map(type, columns[0])) <= _STR and set(map(type, runs)) <= _LIST
             and set(map(type, ids)) <= _INT)
            or list(map(len, map(set, map(map, repeat(itemgetter("id")), runs)))) != counts):
        return None
    # as in `_repeated_key`, a batch with no more colons than keys repeats none
    if (sum(map(bytes.count, raw, repeat(b":"))) != sum(map(len, objs)) + sum(map(len, entries))
            and any(map(_repeated_key, lines, objs))):
        return None
    return columns, counts, entries, ids


def _boxes(boxes) -> np.ndarray | None:
    """(n, 4) float64 corners of boxes that are each a list of four floats."""
    boxes = list(boxes)
    if set(map(type, boxes)) <= _LIST and set(map(len, boxes)) <= _FOUR:
        coords = list(chain.from_iterable(boxes))
        if set(map(type, coords)) <= _FLOAT:
            return np.fromiter(coords, np.float64, len(coords)).reshape(-1, 4)
    return None


def _distinct(keys) -> bool:
    # sorted, not a set: a list of a file's keys takes 8 bytes a key
    keys = sorted(keys)
    return not any(map(eq, keys, islice(keys, 1, None)))


def _joined(path, batch_columns) -> list | None:
    """The columns `batch_columns(lines)` gives for each batch of a file,
    joined batch by batch: a list is extended, and an array's bytes go to a
    buffer the joined array views, so that neither a batch nor a second copy
    of the arrays is held.  None if it turns a batch away or none comes."""
    joined = part = None
    with open(path, "rb") as fh:
        while raw := fh.readlines(_BATCH_BYTES):
            try:
                part = batch_columns(raw)
            # not UTF-8 or not JSON; a field missing, or of another type
            except (ValueError, RecursionError, KeyError, TypeError):
                return None
            if part is None:
                return None
            joined = joined or [[] if type(p) is list else bytearray() for p in part]
            for whole, p in zip(joined, part):
                whole += p if type(p) is list else p.data
    return joined and [whole if type(p) is list
                       else np.frombuffer(whole, p.dtype).reshape(-1, *p.shape[1:])
                       for whole, p in zip(joined, part)]


# ---------------------------------------------------------------------------
# scene files

def _scene_batch(raw: list[bytes]) -> list | None:
    """The columns of a batch of scene lines as the writers write them, with
    each scene's person count in place of the offsets; None for others."""
    batch = _entries(raw, SCENE_FORMAT, ("scene_id", "width", "height", "persons"))
    if batch is None:
        return None
    (scene_ids, widths, heights), counts, persons, ids = batch
    heads, bodies = (_boxes(map(itemgetter(key), persons)) for key in ("head", "body"))
    ignore = list(map(dict.get, persons, repeat("ignore"), repeat(False)))
    occ = list(map(dict.get, persons, repeat("occ"), repeat(0.0)))
    if (heads is None or bodies is None or not set(map(type, widths + heights + occ)) <= _FLOAT
            or not set(map(type, ignore)) <= _BOOL):
        return None
    occ, sizes = np.fromiter(occ, np.float64, len(occ)), np.array([widths, heights])
    # does the per-field parser reject a scene's size or a person?
    if not (((sizes > 0.0) & (sizes < math.inf)).all()
            and (_valid_boxes(heads) & _valid_boxes(bodies) & (occ >= 0.0) & (occ <= 1.0)
                 & (heads[:, :2] >= bodies[:, :2]).all(axis=1)
                 & (heads[:, 2:] <= bodies[:, 2:]).all(axis=1)
                 & (bodies[:, :2] >= 0.0).all(axis=1)
                 & (bodies[:, 2:] <= np.repeat(sizes.T, counts, axis=0)).all(axis=1)).all()):
        return None
    return [scene_ids, widths, heights, counts, ids, heads, bodies,
            np.array(ignore, dtype=bool), occ]


def read_scenes(path) -> SceneColumns:
    """The scenes of a file, as columns."""
    joined = _joined(path, _scene_batch)
    if not joined or not _distinct(joined[0]):
        return scene_columns(_parsed_rows(path, _scene_row, itemgetter(0),
                                          "duplicate scene_id {!r}".format))
    scene_ids, widths, heights, counts, *persons = joined
    return SceneColumns(scene_ids, widths, heights, list(accumulate(counts, initial=0)), *persons)


# ---------------------------------------------------------------------------
# detection files

_CLASS, _STAGE = {c: c for c in CLASSES}, {s: s for s in STAGES}


def _group_batch(raw: list[bytes]) -> list | None:
    """The columns of a batch of detection lines as the writers write them,
    flat (scene ids, class names, stages, each group's detection count in
    place of the offsets, then the detections' fields); None for others."""
    batch = _entries(raw, DETECTION_FORMAT, ("scene_id", "class", "stage", "dets"))
    if batch is None:
        return None
    (scene_ids, class_names, stages), counts, dets, ids = batch
    # the constants in place of the scanner's strings, one per group; a
    # KeyError for any other value sends the file to the exact path
    class_names = list(map(_CLASS.__getitem__, class_names))
    stages = list(map(_STAGE.__getitem__, stages))
    boxes, scores = _boxes(map(itemgetter("box"), dets)), list(map(itemgetter("score"), dets))
    if boxes is None or not set(map(type, scores)) <= _FLOAT:
        return None
    scores = np.fromiter(scores, np.float64, len(scores))
    # does the per-field parser reject a detection?
    if not (_valid_boxes(boxes) & (scores >= 0.0) & (scores <= 1.0)).all():
        return None
    return [scene_ids, class_names, stages, counts, ids, boxes, scores]


def read_detection_groups(path) -> GroupColumns:
    """The detection groups of a file, as columns."""
    joined = _joined(path, _group_batch)
    if not joined or not all(
            _distinct(compress(joined[0], map(eq, zip(joined[1], joined[2]), repeat(key))))
            for key in set(zip(joined[1], joined[2]))):
        return group_columns(_parsed_rows(path, _group_row, itemgetter(0, 1, 2),
                                          "duplicate group {}".format))
    scene_ids, class_names, stages, counts, *dets = joined
    return GroupColumns(DetectionColumns(scene_ids, list(accumulate(counts, initial=0)), *dets),
                        class_names, stages)


# ---------------------------------------------------------------------------
# writing
#
# The writers format each line directly, giving the bytes `json.dumps` gives
# for the line's object: the columns hold exact ints, bools and finite
# floats, whose JSON text is their repr, and the one free-form string, the
# scene id, is escaped by the function `json.dumps` uses for it.  They go
# scene by scene and group by group, so that a file's text is never held
# whole.

def _scene_lines(scenes: SceneColumns):
    offsets = scenes.person_offsets
    for scene_id, width, height, a, b in zip(scenes.scene_ids, scenes.widths, scenes.heights,
                                             offsets, offsets[1:]):
        persons = ", ".join(
            f'{{"id": {i!r}, "head": [{hx1!r}, {hy1!r}, {hx2!r}, {hy2!r}], '
            f'"body": [{bx1!r}, {by1!r}, {bx2!r}, {by2!r}], '
            f'"ignore": {"true" if ignore else "false"}, "occ": {occ!r}}}'
            for i, (hx1, hy1, hx2, hy2), (bx1, by1, bx2, by2), ignore, occ in zip(
                scenes.person_ids[a:b], scenes.heads[a:b].tolist(),
                scenes.bodies[a:b].tolist(), scenes.ignore[a:b].tolist(),
                scenes.occlusion[a:b].tolist()))
        yield (f'{{"format": "{SCENE_FORMAT}", "scene_id": {_json_string(scene_id)}, '
               f'"width": {width!r}, "height": {height!r}, "persons": [{persons}]}}\n')


def write_scenes(scenes: SceneColumns, path) -> None:
    """One line per scene, from the columns."""
    atomic_write_text(path, _scene_lines(scenes))


def _group_lines(groups: GroupColumns):
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
    """One line per group, from the columns."""
    atomic_write_text(path, _group_lines(groups))
