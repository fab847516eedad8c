"""Ground-truth scenes, detections and their JSON-lines interchange files.

Both file kinds hold one JSON object per line.  Scene lines:

    {"format": "scenes/v1", "scene_id": ..., "width": ..., "height": ...,
     "persons": [{"id", "head": [x1,y1,x2,y2], "body": [...], "ignore", "occ"}, ...]}

Detection lines group the detections of one scene, class and NMS stage:

    {"format": "detections/v1", "scene_id": ..., "class": "head"|"body",
     "stage": "pre_nms"|"post_nms", "dets": [{"id", "box": [...], "score"}, ...]}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PersonInstance:
    """One annotated person: paired head and full-body boxes."""

    person_id: int
    head: BBox
    body: BBox
    ignore: bool = False
    occlusion_ratio: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "person_id", int(self.person_id))
        object.__setattr__(self, "ignore", bool(self.ignore))
        object.__setattr__(self, "occlusion_ratio", float(self.occlusion_ratio))
        if not 0.0 <= self.occlusion_ratio <= 1.0:
            raise ValueError(f"occlusion_ratio {self.occlusion_ratio} outside [0, 1]")
        h, b = self.head, self.body
        # labeling rule: the head box lies within the body box
        if h.x_min < b.x_min or h.y_min < b.y_min or h.x_max > b.x_max or h.y_max > b.y_max:
            raise ValueError("head box extends beyond body box")


@dataclass(frozen=True)
class Scene:
    """Ground truth for one image."""

    scene_id: str
    width: float
    height: float
    persons: tuple[PersonInstance, ...]

    def __post_init__(self):
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        object.__setattr__(self, "persons", tuple(self.persons))
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"non-positive image size {self.width}x{self.height}")
        seen = set()
        for p in self.persons:
            if p.person_id in seen:
                raise ValueError(f"duplicate person id {p.person_id}")
            seen.add(p.person_id)
            b = p.body
            if b.x_min < 0 or b.y_min < 0 or b.x_max > self.width or b.y_max > self.height:
                raise ValueError(f"person {p.person_id} body box outside image bounds")


@dataclass(frozen=True)
class Detection:
    """A scored box of one class in one scene."""

    det_id: int
    box: BBox
    score: float
    class_name: str
    scene_id: str

    def __post_init__(self):
        object.__setattr__(self, "det_id", int(self.det_id))
        object.__setattr__(self, "score", float(self.score))
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score {self.score} outside [0, 1]")
        if self.class_name not in CLASSES:
            raise ValueError(f"unknown detection class {self.class_name!r}")


@dataclass(frozen=True)
class DetectionGroup:
    """All detections of one (scene, class, stage) triple, as stored on one file line."""

    scene_id: str
    class_name: str
    stage: str
    dets: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "dets", tuple(self.dets))
        if self.class_name not in CLASSES:
            raise ValueError(f"unknown class {self.class_name!r}")
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        seen = set()
        for d in self.dets:
            if d.scene_id != self.scene_id or d.class_name != self.class_name:
                raise ValueError(f"detection {d.det_id} does not belong to this group")
            if d.det_id in seen:
                raise ValueError(f"duplicate det id {d.det_id}")
            seen.add(d.det_id)


@dataclass(frozen=True)
class DetectionSet:
    """Pipeline input for one scene: kept heads, and bodies before/after NMS."""

    scene_id: str
    heads_post_nms: tuple[Detection, ...]
    bodies_pre_nms: tuple[Detection, ...]
    bodies_post_nms: tuple[Detection, ...]

    def __post_init__(self):
        for name in ("heads_post_nms", "bodies_pre_nms", "bodies_post_nms"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        pre_ids = {d.det_id for d in self.bodies_pre_nms}
        missing = [d.det_id for d in self.bodies_post_nms if d.det_id not in pre_ids]
        if missing:
            raise ValueError(f"post-NMS body ids {missing} absent from the pre-NMS set")


# ---------------------------------------------------------------------------
# scene files

def _parse_box(value, path, line_no, field) -> BBox:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise FormatError("box must be a 4-element [x1, y1, x2, y2] list", path, line_no, field)
    try:
        return BBox(*[float(v) for v in value])
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc), path, line_no, field) from exc


def _require(obj, key, path, line_no, context=""):
    if key not in obj:
        raise FormatError("missing required key", path, line_no, context + key)
    return obj[key]


def _check_format(obj, expected, path, line_no):
    fmt = obj.get("format", expected)
    if fmt != expected:
        raise FormatError(f"unsupported format {fmt!r}, expected {expected!r}",
                          path, line_no, "format")


def _parse_scene(obj, path, line_no) -> Scene:
    _check_format(obj, SCENE_FORMAT, path, line_no)
    scene_id = str(_require(obj, "scene_id", path, line_no))
    width = _require(obj, "width", path, line_no)
    height = _require(obj, "height", path, line_no)
    persons = []
    raw_persons = _require(obj, "persons", path, line_no)
    if not isinstance(raw_persons, list):
        raise FormatError("persons must be a list", path, line_no, "persons")
    for i, p in enumerate(raw_persons):
        ctx = f"persons[{i}]."
        head = _parse_box(_require(p, "head", path, line_no, ctx), path, line_no, ctx + "head")
        body = _parse_box(_require(p, "body", path, line_no, ctx), path, line_no, ctx + "body")
        try:
            persons.append(PersonInstance(
                person_id=_require(p, "id", path, line_no, ctx),
                head=head,
                body=body,
                ignore=p.get("ignore", False),
                occlusion_ratio=p.get("occ", 0.0),
            ))
        except (TypeError, ValueError) as exc:
            raise FormatError(str(exc), path, line_no, ctx.rstrip(".")) from exc
    try:
        return Scene(scene_id=scene_id, width=width, height=height, persons=tuple(persons))
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc), path, line_no) from exc


def _iter_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", path, line_no) from exc
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


def _scene_obj(scene: Scene) -> dict:
    return {
        "format": SCENE_FORMAT,
        "scene_id": scene.scene_id,
        "width": scene.width,
        "height": scene.height,
        "persons": [
            {"id": p.person_id, "head": p.head.as_list(), "body": p.body.as_list(),
             "ignore": p.ignore, "occ": p.occlusion_ratio}
            for p in scene.persons
        ],
    }


def write_scenes(scenes, path) -> None:
    atomic_write_text(path, "".join(json.dumps(_scene_obj(s)) + "\n" for s in scenes))


# ---------------------------------------------------------------------------
# detection files

def _parse_group(obj, path, line_no) -> DetectionGroup:
    _check_format(obj, DETECTION_FORMAT, path, line_no)
    scene_id = str(_require(obj, "scene_id", path, line_no))
    class_name = _require(obj, "class", path, line_no)
    stage = _require(obj, "stage", path, line_no)
    raw = _require(obj, "dets", path, line_no)
    if not isinstance(raw, list):
        raise FormatError("dets must be a list", path, line_no, "dets")
    dets = []
    for i, d in enumerate(raw):
        ctx = f"dets[{i}]."
        box = _parse_box(_require(d, "box", path, line_no, ctx), path, line_no, ctx + "box")
        try:
            dets.append(Detection(
                det_id=_require(d, "id", path, line_no, ctx),
                box=box,
                score=_require(d, "score", path, line_no, ctx),
                class_name=class_name,
                scene_id=scene_id,
            ))
        except (TypeError, ValueError) as exc:
            raise FormatError(str(exc), path, line_no, ctx.rstrip(".")) from exc
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


def _group_obj(group: DetectionGroup) -> dict:
    return {
        "format": DETECTION_FORMAT,
        "scene_id": group.scene_id,
        "class": group.class_name,
        "stage": group.stage,
        "dets": [{"id": d.det_id, "box": d.box.as_list(), "score": d.score}
                 for d in group.dets],
    }


def write_detection_groups(groups, path) -> None:
    atomic_write_text(path, "".join(json.dumps(_group_obj(g)) + "\n" for g in groups))

