"""Small builders shared by the test modules.

The readers and the functions that take their output work on columns; the
tests build ground truth one person at a time, as plain named tuples
(`person`, `scene`), and detections as `Detection` records (`det`), all
with boxes as 4-tuples of float corners (`box`), as `simulator` makes them.
`box_array` stacks such boxes into the (n, 4) array the kernels take.
`scene_columns`, `detection_columns` and `group_columns` turn those into the
columns a reader would return for them, and `scene_of` reads a simulator
row back as a `Scene`.
`write_scene_file` and `write_groups` write scene and detection files, as
`simulate` does.  `one_scene` gives one scene's detections as a split of
one group, and `postprocess_scene` runs a one-scene split given as
`Detection` lists through `scene_inputs` and `postprocess`.
`fields` gives every column of a columns object as plain values, so two of
them compare by the values they hold.
"""

import dataclasses
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from crowdpost.data_model import (DetectionColumns, GroupColumns, SceneColumns,
                                  write_detection_groups, write_scenes)
from crowdpost.pipeline import postprocess, scene_inputs
from crowdpost.records import Detection


class Person(NamedTuple):
    """One annotated person: paired head and full-body boxes."""
    person_id: int
    head: tuple
    body: tuple
    ignore: bool = False
    occlusion_ratio: float = 0.0


class Scene(NamedTuple):
    """Ground truth for one image."""
    scene_id: str
    width: float
    height: float
    persons: tuple


class Group(NamedTuple):
    """The detections of one (scene, class, stage) triple, one file line."""
    scene_id: str
    class_name: str
    stage: str
    dets: tuple


def box(*corners) -> tuple:
    """A box as a 4-tuple of float corners (x_min, y_min, x_max, y_max)."""
    return tuple(map(float, corners))


def box_array(boxes) -> np.ndarray:
    """Stack boxes into an (n, 4) float64 array in corner form."""
    return np.array(list(boxes), dtype=np.float64).reshape(-1, 4)


def det(det_id, corners, score):
    return Detection(int(det_id), box(*corners), float(score))


def person(person_id, head, body, ignore=False, occ=0.0):
    return Person(int(person_id), box(*head), box(*body), bool(ignore), float(occ))


def scene(persons, scene_id="s0", width=200.0, height=200.0):
    return Scene(scene_id, float(width), float(height), tuple(persons))


def scene_of(row) -> Scene:
    """A scene row, as `generate_scene` gives it, as a `Scene`."""
    scene_id, width, height, ids, heads, bodies, ignore, occ = row
    return Scene(scene_id, width, height, tuple(map(
        Person, ids, zip(*[iter(heads)] * 4), zip(*[iter(bodies)] * 4), ignore, occ)))


def sim_dets(pairs) -> list:
    """Simulated (box, score) detections as `Detection` records, each with
    its position as its id."""
    return [det(i, box, score) for i, (box, score) in enumerate(pairs)]


def box_pairs(pairs):
    """(head, body) box pairs as the two (n, 4) arrays `estimate_ratio` takes."""
    pairs = list(pairs)
    return (np.array([h for h, _ in pairs], dtype=np.float64).reshape(-1, 4),
            np.array([b for _, b in pairs], dtype=np.float64).reshape(-1, 4))


def scene_columns(scenes) -> SceneColumns:
    """The columns `read_scenes` returns for a file of these scenes."""
    scenes = list(scenes)
    persons = [p for s in scenes for p in s.persons]
    heads, bodies = box_pairs((p.head, p.body) for p in persons)
    return SceneColumns([s.scene_id for s in scenes], [s.width for s in scenes],
                        [s.height for s in scenes],
                        list(accumulate((len(s.persons) for s in scenes), initial=0)),
                        [p.person_id for p in persons], heads, bodies,
                        np.array([p.ignore for p in persons], dtype=bool),
                        np.array([p.occlusion_ratio for p in persons], dtype=np.float64))


def write_scene_file(scenes, path) -> None:
    """Write a scene file of these scenes."""
    write_scenes(scene_columns(scenes), path)


def _detection_columns(scene_ids, runs) -> DetectionColumns:
    dets = [d for run in runs for d in run]
    return DetectionColumns(list(scene_ids), list(accumulate(map(len, runs), initial=0)),
                            [d.det_id for d in dets], box_array(d.box for d in dets),
                            np.array([d.score for d in dets], dtype=np.float64))


def detection_columns(pairs) -> DetectionColumns:
    """Columns of `(scene_id, Detection)` pairs, each pair a group of its own,
    as `compute_mr2` takes them."""
    pairs = list(pairs)
    return _detection_columns([scene_id for scene_id, _ in pairs], [[d] for _, d in pairs])


def one_scene(dets, scene_id="s0") -> DetectionColumns:
    """One scene's detections as a split of one group, in their order."""
    return _detection_columns([scene_id], [list(dets)])


def split_columns(runs) -> DetectionColumns:
    """Scene k's detections `runs[k]` as group k, of scene "s<k>"."""
    runs = [list(run) for run in runs]
    return _detection_columns([f"s{k}" for k in range(len(runs))], runs)


def postprocess_scene(heads, bodies_pre, bodies_post, scorer, cfg):
    """`postprocess` of one scene given as `Detection` lists, each kept body
    one of the pre-NMS bodies, its pairs gated and scored by `scene_inputs`
    with the pair scorer `scorer`; the final heads and bodies come back as
    `Detection` lists too."""
    heads, bodies_pre = list(heads), list(bodies_pre)
    position = {d: k for k, d in enumerate(bodies_pre)}
    kept = np.array([position[d] for d in bodies_post], dtype=np.intp)
    (scene,) = scene_inputs(one_scene(heads), one_scene(bodies_pre), kept, scorer, cfg)
    out = postprocess(*scene, cfg)
    return dataclasses.replace(out, final_heads=[heads[i] for i in out.final_heads],
                               final_bodies=[bodies_pre[j] for j in out.final_bodies])


def group_columns(groups) -> GroupColumns:
    """The columns `read_detection_groups` returns for a file of these
    `Group`s."""
    groups = list(groups)
    return GroupColumns(_detection_columns([g.scene_id for g in groups],
                                           [g.dets for g in groups]),
                        [g.class_name for g in groups], [g.stage for g in groups])


def write_groups(groups, path) -> None:
    """Write a detection file of these `Group`s."""
    write_detection_groups(group_columns(groups), path)


def group_det_ids(groups: GroupColumns) -> list[tuple]:
    """(scene_id, class_name, stage, det ids) of each group, in file order."""
    d = groups.detections
    offsets = d.det_offsets
    return [(scene_id, class_name, stage, d.det_ids[a:b])
            for scene_id, class_name, stage, a, b in zip(d.scene_ids, groups.class_names,
                                                          groups.stages, offsets, offsets[1:])]


def fields(columns) -> dict:
    """Every column by name: arrays as (dtype, shape, values, bytes), so that
    also the sign of a zero counts, nested columns as their own fields, and
    lists as they are."""
    out = {}
    for name in type(columns).__slots__:
        value = getattr(columns, name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tolist(), value.tobytes())
        elif hasattr(type(value), "__slots__"):
            value = fields(value)
        out[name] = value
    return out
