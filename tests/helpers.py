"""Small builders shared by the test modules.

The readers and the functions that take their output work on columns; the
tests build records, and `scene_columns`, `detection_columns` and
`group_columns` turn those into the columns a reader would return for them.
`write_groups` writes records to a detection file, as `simulate` does.
`one_scene` gives one scene's detections as the columns `postprocess` takes,
and `postprocess_scene` runs a one-scene split given as `Detection` lists
through `scene_scorers` and `postprocess`.
`fields` gives every column of a columns object as plain values, so two of
them compare by the values they hold.
"""

import dataclasses
from itertools import accumulate

import numpy as np

from crowdpost.data_model import (DetectionColumns, GroupColumns, SceneColumns,
                                  write_detection_groups)
from crowdpost.pipeline import postprocess, scene_scorers
from crowdpost.records import (BBox, Detection, PersonInstance, Scene, box_array,
                               groups_as_columns)


def det(det_id, box, score):
    return Detection(det_id=det_id, box=BBox(*box), score=score)


def person(person_id, head, body, ignore=False, occ=0.0):
    return PersonInstance(person_id=person_id, head=BBox(*head), body=BBox(*body),
                          ignore=ignore, occlusion_ratio=occ)


def scene(persons, scene_id="s0", width=200.0, height=200.0):
    return Scene(scene_id=scene_id, width=width, height=height, persons=tuple(persons))


def box_pairs(pairs):
    """(head, body) `BBox` pairs as the two (n, 4) arrays `estimate_ratio` takes."""
    pairs = list(pairs)
    return box_array(h for h, _ in pairs), box_array(b for _, b in pairs)


def scene_columns(scenes) -> SceneColumns:
    """The columns `read_scenes` returns for a file of these `Scene` records."""
    scenes = list(scenes)
    persons = [p for s in scenes for p in s.persons]
    return SceneColumns([s.scene_id for s in scenes], [s.width for s in scenes],
                        [s.height for s in scenes],
                        list(accumulate((len(s.persons) for s in scenes), initial=0)),
                        [p.person_id for p in persons], box_array(p.head for p in persons),
                        box_array(p.body for p in persons),
                        np.array([p.ignore for p in persons], dtype=bool),
                        np.array([p.occlusion_ratio for p in persons], dtype=np.float64))


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
    """`postprocess` of one scene given as `Detection` lists, its pairs gated
    and scored by `scene_scorers` with the pair scorer `scorer`; the final
    heads and bodies come back as `Detection` lists too."""
    heads, bodies_pre = list(heads), list(bodies_pre)
    h, b_pre = one_scene(heads), one_scene(bodies_pre)
    out = postprocess(h, b_pre, one_scene(bodies_post),
                      scene_scorers(h, b_pre, scorer, cfg)[0], cfg)
    return dataclasses.replace(out, final_heads=[heads[i] for i in out.final_heads],
                               final_bodies=[bodies_pre[j] for j in out.final_bodies])


def group_columns(groups) -> GroupColumns:
    """The columns `read_detection_groups` returns for a file of these
    `DetectionGroup` records."""
    groups = list(groups)
    return GroupColumns(_detection_columns([g.scene_id for g in groups],
                                           [g.dets for g in groups]),
                        [g.class_name for g in groups], [g.stage for g in groups])


def write_groups(groups, path) -> None:
    """Write a detection file of these `DetectionGroup` records, as
    `simulate` writes its records."""
    write_detection_groups(groups_as_columns(groups), path)


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
