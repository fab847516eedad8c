"""Small builders shared by the test modules."""

from crowdpost.data_model import Detection, PersonInstance, Scene
from crowdpost.geometry import BBox


def det(det_id, box, score):
    return Detection(det_id=det_id, box=BBox(*box), score=score)


def person(person_id, head, body, ignore=False, occ=0.0):
    return PersonInstance(person_id=person_id, head=BBox(*head), body=BBox(*body),
                          ignore=ignore, occlusion_ratio=occ)


def scene(persons, scene_id="s0", width=200.0, height=200.0):
    return Scene(scene_id=scene_id, width=width, height=height, persons=tuple(persons))
