import json
import tracemalloc

import numpy as np
import pytest

from crowdpost import data_model
from crowdpost.data_model import (
    BODY, CLASSES, HEAD, POST_NMS, PRE_NMS, STAGES, FormatError, read_detection_groups,
    read_scenes)
from crowdpost.records import DetectionSet, detection_lists

from helpers import (Group, batch_pass, det, fields, group_columns, one_scene, person, scene,
                     scene_columns, split_columns, write_groups, write_scene_file)


# The per-field parser applies the ground-truth and group checks; these call
# it on a decoded line, with no file, so that its message stands alone.

def _entry(person_id, head, body, occ=0.0):
    return {"id": person_id, "head": list(head), "body": list(body), "occ": occ}


def _parse_scene(persons=(), width=200, height=200):
    return data_model._scene_row({"format": "scenes/v1", "scene_id": "s0", "width": width,
                                  "height": height, "persons": list(persons)})


def _parse_group(class_name, dets):
    return data_model._group_row(
        {"format": "detections/v1", "scene_id": "s0", "class": class_name, "stage": PRE_NMS,
         "dets": [{"id": d.det_id, "box": list(d.box), "score": d.score} for d in dets]})


def test_person_requires_head_inside_body():
    with pytest.raises(ValueError, match="head box extends beyond body"):
        _parse_scene([_entry(1, head=(0, 0, 12, 10), body=(2, 0, 10, 40))])


def test_person_occlusion_range():
    with pytest.raises(ValueError):
        _parse_scene([_entry(1, head=(2, 0, 8, 6), body=(0, 0, 10, 40), occ=1.5)])
    with pytest.raises(ValueError):
        _parse_scene([_entry(1, head=(2, 0, 8, 6), body=(0, 0, 10, 40), occ=-0.1)])


def test_scene_rejects_duplicate_person_ids():
    p = _entry(3, head=(2, 0, 8, 6), body=(0, 0, 10, 40))
    with pytest.raises(ValueError, match="duplicate person id"):
        _parse_scene([p, p])


def test_scene_rejects_out_of_bounds_body():
    p = _entry(1, head=(2, 0, 8, 6), body=(0, 0, 10, 400))
    with pytest.raises(ValueError, match="outside image bounds"):
        _parse_scene([p], height=200)


def test_scene_rejects_non_positive_size():
    with pytest.raises(ValueError):
        _parse_scene([], width=0)


def test_detection_score_range():
    with pytest.raises(ValueError):
        _parse_group(BODY, (det(1, (0, 0, 10, 10), 1.5),))
    with pytest.raises(ValueError):
        _parse_group(BODY, (det(1, (0, 0, 10, 10), -0.01),))


def test_detection_class_checked():
    # a detection's class is that of the group holding it
    with pytest.raises(ValueError, match="unknown class 'torso'"):
        _parse_group("torso", (det(1, (0, 0, 1, 1), 0.5),))


def test_group_duplicate_ids_checked():
    d = det(1, (0, 0, 10, 10), 0.5)
    other = det(2, (0, 0, 10, 10), 0.5)
    with pytest.raises(ValueError, match="^duplicate det id 1$"):
        _parse_group(BODY, (d, other, d, other))


def _demo_scene(scene_id="s0"):
    return scene(
        [person(1, head=(10, 10, 20, 22.5), body=(5, 10, 35, 90), occ=0.25),
         person(2, head=(60, 5, 70, 17.5), body=(55, 5, 85, 85), ignore=True)],
        scene_id=scene_id)


def test_scene_round_trip(tmp_path):
    path = tmp_path / "scenes.jsonl"
    scenes = [_demo_scene("a"), _demo_scene("b"), scene([], scene_id="empty")]
    write_scene_file(scenes, path)
    back = fields(read_scenes(path))
    assert back == fields(scene_columns(scenes)) and len(back["scene_ids"]) == 3
    assert back != fields(scene_columns(scenes[:2]))
    assert back != fields(scene_columns(scenes[::-1]))
    assert back == fields(read_scenes(path))


def test_scene_round_trip_random(tmp_path):
    rng = np.random.default_rng(5)
    scenes = []
    for k in range(20):
        persons = []
        for i in range(rng.integers(0, 6)):
            x, y = rng.uniform(0, 100, size=2)
            w, h = rng.uniform(5, 40, size=2)
            body = (x, y, x + w, y + h)
            head = (x + w * 0.3, y, x + w * 0.7, y + h * 0.25)
            persons.append(person(i, head, body, ignore=bool(rng.integers(2)),
                                  occ=float(rng.uniform(0, 1))))
        scenes.append(scene(persons, scene_id=f"s{k}", width=150, height=150))
    path = tmp_path / "scenes.jsonl"
    write_scene_file(scenes, path)
    assert fields(read_scenes(path)) == fields(scene_columns(scenes))


def test_empty_file(tmp_path):
    path = tmp_path / "scenes.jsonl"
    path.write_text("")
    assert fields(read_scenes(path)) == fields(scene_columns([]))


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "scenes.jsonl"
    write_scene_file([_demo_scene()], path)
    path.write_text("\n" + path.read_text() + "\n\n")
    assert fields(read_scenes(path)) == fields(scene_columns([_demo_scene()]))


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "scenes.jsonl"
    write_scene_file([_demo_scene("a")], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"format": "scenes/v1", "scene_id": "bad", "width": 100, '
                 '"height": 100, "persons": [{"id": 1, "head": [0, 0, 30, 10], '
                 '"body": [5, 0, 20, 60], "ignore": false, "occ": 0}]}\n')
    with pytest.raises(FormatError) as exc_info:
        read_scenes(path)
    assert exc_info.value.line == 2
    assert "head box extends beyond body" in str(exc_info.value)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "scenes.jsonl"
    path.write_text('{"format": "scenes/v1"\n')
    with pytest.raises(FormatError) as exc_info:
        read_scenes(path)
    assert exc_info.value.line == 1


def test_repeated_key_rejected_at_any_depth(tmp_path):
    # a colon in a string does not look like a repeat; a repeat inside an
    # unknown key's object, which no field check reads, is still one
    path = tmp_path / "scenes.jsonl"
    write_scene_file([_demo_scene("a:b")], path)
    line = path.read_text()
    assert read_scenes(path).scene_ids == ["a:b"]
    path.write_text(line + line.replace('"a:b"', '"c", "x": {"k": [{"j": 1, "j": 2}]}'))
    with pytest.raises(FormatError, match="^scenes.jsonl:2: repeated key 'j'$"):
        read_scenes(path)
    path.write_text(line.replace('"a:b"', '"c", "x": {"k": 1, "l": 2}'))
    assert read_scenes(path).scene_ids == ["c"]


def test_missing_key_reports_field(tmp_path):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"format": "detections/v1", "scene_id": "s0", "class": "body", '
                    '"stage": "pre_nms", "dets": [{"id": 1, "box": [0, 0, 1, 1]}]}\n')
    with pytest.raises(FormatError) as exc_info:
        read_detection_groups(path)
    assert "score" in str(exc_info.value)


def test_bad_score_rejected_on_read(tmp_path):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"format": "detections/v1", "scene_id": "s0", "class": "body", '
                    '"stage": "pre_nms", "dets": [{"id": 1, "box": [0, 0, 1, 1], '
                    '"score": 1.5}]}\n')
    with pytest.raises(FormatError, match="outside"):
        read_detection_groups(path)


def test_duplicate_scene_id_rejected(tmp_path):
    path = tmp_path / "scenes.jsonl"
    write_scene_file([_demo_scene("a"), _demo_scene("a")], path)
    for tail in ("", "not JSON\n"):
        path.write_text(path.read_text().splitlines(keepends=True)[0] * 2 + tail)
        with pytest.raises(FormatError, match="^scenes.jsonl:2: duplicate scene_id 'a'$"):
            read_scenes(path)


def test_group_round_trip(tmp_path):
    groups = [
        Group("s0", HEAD, POST_NMS,
                       (det(1, (0, 0, 10, 10), 0.875),
                        det(2, (20, 0, 30, 10), 0.5))),
        Group("s0", BODY, PRE_NMS, (det(1, (0, 0, 30, 80), 0.625),)),
    ]
    path = tmp_path / "dets.jsonl"
    write_groups(groups, path)
    back = read_detection_groups(path)
    assert fields(back) == fields(group_columns(groups)) and len(back.class_names) == 2
    assert fields(back) != fields(group_columns(groups[::-1]))
    # the evaluator's selection: the detections of one class and stage
    selected = read_detection_groups(path, HEAD, POST_NMS).detections
    assert fields(selected) == fields(group_columns(groups[:1]).detections)
    assert len(selected) == 2
    assert (fields(read_detection_groups(path, BODY, POST_NMS).detections)
            == fields(group_columns([]).detections))
    assert len(read_detection_groups(path, BODY, PRE_NMS).detections) == 1
    assert selected.boxes.tolist() == [list(d.box) for d in groups[0].dets]
    assert selected.scores.tolist() == [0.875, 0.5] and selected.det_ids == [1, 2]


def test_group_keys_read_as_the_constants(tmp_path):
    # one class and one stage string per group would be one object per line;
    # the reader gives the module's constants instead
    groups = [Group(f"s{k}", cls, stage, (det(k, (0, 0, 10, 10), 0.5),))
              for k, (cls, stage) in enumerate([(HEAD, PRE_NMS), (BODY, PRE_NMS),
                                                (HEAD, POST_NMS), (BODY, POST_NMS)] * 3)]
    path = tmp_path / "dets.jsonl"
    write_groups(groups, path)
    back = read_detection_groups(path)
    assert back.class_names == [g.class_name for g in groups]
    assert back.stages == [g.stage for g in groups]
    assert all(any(c is k for k in CLASSES) for c in back.class_names)
    assert all(any(s is k for k in STAGES) for s in back.stages)


def test_duplicate_group_rejected(tmp_path):
    g = Group("s0", BODY, PRE_NMS, (det(1, (0, 0, 30, 80), 0.625),))
    path = tmp_path / "dets.jsonl"
    write_groups([g, g], path)
    path.write_text(path.read_text() + "not JSON\n")
    with pytest.raises(FormatError, match="^dets.jsonl:2: duplicate group \\('s0', 'body'"):
        read_detection_groups(path)


def _detection_set(path, scene_id="s0"):
    """The post-process input of one scene, assembled from a detection file."""
    columns = read_detection_groups(path)
    d = columns.detections
    groups = {(c, stage): tuple(dets) for sid, c, stage, dets in
              zip(d.scene_ids, columns.class_names, columns.stages, detection_lists(d))
              if sid == scene_id}
    return DetectionSet(scene_id, groups[(HEAD, POST_NMS)], groups[(BODY, PRE_NMS)],
                        groups[(BODY, POST_NMS)])


def test_detection_set_round_trip(tmp_path):
    b1 = det(1, (0, 0, 30, 80), 0.9)
    b2 = det(2, (5, 0, 35, 80), 0.7)
    h1 = det(1, (10, 0, 20, 12), 0.8)
    ds = DetectionSet("s0", (h1,), (b1, b2), (b1,))
    path = tmp_path / "sets.jsonl"
    write_groups([Group("s0", HEAD, POST_NMS, ds.heads_post_nms),
                  Group("s0", BODY, PRE_NMS, ds.bodies_pre_nms),
                  Group("s0", BODY, POST_NMS, ds.bodies_post_nms)], path)
    assert _detection_set(path) == ds


def test_unsupported_format_rejected(tmp_path):
    path = tmp_path / "scenes.jsonl"
    path.write_text('{"format": "scenes/v999", "scene_id": "s0", "width": 10, '
                    '"height": 10, "persons": []}\n')
    with pytest.raises(FormatError, match="unsupported format"):
        read_scenes(path)


# ---------------------------------------------------------------------------
# record types

def _records():
    d = det(1, (0, 0, 10, 10), 0.5)
    return [d, DetectionSet("s0", (), (d,), (d,))]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_slotted_and_frozen(record):
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("width, height", [(float("nan"), 100), (100, float("inf"))])
def test_scene_rejects_non_finite_size(width, height):
    with pytest.raises(ValueError, match="non-finite image size"):
        _parse_scene([], width=width, height=height)


# ---------------------------------------------------------------------------
# scalar types in files

def _det_line(entry: str) -> str:
    return ('{"format": "detections/v1", "scene_id": "s0", "class": "body", '
            f'"stage": "pre_nms", "dets": [{entry}]}}\n')


_SCENE = '"scene_id": "s0", "width": 100, "height": 100'


def _scene_line(entry: str, scene: str = _SCENE) -> str:
    return f'{{"format": "scenes/v1", {scene}, "persons": [{entry}]}}\n'


_PERSON = '"head": [2, 0, 8, 6], "body": [0, 0, 10, 40]'

_BOX = "[0.0, 0.0, 1.0, 1.0]"
_GOOD_PERSON = '{"id": 1, "head": [2.0, 0.0, 8.0, 6.0], "body": [0.0, 0.0, 10.0, 40.0]}'
_FLOAT_SCENE = '"scene_id": "s1", "width": 100.0, "height": 100.0'


def _float_det_line(entries: str, scene_id: str = "s1") -> str:
    return _det_line(entries).replace('"s0"', f'"{scene_id}"')


@pytest.mark.parametrize("line, field, message", [
    pytest.param(_det_line('{"id": 1.5, "box": [0, 0, 1, 1], "score": 0.5}'),
                 "dets[0].id", "expected an integer, got 1.5", id="det-id-float"),
    pytest.param(_det_line('{"id": true, "box": [0, 0, 1, 1], "score": 0.5}'),
                 "dets[0].id", "expected an integer, got True", id="det-id-bool"),
    pytest.param(_det_line('{"id": "1", "box": [0, 0, 1, 1], "score": 0.5}'),
                 "dets[0].id", "expected an integer, got '1'", id="det-id-string"),
    pytest.param(_det_line('{"id": Infinity, "box": [0, 0, 1, 1], "score": 0.5}'),
                 "dets[0].id", "expected an integer, got inf", id="det-id-infinity"),
    pytest.param(_det_line("5"), "dets[0]", "expected an object, got 5", id="det-not-object"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, 1%s, 1], "score": 0.5}' % ("0" * 400)),
                 "dets[0].box", "int too large to convert to float", id="box-huge-int"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, 1, 1], "score": 1%s}' % ("0" * 400)),
                 "dets[0].score", "int too large to convert to float", id="score-huge-int"),
    pytest.param(_det_line('{"id": 1, "box": ["0", "0", "1e1", "10"], "score": 0.5}'),
                 "dets[0].box", "expected a number, got '0'", id="box-strings"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, true, 10], "score": 0.5}'),
                 "dets[0].box", "expected a number, got True", id="box-bool"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, 1, 1], "score": "0.5"}'),
                 "dets[0].score", "expected a number, got '0.5'", id="score-string"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, 1, 1], "score": true}'),
                 "dets[0].score", "expected a number, got True", id="score-bool"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, 1, 1], "score": 0.5}').replace(
                     '"body"', '"hed"'), "class", "unknown class 'hed'", id="class-unknown"),
    pytest.param(_det_line("").replace('"body"', '"hed"'),
                 "class", "unknown class 'hed'", id="class-unknown-empty-group"),
    pytest.param(_det_line("").replace('"body"', "7"),
                 "class", "unknown class 7", id="class-number"),
    pytest.param(_det_line('{"id": 1, "box": [0, 0, 1, 1], "score": 0.5}').replace(
                     '"pre_nms"', '"pre"'), "stage", "unknown stage 'pre'", id="stage-unknown"),
    pytest.param(_det_line("").replace('"pre_nms"', "null"),
                 "stage", "unknown stage None", id="stage-null"),
    pytest.param(_det_line("").replace('"s0"', "null"),
                 "scene_id", "expected a string, got None", id="det-scene-id-null"),
    pytest.param(_det_line("").replace('"s0"', "7"),
                 "scene_id", "expected a string, got 7", id="det-scene-id-int"),
    pytest.param(_det_line("").replace('"s0"', '["a"]'),
                 "scene_id", "expected a string, got ['a']", id="det-scene-id-list"),
    pytest.param(_scene_line('{"id": 1.7, %s}' % _PERSON),
                 "persons[0].id", "expected an integer, got 1.7", id="person-id-float"),
    pytest.param(_scene_line('{"id": 1, "ignore": "false", %s}' % _PERSON),
                 "persons[0].ignore", "expected a boolean, got 'false'", id="ignore-string"),
    pytest.param(_scene_line('{"id": 1, "ignore": 0, %s}' % _PERSON),
                 "persons[0].ignore", "expected a boolean, got 0", id="ignore-int"),
    pytest.param(_scene_line('{"id": 1, "occ": 1%s, %s}' % ("0" * 400, _PERSON)),
                 "persons[0].occ", "int too large to convert to float", id="occ-huge-int"),
    pytest.param(_scene_line('{"id": 1, "occ": "0.2", %s}' % _PERSON),
                 "persons[0].occ", "expected a number, got '0.2'", id="occ-string"),
    pytest.param(_scene_line("", '"scene_id": "s0", "width": 1%s, "height": 100' % ("0" * 400)),
                 "width", "int too large to convert to float", id="width-huge-int"),
    pytest.param(_scene_line("", '"scene_id": "s0", "width": "100", "height": 100'),
                 "width", "expected a number, got '100'", id="width-string"),
    pytest.param(_scene_line("", '"scene_id": "s0", "width": 100, "height": true'),
                 "height", "expected a number, got True", id="height-bool"),
    pytest.param(_scene_line("", '"scene_id": null, "width": 100, "height": 100'),
                 "scene_id", "expected a string, got None", id="scene-id-null"),
    pytest.param(_scene_line("", '"scene_id": 7, "width": 100, "height": 100'),
                 "scene_id", "expected a string, got 7", id="scene-id-int"),
    pytest.param(_scene_line("", '"scene_id": ["a"], "width": 100, "height": 100'),
                 "scene_id", "expected a string, got ['a']", id="scene-id-list"),
    pytest.param(_scene_line('[1]'), "persons[0]", "expected an object, got [1]",
                 id="person-not-object"),
    # range faults in values of the right JSON type
    pytest.param(_float_det_line('{"id": 1, "box": %s, "score": 1.5}' % _BOX),
                 "dets[0]", "detection score 1.5 outside [0, 1]", id="score-range"),
    pytest.param(_float_det_line('{"id": 1, "box": [0.0, 1e999, 1.0, 1.0], "score": 0.5}'),
                 "dets[0].box", "non-finite box coordinate y_min=inf", id="coordinate-1e999"),
    pytest.param(_float_det_line('{"id": 1, "box": [2.0, 0.0, 1.0, 1.0], "score": 0.5}'),
                 "dets[0].box", "box has negative extent: (2.0, 0.0, 1.0, 1.0)",
                 id="negative-extent"),
    pytest.param(_float_det_line('{"id": 4, "box": %s, "score": 0.5}, '
                                 '{"id": 4, "box": %s, "score": 0.25}' % (_BOX, _BOX)),
                 None, "duplicate det id 4", id="duplicate-det"),
    pytest.param(_scene_line('{"id": 1, "head": [2.0, 0.0, 12.0, 6.0], '
                             '"body": [0.0, 0.0, 10.0, 40.0]}', _FLOAT_SCENE),
                 "persons[0]", "head box extends beyond body box", id="head-outside-body"),
    pytest.param(_scene_line('{"id": 1, "head": [2.0, 0.0, 8.0, 6.0], '
                             '"body": [0.0, 0.0, 10.0, 400.0]}', _FLOAT_SCENE),
                 None, "person 1 body box outside image bounds", id="body-outside-image"),
    pytest.param(_scene_line('{"id": 1, "occ": 1.5, "head": [2.0, 0.0, 8.0, 6.0], '
                             '"body": [0.0, 0.0, 10.0, 40.0]}', _FLOAT_SCENE),
                 "persons[0]", "occlusion_ratio 1.5 outside [0, 1]", id="occlusion-range"),
    pytest.param(_scene_line(", ".join([_GOOD_PERSON] * 2), _FLOAT_SCENE),
                 None, "duplicate person id 1", id="duplicate-person"),
])
def test_reader_rejects_bad_scalars(tmp_path, line, field, message):
    # the faulty line comes second, after a valid one; the third is not
    # JSON, and the fault of the earlier line is the one reported
    scenes = '"scenes/v1"' in line
    reader = read_scenes if scenes else read_detection_groups
    valid = (_scene_line(_GOOD_PERSON, _FLOAT_SCENE.replace('"s1"', '"s9"')) if scenes
             else _float_det_line('{"id": 1, "box": %s, "score": 0.5}' % _BOX, "s9"))
    path = tmp_path / "in.jsonl"
    for tail in ("", '{"format": \n', "[1]\n"):
        path.write_text(valid + line + tail)
        with pytest.raises(FormatError) as exc_info:
            reader(path)
        assert exc_info.value.line == 2
        assert exc_info.value.field == field
        assert str(exc_info.value) == f"in.jsonl:2:{f' {field}:' if field else ''} {message}"


@pytest.mark.parametrize("line", ["[" * 100_000, '{"n": %s}' % ("1" * 5000)],
                         ids=["deep-nesting", "long-integer"])
def test_undecodable_json_reports_line(tmp_path, line):
    path = tmp_path / "scenes.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(FormatError, match="invalid JSON") as exc_info:
        read_scenes(path)
    assert exc_info.value.line == 1


def test_box_names_first_bad_coordinate(tmp_path):
    path = tmp_path / "dets.jsonl"
    path.write_text(_det_line('{"id": 1, "box": [0, Infinity, NaN, 1], "score": 0.5}'))
    with pytest.raises(FormatError, match="dets\\[0\\].box: non-finite box coordinate "
                                          "y_min=inf"):
        read_detection_groups(path)


def test_integer_valued_numbers_read_as_floats(tmp_path):
    # the writers emit floats; a file written by hand may hold integers, also
    # mixed with floats in one box
    path = tmp_path / "dets.jsonl"
    path.write_text(_det_line('{"id": 1, "box": [0, 2, 10, 20], "score": 1}, '
                              '{"id": 2, "box": [0, 2.5, 10, 20.0], "score": 0}'))
    assert fields(read_detection_groups(path)) == fields(group_columns([Group(
        "s0", BODY, PRE_NMS, (det(1, (0.0, 2.0, 10.0, 20.0), 1.0),
                              det(2, (0.0, 2.5, 10.0, 20.0), 0.0)))]))
    path = tmp_path / "scenes.jsonl"
    path.write_text(_scene_line('{"id": 1, "occ": 1, %s}, {"id": 2, "occ": 0, '
                                '"head": [2, 0.5, 8, 6], "body": [0.0, 0, 10, 40]}' % _PERSON))
    assert fields(read_scenes(path)) == fields(scene_columns([scene(
        [person(1, (2.0, 0.0, 8.0, 6.0), (0.0, 0.0, 10.0, 40.0), occ=1.0),
         person(2, (2.0, 0.5, 8.0, 6.0), (0.0, 0.0, 10.0, 40.0), occ=0.0)],
        width=100.0, height=100.0)]))
    dets = read_detection_groups(tmp_path / "dets.jsonl").detections
    assert all(type(v) is float for run in detection_lists(dets) for d in run
               for v in (*d.box, d.score))


_LONG = 40


@pytest.mark.parametrize("key, value, field, message", [
    ("box", "[0, 0, 1]", "box", "box must be a 4-element [x1, y1, x2, y2] list"),
    ("box", "[5.0, 0.0, 1.0, 1.0]", "box", "box has negative extent: (5.0, 0.0, 1.0, 1.0)"),
    ("id", "1.0", "id", "expected an integer, got 1.0"),
    ("score", "1.5", None, "detection score 1.5 outside [0, 1]"),
    ("score", "1e999", None, "detection score inf outside [0, 1]"),
    ("box", "[0.0, 0.0, 1e999, 1.0]", "box", "non-finite box coordinate x_max=inf"),
    ("box", "[0.0, 0.0, 1.0, -1.0]", "box", "box has negative extent: (0.0, 0.0, 1.0, -1.0)"),
    ("score", "true", "score", "expected a number, got True"),
])
def test_fault_in_last_detection_named(tmp_path, key, value, field, message):
    entries = [{"id": k, "box": [0.0, 0.0, 1.0, 1.0], "score": 0.5} for k in range(_LONG)]
    entries[-1][key] = "VALUE"
    path = tmp_path / "dets.jsonl"
    path.write_text(_det_line(", ".join(map(json.dumps, entries))).replace('"VALUE"', value))
    item = f"dets[{_LONG - 1}]" + (f".{field}" if field else "")
    with pytest.raises(FormatError) as exc_info:
        read_detection_groups(path)
    assert str(exc_info.value) == f"dets.jsonl:1: {item}: {message}"


@pytest.mark.parametrize("key, value, field, message", [
    ("ignore", '"no"', "ignore", "expected a boolean, got 'no'"),
    ("occ", "1.5", None, "occlusion_ratio 1.5 outside [0, 1]"),
    ("head", "[0.0, 0.0, 12.0, 6.0]", None, "head box extends beyond body box"),
    ("body", "[0.0, 0.0, 10.0, Infinity]", "body", "non-finite box coordinate y_max=inf"),
    ("occ", "-0.5", None, "occlusion_ratio -0.5 outside [0, 1]"),
    ("head", "[2.0, 0.0, 8.0, 1e999]", "head", "non-finite box coordinate y_max=inf"),
    ("head", "[8.0, 0.0, 2.0, 6.0]", "head", "box has negative extent: (8.0, 0.0, 2.0, 6.0)"),
    ("id", "39.0", "id", "expected an integer, got 39.0"),
])
def test_fault_in_last_person_named(tmp_path, key, value, field, message):
    entries = [{"id": k, "head": [2.0, 0.0, 8.0, 6.0], "body": [0.0, 0.0, 10.0, 40.0],
                "ignore": False, "occ": 0.25} for k in range(_LONG)]
    entries[-1][key] = "VALUE"
    path = tmp_path / "scenes.jsonl"
    path.write_text(_scene_line(", ".join(map(json.dumps, entries))).replace('"VALUE"', value))
    item = f"persons[{_LONG - 1}]" + (f".{field}" if field else "")
    with pytest.raises(FormatError) as exc_info:
        read_scenes(path)
    assert str(exc_info.value) == f"scenes.jsonl:1: {item}: {message}"


# ---------------------------------------------------------------------------
# the first faulty line is the one reported

def test_first_of_several_faulty_lines_reported(tmp_path):
    lines = [_float_det_line('{"id": 1, "box": %s, "score": %s}' % (_BOX, score), f"s{k}")
             for k, score in enumerate(["0.5", "0.5", "2.5", "0.5", "-1.0", "3.5"])]
    path = tmp_path / "dets.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(FormatError, match="^dets.jsonl:3: dets\\[0\\]: detection score 2.5"):
        read_detection_groups(path)
    # an integer in a box takes the per-field parser, which reports its own line
    path.write_text("".join(lines[:2]) + lines[3].replace("1.0, 1.0]", "1, 1]")
                    + lines[2].replace('"s2"', '"s9"'))
    with pytest.raises(FormatError, match="^dets.jsonl:4: dets\\[0\\]: detection score 2.5"):
        read_detection_groups(path)


def test_groups_and_take_round_trip():
    runs = [[det(1, (0, 0, 4, 4), 0.5), det(2 ** 70, (1, 1, 5, 6), 0.25)], [],
            [det(3, (2, 0, 3, 9), 1.0)]]
    columns = split_columns(runs)
    groups = [columns.regroup([scene_id], [k]) for k, scene_id in enumerate(columns.scene_ids)]
    assert [g.scene_ids for g in groups] == [["s0"], ["s1"], ["s2"]]
    assert [g.det_offsets for g in groups] == [[0, 2], [0, 0], [0, 1]]
    assert [fields(g) for g in groups] == [fields(one_scene(run, f"s{k}"))
                                           for k, run in enumerate(runs)]
    # each group's indices, offset into the split, take the split back whole
    index = [a + i for a, g in zip(columns.det_offsets, groups) for i in range(len(g))]
    assert fields(columns.take(np.array(index, dtype=np.intp))) == fields(columns)
    part = columns.take(np.array([1, 2], dtype=np.intp))
    assert (part.det_offsets, part.det_ids) == ([0, 1, 1, 2], [2 ** 70, 3])
    assert part.boxes.tolist() == [[1, 1, 5, 6], [2, 0, 3, 9]]
    empty = columns.take(np.zeros(0, dtype=np.intp))
    assert (empty.scene_ids, empty.det_offsets, empty.det_ids) == (
        ["s0", "s1", "s2"], [0, 0, 0, 0], [])
    assert empty.boxes.shape == (0, 4) and empty.scores.shape == (0,)


# ---------------------------------------------------------------------------
# the batch pass
#
# The readers take a file in batches of whole lines; a batch of a few bytes
# holds one line, so each fault below sits in a batch after the first.

def _scene_lines(count, prefix="s"):
    path_scenes = [_demo_scene(f"{prefix}{k}") for k in range(count)]
    return [_scene_text(s) for s in path_scenes], path_scenes


def _scene_text(s) -> str:
    return json.dumps({
        "format": "scenes/v1", "scene_id": s.scene_id, "width": s.width, "height": s.height,
        "persons": [{"id": p.person_id, "head": list(p.head), "body": list(p.body),
                     "ignore": p.ignore, "occ": p.occlusion_ratio} for p in s.persons],
    }) + "\n"


@pytest.fixture(params=[1, 600], ids=["one-line-batches", "two-line-batches"])
def small_batches(request, monkeypatch):
    monkeypatch.setattr(data_model, "_BATCH_BYTES", request.param)
    return request.param


@pytest.fixture
def batch_pass_only(monkeypatch):
    """A read that reaches the per-field parser fails."""
    def refuse(*args):
        raise AssertionError("the exact path read the file")
    monkeypatch.setattr(data_model, "_scene_row", refuse)
    monkeypatch.setattr(data_model, "_group_row", refuse)


def test_batches_hold_whole_lines(tmp_path, small_batches, batch_pass_only):
    lines, scenes = _scene_lines(7)
    path = tmp_path / "in.jsonl"
    path.write_text("".join(lines))
    assert len(lines[0]) < 600 < 2 * len(lines[0])
    assert fields(read_scenes(path)) == fields(scene_columns(scenes))


@pytest.mark.parametrize("old, new, field, message", [
    ('"width": 200.0', '"width": "200"', "width", "expected a number, got '200'"),
    ('"occ": 0.25', '"occ": 1.5', "persons[0]", "occlusion_ratio 1.5 outside [0, 1]"),
    ('"scene_id": "s4"', '"scene_id": "s1"', None, "duplicate scene_id 's1'"),
    ('"occ": 0.25', '"occ": 0.25, "occ": 0.5', None, "repeated key 'occ'"),
    ('"id": 1,', '"id": 1.0,', "persons[0].id", "expected an integer, got 1.0"),
], ids=["type", "range", "duplicate-scene", "repeated-key", "float-id"])
def test_fault_in_a_later_batch_names_its_line(tmp_path, small_batches, old, new, field,
                                                message):
    lines, _ = _scene_lines(7)
    assert old in lines[4]
    lines[4] = lines[4].replace(old, new, 1)
    path = tmp_path / "in.jsonl"
    for tail in ("", "not JSON\n"):
        path.write_text("".join(lines) + tail)
        # the batch pass turns the file away, raising nothing
        scene_ids = batch_pass(path, data_model._scene_batch)
        assert scene_ids is None or len(set(scene_ids)) < len(scene_ids)
        with pytest.raises(FormatError) as exc_info:
            read_scenes(path)
        assert str(exc_info.value) == f"in.jsonl:5:{f' {field}:' if field else ''} {message}"


def test_undecodable_byte_in_a_later_batch_names_its_line(tmp_path, small_batches):
    lines, _ = _scene_lines(5)
    path = tmp_path / "in.jsonl"
    data = "".join(lines).encode("utf-8").splitlines(keepends=True)
    data[3] = data[3].replace(b'"s3"', b'"s\xff3"')
    path.write_bytes(b"".join(data))
    assert batch_pass(path, data_model._scene_batch) is None
    with pytest.raises(FormatError, match="^in.jsonl:4: not UTF-8 \\(invalid start byte at "
                                          "byte 38\\)$"):
        read_scenes(path)


def test_repeated_detection_key_in_a_later_batch(tmp_path, small_batches):
    lines = [_float_det_line('{"id": 1, "box": %s, "score": 0.5}' % _BOX, f"s{k}")
             for k in range(6)]
    lines[3] = lines[3].replace('"score": 0.5', '"score": 0.5, "score": 0.75')
    path = tmp_path / "dets.jsonl"
    path.write_text("".join(lines))
    assert batch_pass(path, data_model._group_batch) is None
    with pytest.raises(FormatError, match="^dets.jsonl:4: repeated key 'score'$"):
        read_detection_groups(path)


def test_colon_in_scene_id_read_by_the_batch_pass(tmp_path, small_batches, batch_pass_only):
    # more colons than keys: the batch's lines are screened one by one
    lines, scenes = _scene_lines(6, prefix="cam:1:")
    path = tmp_path / "in.jsonl"
    path.write_text("".join(lines))
    assert fields(read_scenes(path)) == fields(scene_columns(scenes))
    groups = [Group(f"a:{k}", BODY, PRE_NMS, (det(1, (0, 0, 30, 80), 0.625),))
              for k in range(5)]
    write_groups(groups, path)
    assert fields(read_detection_groups(path)) == fields(group_columns(groups))


@pytest.mark.parametrize("text", [
    "{0}{1}\n{2}",         # the last line has no line break
    "{0}\n{1}{2}",         # a blank line
    "{0}{1} \t\n{2}\n",    # a line of blanks
    "\n{0}{1}{2}\n\n",     # blank lines at both ends
])
def test_blank_lines_and_unended_last_line_at_a_batch_edge(tmp_path, small_batches, text):
    lines, scenes = _scene_lines(3)
    path = tmp_path / "in.jsonl"
    path.write_text(text.format(lines[0], lines[1], lines[2].rstrip("\n")))
    assert fields(read_scenes(path)) == fields(scene_columns(scenes))


def test_unended_last_line_read_by_the_batch_pass(tmp_path, small_batches, batch_pass_only):
    lines, scenes = _scene_lines(3)
    path = tmp_path / "in.jsonl"
    path.write_text("".join(lines).rstrip("\n"))
    assert fields(read_scenes(path)) == fields(scene_columns(scenes))


def test_empty_files_keep_their_column_types(tmp_path, batch_pass_only):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert fields(read_scenes(path)) == fields(scene_columns([]))
    assert fields(read_detection_groups(path)) == fields(group_columns([]))


def _sized_file(path, lines: int, entries: int, scenes: bool) -> None:
    """`lines` lines of `entries` persons or detections each, all of one length."""
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(lines):
            if scenes:
                items = [{"id": i, "head": [2.5, 0.5, 8.5, 6.5], "body": [0.5, 0.5, 10.5, 40.5],
                          "ignore": False, "occ": 0.25} for i in range(entries)]
                obj = {"format": "scenes/v1", "scene_id": f"s{k:08d}", "width": 100.0,
                       "height": 100.0, "persons": items}
            else:
                items = [{"id": i, "box": [0.5, 0.5, 10.5, 40.5], "score": 0.5}
                         for i in range(entries)]
                obj = {"format": "detections/v1", "scene_id": f"s{k:08d}", "class": "body",
                       "stage": "pre_nms", "dets": items}
            fh.write(json.dumps(obj) + "\n")


@pytest.mark.parametrize("lines, entries, scenes", [
    (1500, 3, True),   # the sparse benchmark split's shape: short lines
    (40, 60, True),    # the dense split's: lines of about 13 KB
    (1500, 3, False),
], ids=["sparse-scenes", "dense-scenes", "sparse-detections"])
def test_working_set_does_not_grow_with_the_file(tmp_path, batch_pass_only, lines, entries,
                                                 scenes):
    # what a read holds beyond the columns it returns is one batch of about
    # 64 KiB of lines: neither the file's decoded objects nor a batch of a
    # fixed number of lines, which grows with the lines' length.  It may grow
    # by the part of the growing column buffers (lists, `bytearray`s) that was
    # not yet allocated when the largest batch was read: they over-allocate
    # by about an eighth
    reader = read_scenes if scenes else read_detection_groups
    held = []
    for scale in (1, 4):
        path = tmp_path / f"x{scale}.jsonl"
        _sized_file(path, scale * lines, entries, scenes)
        reader(path)
        tracemalloc.start()
        try:
            columns = reader(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns.scene_ids if scenes else columns.class_names) == scale * lines
        held.append(peak - current)
    assert held[1] - held[0] <= current / 8, (held, current)
