"""Property tests for the JSON-lines files: round trips, and the rule that a
malformed line is a FormatError naming it, which the CLI reports as exit 1,
one stderr line and no output files.  Also the evaluator's distinct score
thresholds against `np.unique`."""

import json
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from crowdpost import data_model  # noqa: E402
from crowdpost.cli import main  # noqa: E402
from crowdpost.data_model import (  # noqa: E402
    CLASSES, STAGES, FormatError, read_detection_groups, read_scenes)
from crowdpost.evaluator import _thresholds  # noqa: E402
from crowdpost.rdm import RelationModel, save_model  # noqa: E402
from crowdpost.records import Detection  # noqa: E402
from helpers import (  # noqa: E402
    Group, Person, box, fields, group_columns, scene, scene_columns, write_groups,
    write_scene_file)

# bounded and derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])
# each example corrupts every field of one line in turn
CORRUPTION = settings(PROPERTY, max_examples=12)

_coord = st.floats(-1e6, 1e6, allow_nan=False)
_unit = st.floats(0.0, 1.0)
_ids = st.integers(-2 ** 63, 2 ** 63)


@st.composite
def _span(draw, lo, hi):
    a, b = sorted((draw(st.floats(lo, hi)), draw(st.floats(lo, hi))))
    return a, b


@st.composite
def boxes(draw, within=None):
    if within is None:
        x1, x2 = sorted((draw(_coord), draw(_coord)))
        y1, y2 = sorted((draw(_coord), draw(_coord)))
    else:
        (x1, x2), (y1, y2) = draw(_span(*within[0])), draw(_span(*within[1]))
    return x1, y1, x2, y2


@st.composite
def scenes(draw, scene_id, min_persons):
    width = draw(st.floats(1.0, 1e4))
    height = draw(st.floats(1.0, 1e4))
    persons = []
    for pid in draw(st.lists(_ids, min_size=min_persons, max_size=4, unique=True)):
        body = draw(boxes(within=((0.0, width), (0.0, height))))
        head = draw(boxes(within=((body[0], body[2]), (body[1], body[3]))))
        persons.append(Person(pid, head, body, draw(st.booleans()), draw(_unit)))
    return scene(persons, scene_id, width, height)


@st.composite
def scene_files(draw, min_persons=0):
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    return [draw(scenes(sid, min_persons)) for sid in ids]


@st.composite
def group_files(draw, min_dets=0):
    keys = draw(st.lists(st.tuples(st.text(max_size=6), st.sampled_from(CLASSES),
                                   st.sampled_from(STAGES)),
                         min_size=1, max_size=4, unique=True))
    groups = []
    for scene_id, class_name, stage in keys:
        dets = tuple(Detection(det_id, box(*draw(boxes())), draw(_unit))
                     for det_id in draw(st.lists(_ids, min_size=min_dets, max_size=4,
                                                 unique=True)))
        groups.append(Group(scene_id, class_name, stage, dets))
    return groups


def _round_trip(monkeypatch, records, write, read):
    """The fields of the columns `read` returns for a file `write` made, by
    the batch pass and by the exact path."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.jsonl")
        write(records, path)
        return _outcome(read, path), _exact_outcome(monkeypatch, read, path)


@PROPERTY
@given(scene_files())
def test_scene_file_round_trip(monkeypatch, records):
    batch, exact = _round_trip(monkeypatch, records, write_scene_file, read_scenes)
    assert batch == exact == fields(scene_columns(records))


@PROPERTY
@given(group_files())
def test_detection_file_round_trip(monkeypatch, records):
    batch, exact = _round_trip(monkeypatch, records, write_groups, read_detection_groups)
    assert batch == exact == fields(group_columns(records))


def _unique_thresholds(scores: np.ndarray) -> np.ndarray:
    """`np.unique(scores)[::-1]`, then the rule that a zero takes the sign of
    the first zero in input order."""
    thresholds = np.unique(scores)[::-1]
    if len(thresholds) and thresholds[-1] == 0.0:
        thresholds[-1] = scores[np.flatnonzero(scores == 0.0)[0]]
    return thresholds


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), _unit), max_size=40))
@example([0.5, 0.25, 0.5, 0.25, 1.0])  # ties
@example([0.5, -0.0, 0.0])             # -0.0 next to 0.0
@example([0.0, 0.25, -0.0])
@example([0.75])                       # a single score
@example([0.3] * 6)                    # all equal
@example([0.0] * 3)
@example([])
def test_thresholds_equal_unique(scores):
    scores = np.array(scores, dtype=np.float64)
    got = _thresholds(scores)
    # equal bits, so equal signs of zero too
    assert got.dtype == np.float64 and got.tobytes() == _unique_thresholds(scores).tobytes()


# ids that need escaping, and coordinates, scores and occlusions that may be -0.0
_tricky_ids = st.text(alphabet=st.sampled_from(['"', "\\", "/", "a", " ", "\x00", "\n", "\u2028",
                                                "\u00e9", "\u20ac", "\U0001f600", "\ud800"]),
                      max_size=8)
_signed_zero = st.sampled_from([-0.0, 0.0])
_any_coord = st.one_of(_signed_zero, st.floats(allow_nan=False, allow_infinity=False))
_any_unit = st.one_of(_signed_zero, _unit)


@st.composite
def _tricky_scenes(draw):
    scenes = []
    for scene_id in draw(st.lists(_tricky_ids, min_size=1, max_size=4, unique=True)):
        width, height = draw(st.floats(1.0, 1e4)), draw(st.floats(1.0, 1e4))
        persons = []
        for pid in draw(st.lists(_ids, max_size=3, unique=True)):
            x1, x2 = sorted((draw(st.one_of(_signed_zero, st.floats(0.0, width))),
                             draw(st.floats(0.0, width))))
            y1, y2 = sorted((draw(_signed_zero), draw(st.floats(0.0, height))))
            persons.append(Person(pid, (x1, y1, x2, y1), (x1, y1, x2, y2),
                                  draw(st.booleans()), draw(_any_unit)))
        scenes.append(scene(persons, scene_id, width, height))
    return scenes


@st.composite
def _tricky_groups(draw):
    groups = []
    for scene_id in draw(st.lists(_tricky_ids, min_size=1, max_size=4)):
        dets = []
        for det_id in draw(st.lists(_ids, max_size=4, unique=True)):
            x1, x2 = sorted((draw(_any_coord), draw(_any_coord)))
            y1, y2 = sorted((draw(_any_coord), draw(_any_coord)))
            dets.append(Detection(det_id, box(x1, y1, x2, y2), draw(_any_unit)))
        groups.append(Group(scene_id, draw(st.sampled_from(CLASSES)),
                            draw(st.sampled_from(STAGES)), tuple(dets)))
    return groups


def _written(records, write) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.jsonl")
        write(records, path)
        with open(path, "rb") as fh:
            return fh.read()


@PROPERTY
@given(_tricky_scenes())
def test_scene_writer_bytes_equal_json_dumps(records):
    expected = "".join(json.dumps({
        "format": "scenes/v1", "scene_id": s.scene_id, "width": s.width, "height": s.height,
        "persons": [{"id": p.person_id, "head": list(p.head), "body": list(p.body),
                     "ignore": p.ignore, "occ": p.occlusion_ratio} for p in s.persons],
    }) + "\n" for s in records)
    assert _written(records, write_scene_file) == expected.encode("utf-8")


@PROPERTY
@given(_tricky_groups())
def test_detection_writer_bytes_equal_json_dumps(records):
    expected = "".join(json.dumps({
        "format": "detections/v1", "scene_id": g.scene_id, "class": g.class_name,
        "stage": g.stage,
        "dets": [{"id": d.det_id, "box": list(d.box), "score": d.score}
                 for d in g.dets],
    }) + "\n" for g in records)
    assert _written(records, write_groups) == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# single-field corruptions

# numeric strings and booleans too: float() would accept them
_not_number = st.one_of(st.none(), st.text(alphabet="abc", max_size=3), st.lists(st.integers()),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                        st.sampled_from(["0.5", "1e1", "1"]), st.booleans())
_not_string = st.one_of(st.none(), st.integers(), st.floats(), st.booleans(),
                        st.lists(st.text(max_size=2), max_size=1))
_not_finite = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10 ** 400])
_outside_unit = st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1.0 + 1e-9),
                          st.integers(max_value=-1), st.integers(min_value=2), _not_finite,
                          _not_number)
_not_integer = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                         st.lists(st.integers(), max_size=1))
_not_boolean = st.one_of(st.integers(), st.floats(), st.text(max_size=5), st.none())
_not_object = st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers()), st.none())
_not_list = st.one_of(st.integers(), st.text(max_size=3), st.none(),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_not_box = st.one_of(
    _not_list,
    st.lists(st.floats(0, 10), max_size=3),
    st.lists(st.floats(0, 10), min_size=5, max_size=6),
    st.tuples(st.integers(0, 3), st.one_of(_not_finite, _not_number)).map(
        lambda iv: [iv[1] if k == iv[0] else 0.0 for k in range(4)]),
    st.sampled_from([[5.0, 0.0, 1.0, 1.0], [0.0, 5.0, 1.0, 1.0]]))


_DELETE = object()
_MISSING = st.just(_DELETE)


def _scene_corruptions(obj):
    """(path, strategy of invalid values) for every field of a scene line."""
    choices = [(("format",), st.text(max_size=8).filter(lambda t: t != "scenes/v1")),
               (("width",), st.one_of(st.floats(max_value=0.0), _not_finite, _not_number)),
               (("height",), st.one_of(st.floats(max_value=0.0), _not_finite, _not_number)),
               (("persons",), _not_list),
               (("scene_id",), _not_string)]
    choices += [((key,), _MISSING) for key in ("scene_id", "width", "height", "persons")]
    for i, p in enumerate(obj["persons"]):
        choices += [(("persons", i), _not_object),
                    (("persons", i, "id"), _not_integer),
                    (("persons", i, "ignore"), _not_boolean),
                    (("persons", i, "occ"), _outside_unit),
                    (("persons", i, "head"), _not_box),
                    (("persons", i, "body"), _not_box),
                    # the head moved out of its body, the body out of the image
                    (("persons", i, "head"), st.just([p["body"][2] + 1.0] * 2
                                                      + [p["body"][2] + 2.0] * 2)),
                    (("persons", i, "body"), st.just([0.0, 0.0, obj["width"] * 2,
                                                      obj["height"] * 2]))]
        choices += [(("persons", i, key), _MISSING) for key in ("id", "head", "body")]
        if i:
            choices.append((("persons", i, "id"), st.just(obj["persons"][0]["id"])))
    return choices


def _group_corruptions(obj):
    """(path, strategy of invalid values) for every field of a detection line."""
    choices = [(("format",), st.text(max_size=8).filter(lambda t: t != "detections/v1")),
               (("class",), st.one_of(st.text(max_size=5).filter(lambda t: t not in CLASSES),
                                      _not_number)),
               (("stage",), st.one_of(st.text(max_size=5).filter(lambda t: t not in STAGES),
                                      _not_number)),
               (("dets",), _not_list),
               (("scene_id",), _not_string)]
    choices += [((key,), _MISSING) for key in ("scene_id", "class", "stage", "dets")]
    for i in range(len(obj["dets"])):
        choices += [(("dets", i), _not_object),
                    (("dets", i, "id"), _not_integer),
                    (("dets", i, "score"), _outside_unit),
                    (("dets", i, "box"), _not_box)]
        choices += [(("dets", i, key), _MISSING) for key in ("id", "box", "score")]
        if i:
            choices.append((("dets", i, "id"), st.just(obj["dets"][0]["id"])))
    return choices


def _apply(obj, path, value):
    *parents, last = path
    for key in parents:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = value


def _corrupted_files(draw, records, write, corruptions):
    """Write `records`, pick a line, and yield (text, line number) once for
    every field of that line, with that one field given an invalid value."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.jsonl")
        write(records, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    for field, values in corruptions(json.loads(lines[k])):
        obj = json.loads(lines[k])
        _apply(obj, field, draw(values))
        yield "\n".join(lines[:k] + [json.dumps(obj)] + lines[k + 1:]) + "\n", k + 1


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(RelationModel.initialize(hidden_dim=4), path)
    return path


def _expect_rejected(capsys, text, line_no, reader, argv_for):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(FormatError) as exc_info:
            reader(path)
        assert exc_info.value.line == line_no
        assert str(exc_info.value).startswith(f"in.jsonl:{line_no}:")
        out = os.path.join(tmp, "out")
        argv = argv_for(path, out)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"crowdpost {argv[0]}: error: in.jsonl:{line_no}:")
        assert err.count("\n") == 1
        assert not os.path.exists(out)


@CORRUPTION
@given(st.data())
def test_corrupt_scene_line_is_rejected(capsys, data):
    records = data.draw(scene_files(min_persons=1))
    for text, line_no in _corrupted_files(data.draw, records, write_scene_file,
                                          _scene_corruptions):
        _expect_rejected(capsys, text, line_no, read_scenes,
                         lambda path, out: ["estimate-ratio", "--scenes", path, "--out", out])


@CORRUPTION
@given(st.data())
def test_corrupt_detection_line_is_rejected(capsys, model_path, data):
    records = data.draw(group_files(min_dets=1))
    for text, line_no in _corrupted_files(data.draw, records, write_groups,
                                          _group_corruptions):
        _expect_rejected(capsys, text, line_no, read_detection_groups,
                         lambda path, out: ["run", "--dets", path, "--model", str(model_path),
                                            "--out-dir", out])


# ---------------------------------------------------------------------------
# the batch pass against the per-field path
#
# A reader takes its file in batches of whole lines, about
# `data_model._BATCH_BYTES` each, and reads the whole file again through the
# per-field parser at any doubt.  With `_joined`, the batch pass, turning
# every file away, a reader takes that exact path alone.

def _outcome(read, path):
    """The fields of the columns `read` gives, or the message it raises."""
    try:
        return fields(read(path))
    except FormatError as exc:
        return str(exc)


def _exact_outcome(monkeypatch, read, path):
    with monkeypatch.context() as m:
        m.setattr(data_model, "_joined", lambda path, batch_columns: None)
        return _outcome(read, path)


def _integers(value):
    """`value` with each integral float other than zero written as an integer."""
    if type(value) is float and value.is_integer() and value != 0.0:
        return int(value)
    if isinstance(value, list):
        return list(map(_integers, value))
    if isinstance(value, dict):
        return {key: _integers(item) for key, item in value.items()}
    return value


def _variant(line: str, how: str) -> str:
    """A valid line of the same values as `line`, written another way."""
    obj = json.loads(line)
    if how == "integers":
        return json.dumps(_integers(obj)) + "\n"
    if how == "crlf":
        return line[:-1] + "\r\n"
    if how == "extra-keys":
        # keys that no field check reads, one holding colons and objects
        obj["note"] = {"a:b": [1, {"c": "d:e"}]}
        for entry in obj.get("persons", obj.get("dets")):
            entry["x"] = "y"
        return json.dumps(obj) + "\n"
    if how == "unescaped":
        # a line separator, accents and emoji as UTF-8, not escaped
        text = json.dumps(obj, ensure_ascii=False) + "\n"
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate is written escaped
            return line
        return text
    return line


_VARIANTS = st.sampled_from(["as-written", "integers", "crlf", "extra-keys", "unescaped"])


def _outward(corners: tuple) -> tuple:
    """A box grown to integral corners; a box inside another stays inside."""
    x1, y1, x2, y2 = corners
    return box(math.floor(x1), math.floor(y1), math.ceil(x2), math.ceil(y2))


def _integral_scene(s):
    return scene([Person(p.person_id, _outward(p.head), _outward(p.body), p.ignore,
                         p.occlusion_ratio) for p in s.persons],
                 s.scene_id, math.ceil(s.width), math.ceil(s.height))


def _integral_group(g):
    return Group(g.scene_id, g.class_name, g.stage, tuple(
        Detection(d.det_id, _outward(d.box), d.score) for d in g.dets))


def _differential(monkeypatch, data, records, write, read, batch_columns):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.jsonl")
        write(records, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        hows = [data.draw(_VARIANTS) for _ in lines]
        variants = list(map(_variant, lines, hows))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(variants)
        exact = _exact_outcome(monkeypatch, read, path)
        # integers and CRLF endings take the exact path; the rest the batch pass
        batch = data_model._joined(path, batch_columns)
        assert (batch is None) == any(how in ("integers", "crlf") and new != old
                                      for how, new, old in zip(hows, variants, lines))
        for size in (1, 200, 1 << 16):
            monkeypatch.setattr(data_model, "_BATCH_BYTES", size)
            assert _outcome(read, path) == exact
        return exact


@PROPERTY
@given(st.data())
def test_batch_pass_equals_the_exact_path_on_scene_files(monkeypatch, data):
    records = [_integral_scene(s) if data.draw(st.booleans()) else s
               for s in data.draw(_tricky_scenes())]
    exact = _differential(monkeypatch, data, records, write_scene_file, read_scenes,
                          data_model._scene_batch)
    assert exact == fields(scene_columns(records))


@PROPERTY
@given(st.data())
def test_batch_pass_equals_the_exact_path_on_detection_files(monkeypatch, data):
    records = [_integral_group(g) if data.draw(st.booleans()) else g
               for g in data.draw(_tricky_groups())]
    exact = _differential(monkeypatch, data, records, write_groups, read_detection_groups,
                          data_model._group_batch)
    keys = [(g.scene_id, g.class_name, g.stage) for g in records]
    if len(set(keys)) == len(keys):
        assert exact == fields(group_columns(records))
    else:
        assert exact.startswith("f.jsonl:") and "duplicate group" in exact


def _expect_rejected_in_batches(capsys, monkeypatch, size, text, line_no, read,
                                batch_columns, argv_for):
    """`_expect_rejected` with batches of `size` bytes: the batch pass turns
    the file away, raising nothing, and the message is the exact path's."""
    monkeypatch.setattr(data_model, "_BATCH_BYTES", size)
    _expect_rejected(capsys, text, line_no, read, argv_for)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        joined = data_model._joined(path, batch_columns)
        assert joined is None or len(set(joined[0])) < len(joined[0])
        assert _outcome(read, path) == _exact_outcome(monkeypatch, read, path)


@CORRUPTION
@given(st.data())
def test_corrupt_scene_line_is_rejected_in_small_batches(capsys, monkeypatch, data):
    records = data.draw(scene_files(min_persons=1))
    size = data.draw(st.sampled_from([1, 64, 300]))
    for text, line_no in _corrupted_files(data.draw, records, write_scene_file,
                                          _scene_corruptions):
        _expect_rejected_in_batches(
            capsys, monkeypatch, size, text, line_no, read_scenes, data_model._scene_batch,
            lambda path, out: ["estimate-ratio", "--scenes", path, "--out", out])


@CORRUPTION
@given(st.data())
def test_corrupt_detection_line_is_rejected_in_small_batches(capsys, monkeypatch, model_path,
                                                             data):
    records = data.draw(group_files(min_dets=1))
    size = data.draw(st.sampled_from([1, 64, 300]))
    for text, line_no in _corrupted_files(data.draw, records, write_groups,
                                          _group_corruptions):
        _expect_rejected_in_batches(
            capsys, monkeypatch, size, text, line_no, read_detection_groups,
            data_model._group_batch,
            lambda path, out: ["run", "--dets", path, "--model", str(model_path),
                               "--out-dir", out])


# ---------------------------------------------------------------------------
# single-key corruptions of a config file

def _valid_config() -> dict:
    """Every key each command reads, at its default, with a short training."""
    import dataclasses
    from crowdpost.nms import NmsConfig
    from crowdpost.pipeline import PostProcessConfig
    from crowdpost.rdm import TrainConfig
    from crowdpost.simulator import NoiseConfig, SimConfig

    def section(cls, **values):
        out = {f.name: f.default for f in dataclasses.fields(cls)}
        out.update(values)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    return {"sim": section(SimConfig, persons_per_image=3.0), "noise": section(NoiseConfig),
            "num_scenes": 2, "nms": section(NmsConfig),
            "train": section(TrainConfig, epochs=2, hidden_dim=4, batch_size=64),
            "post": section(PostProcessConfig)}


# the values JSON can hold that a config check must turn away or take
_CORRUPT = [None, True, False, "0.5", "x", [], [1.0], {}, {"a": 1}, 1e308, -1e308,
            float("nan"), float("inf"), float("-inf"), 10 ** 19, -10 ** 19]


def _config_corruptions():
    """(key path, value) for every key of the valid config and every
    corrupt value, and lists one entry too short or too long."""
    config = _valid_config()
    out = []
    for key, value in config.items():
        paths = [((key,), value)]
        if isinstance(value, dict):
            paths += [((key, sub), v) for sub, v in value.items()]
        for path, v in paths:
            out += [(path, bad) for bad in _CORRUPT]
            if isinstance(v, list):
                out += [(path, v[:-1]), (path, v + v[:1])]
    return out


_COMMANDS = {
    "simulate": lambda cfg, inputs, out: ["simulate", "--config", cfg, "--out-scenes",
                                          f"{out}/s.jsonl", "--out-dets", f"{out}/d.jsonl"],
    "train-rdm": lambda cfg, inputs, out: ["train-rdm", "--config", cfg,
                                           "--scenes", f"{inputs}/s.jsonl",
                                           "--dets", f"{inputs}/d.jsonl",
                                           "--out-model", f"{out}/m.json",
                                           "--out-loss", f"{out}/l.csv"],
    "run": lambda cfg, inputs, out: ["run", "--config", cfg, "--dets", f"{inputs}/d.jsonl",
                                     "--model", f"{inputs}/m.json", "--out-dir", f"{out}/run"],
}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    assert main(["simulate", "--out-scenes", str(d / "s.jsonl"), "--out-dets",
                 str(d / "d.jsonl"), "--num-scenes", "2", "--persons-per-image", "3"]) == 0
    save_model(RelationModel.initialize(hidden_dim=4), d / "m.json")
    return d


def test_valid_config_runs_every_command(capsys, tiny_inputs):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(_valid_config(), fh)
        for name, argv_for in _COMMANDS.items():
            out = os.path.join(tmp, name)
            assert main(argv_for(cfg, tiny_inputs, out)) == 0, name
            assert os.listdir(out)
    capsys.readouterr()


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(_config_corruptions()))
def test_corrupt_config_key_is_taken_or_rejected(capsys, tiny_inputs, corruption):
    (key, *sub), value = corruption
    config = _valid_config()
    if sub:
        config[key][sub[0]] = value
    else:
        config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for name, argv_for in _COMMANDS.items():
            out = os.path.join(tmp, name)
            code = main(argv_for(cfg, tiny_inputs, out))
            err = capsys.readouterr().err
            if code == 1:
                assert err.startswith(f"crowdpost {name}: error: ") and err.count("\n") == 1
                assert not os.path.exists(out), name
            else:
                assert code == 0, (name, err)
