"""`eval` reads only the groups of the class it scores: the reader checks
every line and every group's key of the results file, as for the whole
file, and keeps the chosen groups' columns alone.  So `eval` holds what it
scores, faults are raised as before, and the outputs keep their bytes."""

import json
import tracemalloc

import numpy as np
import pytest

from crowdpost import cli
from crowdpost.data_model import BODY, HEAD, POST_NMS
from crowdpost.rdm import RelationModel, save_model

OUTPUTS = (".eval.json", ".curve.csv", ".svg")


def _split(tmp_path, num_scenes, cluster="0.0", persons="3.0", seed=5) -> tuple[str, str]:
    """The scene file and `run`'s baseline.jsonl of a split, sparse unless
    its clustering and persons per image are given."""
    scenes, dets = tmp_path / f"scenes{num_scenes}.jsonl", tmp_path / f"dets{num_scenes}.jsonl"
    model, out = tmp_path / "model.json", tmp_path / f"out{num_scenes}"
    assert cli.main(["simulate", "--out-scenes", str(scenes), "--out-dets", str(dets),
                     "--num-scenes", str(num_scenes), "--seed", str(seed),
                     "--noise-seed", str(seed), "--cluster-prob", cluster,
                     "--persons-per-image", persons]) == 0
    save_model(RelationModel.initialize(4, seed), model)
    assert cli.main(["run", "--dets", str(dets), "--model", str(model),
                     "--out-dir", str(out)]) == 0
    return str(scenes), str(out / "baseline.jsonl")


def _eval_argv(results, scenes, prefix, class_name=BODY) -> list[str]:
    return ["eval", "--results", str(results), "--scenes", str(scenes), "--class", class_name,
            "--out-prefix", str(prefix), "--name", "v"]


def test_eval_working_set_grows_only_by_what_it_scores(tmp_path):
    # `eval` holds the split's scenes and the chosen class's detections,
    # whose scores it sorts at once, and writes its curve in blocks.
    # Measured (`--class head` on baseline.jsonl): 0.55 MB on 150 sparse
    # scenes and 1.97 MB on 1,500, 1,053 bytes for each added scene; holding
    # both classes' groups and the whole polyline took 0.55 and 3.03 MB,
    # 1,834 bytes a scene
    held = []
    for num_scenes in (150, 1500):
        argv = _eval_argv(*reversed(_split(tmp_path, num_scenes)), tmp_path / "e", HEAD)
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak - current)
    assert held[1] - held[0] < 1400 * 1350, held


@pytest.fixture(scope="module")
def sparse(tmp_path_factory):
    """A 150-scene sparse split whose baseline.jsonl spans three batches of
    the reader, and its lines."""
    scenes, results = _split(tmp_path_factory.mktemp("eval_read"), 150)
    with open(results, encoding="utf-8") as fh:
        lines = fh.read().splitlines(True)
    assert len("".join(lines)) > 2 * 65536
    return scenes, lines


def _line(obj) -> str:
    return json.dumps(obj) + "\n"


def _fault_case(case: str, lines: list[str], path) -> tuple[list[str], str]:
    """The lines of a results file that `eval --class body` must reject,
    and its one stderr line."""
    objs = list(map(json.loads, lines))
    k = next(k for k, obj in enumerate(objs[200:], 200) if obj["class"] == HEAD and obj["dets"])
    if case == "malformed head line":
        return (lines[:k] + [lines[k][:40] + "\n"] + lines[k + 1:],
                f"bad.jsonl:{k + 1}: invalid JSON (Expecting value)")
    if case == "invalid box in a head group":
        objs[k]["dets"][0]["box"] = [10.0, 10.0, 5.0, 20.0]
        return (lines[:k] + [_line(objs[k])] + lines[k + 1:],
                f"bad.jsonl:{k + 1}: dets[0].box: box has negative extent: "
                "(10.0, 10.0, 5.0, 20.0)")
    if case in ("repeated head group", "repeated body group"):
        class_name = case.split()[1]
        j = next(j for j, obj in enumerate(objs) if obj["class"] == class_name)
        return (lines + [lines[j]],
                f"bad.jsonl:{len(lines) + 1}: duplicate group "
                f"('{objs[j]['scene_id']}', '{class_name}', 'post_nms')")
    if case == "body group of an unknown scene, then a malformed line":
        unknown = {**objs[1], "scene_id": "nowhere"}
        assert unknown["class"] == BODY and unknown["dets"]
        return ([lines[0], _line(unknown), *lines[1:], lines[-1][:40] + "\n"],
                f"bad.jsonl:{len(lines) + 2}: invalid JSON (Expecting value)")
    if case == "body group of an unknown scene":
        return ([_line({**objs[1], "scene_id": "nowhere"}), *lines],
                "detection scene 'nowhere' has no ground truth")
    if case == "head groups only":
        return ([line for line, obj in zip(lines, objs) if obj["class"] == HEAD],
                f"{path}: no post-NMS body groups")
    if case == "empty file":
        return [], f"{path}: empty results file"
    assert case == "blank lines only"
    return ["\n", "  \n", "\t\r\n"], f"{path}: empty results file"


@pytest.mark.parametrize("case", [
    "malformed head line", "invalid box in a head group", "repeated head group",
    "repeated body group", "body group of an unknown scene, then a malformed line",
    "body group of an unknown scene", "head groups only", "empty file", "blank lines only"])
def test_a_selective_read_keeps_every_fault(capsys, sparse, tmp_path, case):
    scenes, lines = sparse
    path = tmp_path / "bad.jsonl"
    bad, message = _fault_case(case, lines, path)
    path.write_text("".join(bad), encoding="utf-8")
    assert cli.main(_eval_argv(path, scenes, tmp_path / "out" / "e")) == 1
    assert capsys.readouterr().err == f"crowdpost eval: error: {message}\n"
    assert not (tmp_path / "out").exists()


def _tie_scene() -> tuple[str, list[str]]:
    """The lines of a scene where the id tie-break decides an outcome, and
    of its head and body groups.  Per class, two detections score alike:
    A is person 1's box, which person 2, ignored, overlaps at IoU 0.54; B is
    that box moved the other way, which overlaps person 2 at 0.25.  Taken
    first, A matches person 1 and B is a false positive; taken second, B
    matches and person 2 absorbs A."""
    body, head = [100.0, 0.0, 200.0, 200.0], [120.0, 0.0, 160.0, 40.0]

    def moved(box, by):
        return [box[0] + by, box[1], box[2] + by, box[3]]

    persons = [{"id": 1, "head": head, "body": body, "ignore": False, "occ": 0.0},
               {"id": 2, "head": moved(head, 12.0), "body": moved(body, 30.0),
                "ignore": True, "occ": 0.0}]
    scene = {"format": "scenes/v1", "scene_id": "tie", "width": 400.0, "height": 300.0,
             "persons": persons}
    groups = [{"format": "detections/v1", "scene_id": "tie", "class": class_name,
               "stage": POST_NMS, "dets": [{"id": 0, "box": box, "score": 0.5},
                                           {"id": 1, "box": moved(box, -by), "score": 0.5}]}
              for class_name, box, by in ((HEAD, head, 12.0), (BODY, body, 30.0))]
    return _line(scene), list(map(_line, groups))


def _with_ids(lines: list[str], ids) -> str:
    """The lines with the detections' ids replaced by `ids`, in file order."""
    objs, ids = list(map(json.loads, lines)), iter(ids)
    for obj in objs:
        for d in obj["dets"]:
            d["id"] = next(ids)
    return "".join(map(_line, objs))


@pytest.mark.parametrize("class_name", [HEAD, BODY])
def test_ids_beyond_int64_sort_as_their_order_preserving_small_ints(sparse, tmp_path,
                                                                    class_name):
    # ids above 2**63, spread over 2**70, and the same ids ranked: the match
    # takes tied scores by id, so both give the same bytes, and the ids
    # ranked the other way give others
    scenes, lines = sparse
    scene_line, group_lines = _tie_scene()
    with open(scenes, encoding="utf-8") as fh:
        (tmp_path / "scenes.jsonl").write_text(fh.read() + scene_line, encoding="utf-8")
    lines = lines + group_lines
    count = sum(len(json.loads(line)["dets"]) for line in lines)
    rng = np.random.default_rng(11)
    huge = sorted(set(rng.integers(0, 2 ** 62, size=2 * count).tolist()))[:count]
    huge = [2 ** 63 + 256 * h for h in rng.permutation(huge).tolist()]
    rank = {h: k for k, h in enumerate(sorted(huge))}
    variants = {"huge": huge, "ranked": [rank[h] for h in huge],
                "reversed": [count - rank[h] for h in huge]}
    outputs = {}
    for name, ids in variants.items():
        (tmp_path / f"{name}.jsonl").write_text(_with_ids(lines, ids), encoding="utf-8")
        assert cli.main(_eval_argv(tmp_path / f"{name}.jsonl", tmp_path / "scenes.jsonl",
                                   tmp_path / name, class_name)) == 0
        outputs[name] = [(tmp_path / (name + suffix)).read_bytes() for suffix in OUTPUTS]
    assert max(huge) > 2 ** 64 and min(huge) > 2 ** 63
    assert outputs["huge"] == outputs["ranked"]
    assert outputs["reversed"] != outputs["ranked"]
