"""`run` writes baseline.jsonl, rdm.jsonl and audit.json in one pass over the
scenes, formatting each detection once, in blocks of scenes.  Over seeded
random splits its files must equal what the scene-by-scene builder
`run_groups` (tests/oracles.py) gives through `write_detection_groups`, and
the audit `json.dumps(..., indent=2)` of the post-process results.  A
failure partway through the writing leaves every output as it was."""

import json
import re

import numpy as np
import pytest

from crowdpost import cli, pipeline
from crowdpost.data_model import group_columns, write_detection_groups
from crowdpost.rdm import RelationModel, save_model

from oracles import run_groups

# scene ids that JSON escapes: a quote, a backslash, non-ASCII text and
# control characters, a line break among them
NAMES = ['quote"d', "back\\slash", "café 雪", "ctl\x01\x1f\n", "sep\t ", "plain"]
HUGE_ID = 2 ** 64  # beyond int64


def _dets_file(tmp_path, rng, seed) -> str:
    """A simulated pre-NMS detection file, reworked: every scene renamed
    after `NAMES`, some groups dropped or emptied, det ids shuffled (one
    beyond int64 now and then) and some scores below 1e-4."""
    raw = tmp_path / "sim.jsonl"
    assert cli.main(["simulate", "--out-scenes", str(tmp_path / "scenes.jsonl"),
                     "--out-dets", str(raw), "--num-scenes", str(rng.integers(6, 14)),
                     "--seed", str(seed), "--noise-seed", str(seed),
                     "--cluster-prob", "0.8"]) == 0
    scenes, lines = {}, []
    for obj in map(json.loads, raw.read_text(encoding="utf-8").splitlines()):
        k = scenes.setdefault(obj["scene_id"], len(scenes))
        obj["scene_id"] = f"{NAMES[k % len(NAMES)]}{k}"
        # a scene without a group of a class has an empty one
        if rng.random() < 0.1 and lines:
            continue
        dets = obj["dets"] if rng.random() >= 0.1 else []
        ids = rng.choice(10 * len(dets) + 1, size=len(dets), replace=False).tolist()
        if ids and rng.random() < 0.3:
            ids[0] = HUGE_ID + k
        for d, det_id in zip(dets, ids):
            d["id"] = det_id
            if rng.random() < 0.05:
                d["score"] = float(rng.uniform(0.0, 1e-4))
        obj["dets"] = dets
        lines.append(json.dumps(obj) + "\n")
    path = tmp_path / "dets.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def _model(tmp_path, seed) -> str:
    """A random model with weights large enough that its scores reach both
    thresholds and lie as far as 1e-13 from 0 and from 1."""
    model = RelationModel.initialize(8, seed)
    for w, _ in model.layers:
        w *= 6.0
    path = tmp_path / "model.json"
    save_model(model, path)
    return str(path)


def _records(dets) -> list[list[dict]]:
    """Each group of a `DetectionColumns` as records."""
    off = dets.det_offsets
    return [[{"id": dets.det_ids[i], "box": tuple(dets.boxes[i].tolist()),
              "score": float(dets.scores[i])} for i in range(a, b)]
            for a, b in zip(off, off[1:])]


def _kept(dets, kept) -> list[list[dict]]:
    """Each group's records at the positions `kept`, in their order."""
    groups = _records(dets)
    group = np.searchsorted(dets.det_offsets, kept, side="right") - 1
    out = [[] for _ in groups]
    for i, g in zip(kept.tolist(), group.tolist()):
        out[g].append(groups[g][i - dets.det_offsets[g]])
    return out


def _write(groups, path) -> str:
    write_detection_groups(group_columns([
        (scene_id, class_name, stage, [r["id"] for r in records],
         [v for r in records for v in r["box"]], [r["score"] for r in records])
        for scene_id, class_name, stage, records in groups]), path)
    return path.read_text(encoding="utf-8")


def _recalled_between_kept(pre, out) -> bool:
    """Does a body the scene recalled sort between two it kept?"""
    kept = [pre[j]["id"] for j in out.final_bodies[:len(out.final_bodies)
                                                  - len(out.recalled_body_ids)]]
    return any(min(kept) < r < max(kept) for r in out.recalled_body_ids) if kept else False


def test_run_files_equal_the_scene_by_scene_oracle(tmp_path, monkeypatch):
    seen = dict.fromkeys(["empty head group", "empty body group", "empty pair log",
                          "recalled between kept", "removed head", "exponent score",
                          "exponent pair score", "huge id", "blocks"], False)
    nms, outs = [], []

    def nms_recorded(*args, _nms=cli.nms_groups):
        nms.append(_nms(*args))
        return nms[-1]

    def post_recorded(*args, _post=cli.postprocess):
        outs.append(_post(*args))
        return outs[-1]

    monkeypatch.setattr(cli, "nms_groups", nms_recorded)
    monkeypatch.setattr(cli, "postprocess", post_recorded)
    # blocks of one scene, of a few, and of as many as `run` formats at a time
    blocks = (0, 12, pipeline._TEXT_BLOCK)
    for seed in range(6):
        d = tmp_path / str(seed)
        d.mkdir()
        rng = np.random.default_rng(seed)
        dets, model = _dets_file(d, rng, seed), _model(d, seed)
        nms.clear()
        outs.clear()
        monkeypatch.setattr(pipeline, "_TEXT_BLOCK", blocks[seed % 3])
        floor = ["--score-floor", "0.0"] if seed % 2 else []
        assert cli.main(["run", "--dets", dets, "--model", model,
                         "--out-dir", str(d / "out"), *floor]) == 0

        (heads_floor, heads_kept), (bodies_floor, bodies_kept) = nms
        scene_ids = heads_floor.scene_ids
        heads, bodies = _kept(heads_floor, heads_kept), _kept(bodies_floor, bodies_kept)
        pre = _records(bodies_floor)
        final = [([h[i] for i in out.final_heads], [p[j] for j in out.final_bodies])
                 for h, p, out in zip(heads, pre, outs)]
        baseline = run_groups(zip(scene_ids, heads, bodies))
        rdm = run_groups((s, h, b) for s, (h, b) in zip(scene_ids, final))
        expected = {"baseline.jsonl": _write(baseline, d / "baseline.jsonl"),
                    "rdm.jsonl": _write(rdm, d / "rdm.jsonl")}
        audit = {"scenes": [{
            "scene_id": scene_id,
            "recalled_body_ids": out.recalled_body_ids,
            "removed_head_ids": out.removed_head_ids,
            "pairs": [{"head": r.head_id, "body": r.body_id, "score": r.score,
                       "phase": r.phase} for r in out.pair_log],
        } for scene_id, out in zip(scene_ids, outs)]}
        expected["audit.json"] = json.dumps(audit, indent=2) + "\n"
        for name, text in expected.items():
            assert (d / "out" / name).read_text(encoding="utf-8") == text, (seed, name)
        # each detection line is also what `json.dumps` gives for its object
        for line in expected["rdm.jsonl"].splitlines():
            assert json.dumps(json.loads(line)) == line

        seen["empty head group"] |= any(not recs for _, c, _, recs in rdm if c == "head")
        seen["empty body group"] |= any(not recs for _, c, _, recs in rdm if c == "body")
        seen["empty pair log"] |= any(not out.pair_log for out in outs)
        seen["recalled between kept"] |= any(map(_recalled_between_kept, pre, outs))
        seen["removed head"] |= any(out.removed_head_ids for out in outs)
        seen["exponent score"] |= bool(re.search(r'"score": [0-9.]+e-', expected["rdm.jsonl"]))
        seen["exponent pair score"] |= bool(re.search(r'"score": [0-9.]+e-',
                                                      expected["audit.json"]))
        seen["huge id"] |= str(HUGE_ID)[:-2] in expected["rdm.jsonl"]
        seen["blocks"] |= pipeline._TEXT_BLOCK < sum(map(len, heads)) + sum(map(len, pre))
    assert seen == dict.fromkeys(seen, True)


def _run_argv(tmp_path, out, *extra) -> list[str]:
    rng = np.random.default_rng(9)
    return ["run", "--dets", _dets_file(tmp_path, rng, 9), "--model", _model(tmp_path, 9),
            "--out-dir", str(out), *extra]


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "over_outputs"])
def test_failure_while_writing_keeps_every_output(tmp_path, monkeypatch, capsys, existing):
    # the audit text of the fourth scene raises, after earlier blocks of all
    # three files went to their temp files; no output changes, and no temp
    # or backup file remains
    out = tmp_path / "out"
    argv = _run_argv(tmp_path, out)
    if existing:
        # other bytes than the failing call would write
        assert cli.main([*argv, "--nms-iou", "0.3"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else {}
    calls = []

    def failing(scene_id, result, _audit=pipeline._audit_scene):
        calls.append(scene_id)
        if len(calls) == 4:
            raise ValueError("audit formatter failed")
        return _audit(scene_id, result)

    monkeypatch.setattr(pipeline, "_audit_scene", failing)
    monkeypatch.setattr(pipeline, "_TEXT_BLOCK", 0)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "crowdpost run: error: audit formatter failed\n"
    assert len(calls) == 4
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
