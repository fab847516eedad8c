"""`run` reads its split and writes baseline.jsonl, rdm.jsonl and audit.json
block by block of scenes, formatting each detection once.  Over seeded
random splits its files must equal what the scene-by-scene builder
`run_groups` (tests/oracles.py) gives through `write_detection_groups`, and
the audit `json.dumps(..., indent=2)` of the post-process results.  A
failure partway through the writing leaves every output as it was."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from crowdpost import cli, data_model, pipeline
from crowdpost.data_model import group_columns, write_detection_groups
from crowdpost.rdm import RelationModel, save_model

from helpers import batch_pass
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
    # batches of one line, of a few and of the whole file, and so blocks
    # bounded by half of one group's detections, of a few groups' and of the
    # split's
    batches = (1, 2048, 1 << 30)
    for seed in range(6):
        d = tmp_path / str(seed)
        d.mkdir()
        rng = np.random.default_rng(seed)
        dets, model = _dets_file(d, rng, seed), _model(d, seed)
        nms.clear()
        outs.clear()
        monkeypatch.setattr(data_model, "_BATCH_BYTES", batches[seed % 3])
        floor = ["--score-floor", "0.0"] if seed % 2 else []
        assert cli.main(["run", "--dets", dets, "--model", model,
                         "--out-dir", str(d / "out"), *floor]) == 0

        # `run` calls NMS on the heads and then on the bodies of each block
        scene_ids, heads, bodies, pre = [], [], [], []
        for (heads_floor, heads_kept), (bodies_floor, bodies_kept) in zip(nms[::2], nms[1::2]):
            scene_ids += heads_floor.scene_ids
            heads += _kept(heads_floor, heads_kept)
            bodies += _kept(bodies_floor, bodies_kept)
            pre += _records(bodies_floor)
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
        seen["blocks"] |= len(nms) > 2
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
    monkeypatch.setattr(data_model, "_BATCH_BYTES", 1)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "crowdpost run: error: audit formatter failed\n"
    assert len(calls) == 4
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        # nor does the directory `run` made for them
        assert not out.exists()


def _sparse_split(tmp_path, num_scenes, seed=5) -> str:
    path = tmp_path / f"dets{num_scenes}.jsonl"
    assert cli.main(["simulate", "--out-scenes", str(tmp_path / "scenes.jsonl"),
                     "--out-dets", str(path), "--num-scenes", str(num_scenes),
                     "--seed", str(seed), "--noise-seed", str(seed), "--cluster-prob", "0.0",
                     "--persons-per-image", "3.0"]) == 0
    return str(path)


def test_run_working_set_does_not_grow_with_the_split(tmp_path):
    # what `run` holds beyond what it leaves allocated is a block of scenes
    # and the split's group keys, one scene id and one dict entry a scene.
    # Measured: 0.50 MB on 150 sparse scenes and 0.66 MB on 1,500 with
    # blocks of at most half the first 64 KiB batch (213 detections), 0.63
    # and 0.79 MB with blocks of 512 detections and 1.03 and 1.28 MB with
    # blocks of 1,024, where holding the whole split took 1.11 and 5.36 MB;
    # the bounds allow 256 bytes of keys for each added scene, and blocks of
    # up to 512 detections
    model = _model(tmp_path, 3)
    held = []
    for num_scenes in (150, 1500):
        argv = ["run", "--dets", _sparse_split(tmp_path, num_scenes), "--model", model,
                "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak - current)
    assert held[1] - held[0] < 256 * 1350, held
    assert held[1] < 1_000_000, held


def _integral(line: str, integers: bool, crlf: bool) -> str:
    """`line` with each box rounded outward to whole numbers, written as
    floats or as integers, ending in LF or in CRLF."""
    obj = json.loads(line)
    for d in obj["dets"]:
        x1, y1, x2, y2 = d["box"]
        box = [math.floor(x1), math.floor(y1), math.ceil(x2), math.ceil(y2)]
        d["box"] = box if integers else list(map(float, box))
    return json.dumps(obj) + ("\r\n" if crlf else "\n")


def _streaming_case(case: str, lines: list[str]) -> tuple[list[str], list[str] | None, str]:
    """The lines of a case, the lines of the file whose whole-split outputs
    it must give (None: it fails), and the error it fails with."""
    if case == "malformed last line":
        return (lines[:-1] + [lines[-1][:40] + "\n"], None,
                f"dets.jsonl:{len(lines)}: invalid JSON (Expecting value)")
    if case == "group of the first block repeated last":
        return (lines + lines[:1], None,
                f"dets.jsonl:{len(lines) + 1}: duplicate group ('s00000', 'head', 'pre_nms')")
    if case == "every head group first":
        return sorted(lines, key=lambda line: '"class": "body"' in line), lines, ""
    if case == "scene without a body group":
        assert '"scene_id": "s00002", "class": "body"' in lines[5]
        rest = lines[:5] + lines[6:]
        return rest, rest, ""
    # integer coordinates and CRLF endings in the middle of the file, which
    # the batch pass turns away, against the same values as floats
    floats = [_integral(line, False, False) for line in lines]
    mid = len(lines) // 2
    return (floats[:mid] + [_integral(line, True, k % 2 == 1)
                            for k, line in enumerate(lines[mid:mid + 6])] + floats[mid + 6:],
            floats, "")


@pytest.mark.parametrize("case", ["malformed last line", "group of the first block repeated last",
                                  "every head group first", "scene without a body group",
                                  "integers and CRLF in a middle batch"])
def test_streamed_run_gives_the_whole_split_outcome(tmp_path, monkeypatch, capsys, case):
    # a split of 40 scenes in batches of about 2 KiB, and so in blocks of at
    # most half a batch's detections, gives the outputs of one block and one
    # batch, or its error, whatever the order of the groups or the batch
    # where a fault lies
    model = _model(tmp_path, 11)
    with open(_sparse_split(tmp_path, 40, seed=11), encoding="utf-8") as fh:
        lines = fh.readlines()
    streamed, reference, error = _streaming_case(case, lines)
    d = tmp_path / "in"
    d.mkdir()
    (d / "dets.jsonl").write_bytes("".join(streamed).encode("utf-8"))
    nms = []

    def nms_counted(*args, _nms=cli.nms_groups):
        nms.append(len(args[0].scene_ids))
        return _nms(*args)

    monkeypatch.setattr(cli, "nms_groups", nms_counted)
    monkeypatch.setattr(data_model, "_BATCH_BYTES", 2048)
    out = tmp_path / "out"
    code = cli.main(["run", "--dets", str(d / "dets.jsonl"), "--model", model,
                     "--out-dir", str(out)])
    # blocks went through NMS before the end of the file, a fault included
    assert len(nms) > 4 and max(nms) < 40
    if reference is None:
        assert code == 1
        assert capsys.readouterr().err == f"crowdpost run: error: {error}\n"
        assert not out.exists() and [p.name for p in d.iterdir()] == ["dets.jsonl"]
        return
    assert code == 0
    if "integers" in case:
        assert batch_pass(d / "dets.jsonl", data_model._group_batch) is None
    (d / "whole.jsonl").write_text("".join(reference), encoding="utf-8")
    # one batch, taken as one block
    monkeypatch.setattr(data_model, "_BATCH_BYTES", 1 << 30)
    monkeypatch.setattr(cli, "_pre_nms_blocks", lambda parts: [cli._pre_nms_columns(*parts)])
    nms.clear()
    assert cli.main(["run", "--dets", str(d / "whole.jsonl"), "--model", model,
                     "--out-dir", str(tmp_path / "whole")]) == 0
    assert len(nms) == 2
    for name in ("baseline.jsonl", "rdm.jsonl", "audit.json"):
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


@pytest.mark.parametrize("batch_bytes", [1, 2048, data_model._BATCH_BYTES],
                         ids=["line", "2KiB", "default"])
@pytest.mark.parametrize("case", ["in order", "every head group first",
                                  "scene without a body group"])
def test_run_blocks_are_bounded_by_the_first_batch(tmp_path, monkeypatch, case, batch_bytes):
    # `run` hands NMS blocks of whole scenes in the order the scenes first
    # appear, each of at most half as many detections as the pre-NMS groups
    # of the file's first batch that holds any, or of one scene; one after
    # the other, they are the whole file's pre-NMS columns
    model = _model(tmp_path, 11)
    with open(_sparse_split(tmp_path, 40, seed=11), encoding="utf-8") as fh:
        lines = fh.readlines()
    if case != "in order":
        lines = _streaming_case(case, lines)[0]
    path = tmp_path / "dets.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    nms = []

    def nms_recorded(dets, cfg, _nms=cli.nms_groups):
        nms.append(dets)
        return _nms(dets, cfg)

    monkeypatch.setattr(cli, "nms_groups", nms_recorded)
    monkeypatch.setattr(data_model, "_BATCH_BYTES", batch_bytes)
    assert cli.main(["run", "--dets", str(path), "--model", model,
                     "--out-dir", str(tmp_path / "out")]) == 0
    blocks = list(zip(nms[::2], nms[1::2]))
    first = next(filter(None, (
        sum(n for n, stage in zip(np.diff(batch.detections.det_offsets), batch.stages)
            if stage == data_model.PRE_NMS)
        for batch in data_model.detection_batches(path))))
    for heads, bodies in blocks:
        assert heads.scene_ids == bodies.scene_ids
        assert 2 * (len(heads) + len(bodies)) <= first + 1 or len(heads.scene_ids) == 1
    order = list(dict.fromkeys(json.loads(line)["scene_id"] for line in lines))
    assert [scene_id for heads, _ in blocks for scene_id in heads.scene_ids] == order
    for c, whole in enumerate(cli._pre_nms_columns(data_model.read_detection_groups(path))):
        assert whole.scene_ids == order
        assert np.concatenate([np.diff(block[c].det_offsets) for block in blocks]).tolist() \
            == np.diff(whole.det_offsets).tolist()
        assert [i for block in blocks for i in block[c].det_ids] == whole.det_ids
        assert np.array_equal(np.concatenate([block[c].boxes for block in blocks]), whole.boxes)
        assert np.array_equal(np.concatenate([block[c].scores for block in blocks]),
                              whole.scores)
    if batch_bytes < data_model._BATCH_BYTES:
        assert len(blocks) > 2
