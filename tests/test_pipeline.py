import ast
import inspect
import re

import numpy as np
import pytest

from crowdpost.geometry import pairwise_ioh
from crowdpost.pipeline import FIRST, SECOND, PostProcessConfig, postprocess, scene_inputs

from helpers import det, postprocess_scene, split_columns
from oracles import ioh, postprocess_reference


def stub(value):
    return lambda heads, bodies: [value] * len(heads)


# shared scene: b1 kept, b2 suppressed duplicate, h1 inside both,
# h3 inside only the suppressed b2, h2 inside nothing
B1_KEPT = det(1, (0, 0, 30, 80), 0.9)
B2_SUPPRESSED = det(2, (6, 0, 36, 80), 0.7)
H_BOTH = det(1, (10, 0, 20, 12), 0.9)
H_ORPHAN = det(2, (50, 0, 60, 12), 0.8)
H_SUPPRESSED_ONLY = det(3, (31, 0, 36, 12), 0.85)

BODIES_PRE = [B1_KEPT, B2_SUPPRESSED]
BODIES_POST = [B1_KEPT]
CFG = PostProcessConfig()


def ids(dets):
    return sorted(d.det_id for d in dets)


def test_config_validation():
    with pytest.raises(ValueError):
        PostProcessConfig(ioh_threshold=0.0)
    with pytest.raises(ValueError):
        PostProcessConfig(low_threshold=0.9, high_threshold=0.1)
    with pytest.raises(ValueError):
        PostProcessConfig(low_threshold=0.5, high_threshold=0.5)
    PostProcessConfig(low_threshold=0.0, high_threshold=1.0)  # boundary allowed


def test_ioh_gate_examples():
    head = np.array([(10, 0, 20, 10)], dtype=np.float64)
    bodies = np.array([(0, 0, 30, 80),      # head inside: IoH 1
                       (0, 0, 18, 80),      # IoH 0.8
                       (12.5, 0, 40, 80),   # IoH 0.75
                       (14, 0, 40, 80)],    # IoH 0.6
                      dtype=np.float64)
    values = pairwise_ioh(head, bodies)
    assert values.tolist() == [[1.0, 0.8, 0.75, 0.6]]
    assert (values > CFG.ioh_threshold).tolist() == [[True, True, True, False]]


def test_phase1_mismatch_examples():
    # phase one reads each head's scores against its gated kept bodies; a head
    # with no such partner, or whose best partner scores below the low
    # threshold, is mismatched and read again against every gated pre-NMS body
    heads = [H_BOTH, H_ORPHAN, H_SUPPRESSED_ONLY]
    for value, log_expected, removed in (
            (0.95, [(3, 2, SECOND)], [2]),
            (0.05, [(1, 1, FIRST), (1, 1, SECOND), (1, 2, SECOND), (3, 2, SECOND)],
             [1, 2, 3])):
        out = postprocess_scene(heads, BODIES_PRE, BODIES_POST, stub(value), CFG)
        assert [(r.head_id, r.body_id, r.phase) for r in out.pair_log] == log_expected
        assert out.removed_head_ids == removed


def recording(scorer):
    """`scorer` that also records the (head id, body id) pairs of each call."""
    calls = []

    def wrapped(heads, bodies):
        calls.append(list(zip(heads.det_ids, bodies.det_ids)))
        return scorer(heads, bodies)

    return wrapped, calls


def test_scorer_called_once_with_every_gated_pair():
    scorer, calls = recording(stub(0.05))
    postprocess_scene([H_BOTH, H_ORPHAN, H_SUPPRESSED_ONLY], BODIES_PRE, BODIES_POST, scorer, CFG)
    # head order, then pre-NMS order; h3's kept b1 is outside the gate
    assert calls == [[(1, 1), (1, 2), (3, 2)]]

    scorer, calls = recording(stub(0.05))
    postprocess_scene([H_ORPHAN], BODIES_PRE, BODIES_POST, scorer, CFG)
    assert calls == []  # no gated pair, no call


def test_branch_noop():
    out = postprocess_scene([H_BOTH], BODIES_PRE, BODIES_POST, stub(0.95), CFG)
    assert out.final_heads == [H_BOTH]
    assert out.final_bodies == BODIES_POST
    assert out.recalled_body_ids == []
    assert out.removed_head_ids == []
    assert out.pair_log == []


def test_branch_recall():
    # h3's only kept-body IoH is below the gate, so phase one fails; its
    # suppressed partner scores above the high threshold and is recalled
    out = postprocess_scene([H_SUPPRESSED_ONLY], BODIES_PRE, BODIES_POST, stub(0.95), CFG)
    assert out.final_heads == [H_SUPPRESSED_ONLY]
    assert ids(out.final_bodies) == [1, 2]
    assert out.recalled_body_ids == [2]
    assert out.removed_head_ids == []
    assert [(r.head_id, r.body_id, r.phase) for r in out.pair_log] == [(3, 2, SECOND)]


def test_branch_remove_low_score():
    out = postprocess_scene([H_BOTH], BODIES_PRE, BODIES_POST, stub(0.05), CFG)
    assert out.final_heads == []
    assert out.final_bodies == BODIES_POST
    assert out.recalled_body_ids == []
    assert out.removed_head_ids == [1]
    phases = {(r.head_id, r.body_id, r.phase) for r in out.pair_log}
    assert phases == {(1, 1, FIRST), (1, 1, SECOND), (1, 2, SECOND)}


def test_branch_remove_no_partner():
    out = postprocess_scene([H_ORPHAN], BODIES_PRE, BODIES_POST, stub(0.95), CFG)
    assert out.final_heads == []
    assert out.removed_head_ids == [2]
    assert out.final_bodies == BODIES_POST
    assert out.pair_log == []


def test_branch_dead_zone_keep():
    out = postprocess_scene([H_SUPPRESSED_ONLY], BODIES_PRE, BODIES_POST, stub(0.5), CFG)
    assert out.final_heads == [H_SUPPRESSED_ONLY]
    assert out.final_bodies == BODIES_POST
    assert out.recalled_body_ids == []
    assert out.removed_head_ids == []


def test_all_four_branches_in_one_scene():
    heads = [H_BOTH, H_ORPHAN, H_SUPPRESSED_ONLY]

    def scorer(heads, bodies):
        return [0.95 if h in (1, 3) else 0.0 for h in heads.det_ids]

    out = postprocess_scene(heads, BODIES_PRE, BODIES_POST, scorer, CFG)
    # h1 matched (no-op), h2 removed (no partner), h3 recalls b2
    assert ids(out.final_heads) == [1, 3]
    assert ids(out.final_bodies) == [1, 2]
    assert out.recalled_body_ids == [2]
    assert out.removed_head_ids == [2]


def test_zero_area_head_raises_only_when_there_are_bodies():
    # raised by the split gate of `scene_inputs`, the one gate
    flat = det(7, (10, 0, 10, 12), 0.9)
    with pytest.raises(ValueError, match="zero-area head"):
        postprocess_scene([H_BOTH, flat], BODIES_PRE, BODIES_POST, stub(0.95), CFG)
    with pytest.raises(ValueError, match="zero-area head"):
        postprocess_scene([flat], BODIES_PRE, [], stub(0.95), CFG)
    out = postprocess_scene([flat], [], [], stub(0.95), CFG)
    assert out.removed_head_ids == [7]


def test_duplicate_recall_inserted_once():
    twin = det(4, (31, 0, 36, 12), 0.8)  # also only inside b2
    out = postprocess_scene([H_SUPPRESSED_ONLY, twin], BODIES_PRE, BODIES_POST,
                            stub(0.95), CFG)
    assert ids(out.final_bodies) == [1, 2]
    assert out.recalled_body_ids == [2]


def test_recall_argmax_tie_takes_lowest_id():
    other = det(5, (30.5, 0, 36.5, 80), 0.6)  # second suppressed body under h3
    out = postprocess_scene([H_SUPPRESSED_ONLY], BODIES_PRE + [other], BODIES_POST,
                            stub(0.95), CFG)
    assert out.recalled_body_ids == [2]


def test_recall_takes_argmax_score():
    other = det(5, (30.5, 0, 36.5, 80), 0.6)

    def scorer(heads, bodies):
        return [0.99 if b == 5 else 0.92 for b in bodies.det_ids]

    out = postprocess_scene([H_SUPPRESSED_ONLY], BODIES_PRE + [other], BODIES_POST,
                            scorer, CFG)
    assert out.recalled_body_ids == [5]


def test_neutral_thresholds_change_nothing():
    cfg = PostProcessConfig(low_threshold=0.0, high_threshold=1.0)
    heads = [H_BOTH, H_SUPPRESSED_ONLY]  # every head has some pre-NMS partner
    for value in (0.001, 0.5, 0.999):
        out = postprocess_scene(heads, BODIES_PRE, BODIES_POST, stub(value), cfg)
        assert out.final_heads == heads
        assert out.final_bodies == BODIES_POST
        assert out.recalled_body_ids == []
        assert out.removed_head_ids == []


def _fuzz_scene(rng):
    bodies_pre = []
    for i in range(rng.integers(1, 12)):
        x, y = rng.uniform(0, 150, size=2)
        w, h = rng.uniform(15, 45, size=2)
        bodies_pre.append(det(i, (x, y, x + w, y + h), float(rng.uniform(0.1, 1))))
    post_n = int(rng.integers(0, len(bodies_pre) + 1))
    bodies_post = list(rng.choice(len(bodies_pre), size=post_n, replace=False))
    bodies_post = [bodies_pre[i] for i in sorted(bodies_post)]
    heads = []
    for i in range(rng.integers(0, 10)):
        x1, y1, x2, y2 = bodies_pre[rng.integers(0, len(bodies_pre))].box
        hw = (x2 - x1) * 0.35
        hx = x1 + rng.uniform(-0.3, 1.0) * (x2 - x1)
        hy = y1 + rng.uniform(-0.2, 0.4) * (y2 - y1)
        heads.append(det(i, (hx, hy, hx + hw, hy + hw), float(rng.uniform(0.1, 1))))
    return heads, bodies_pre, bodies_post


def _hash_score(head_id, body_id):
    return (head_id * 2654435761 + body_id * 40503) % 997 / 997.0


def hash_scorer(heads, bodies):
    return [_hash_score(h, b) for h, b in zip(heads.det_ids, bodies.det_ids)]


def test_fuzz_superset_subset_invariants():
    rng = np.random.default_rng(42)
    for _ in range(300):
        heads, pre, post = _fuzz_scene(rng)
        out = postprocess_scene(heads, pre, post, hash_scorer, CFG)
        post_ids = {d.det_id for d in post}
        final_body_ids = {d.det_id for d in out.final_bodies}
        assert post_ids <= final_body_ids      # recall only ever adds bodies
        assert {d.det_id for d in out.final_heads} <= {d.det_id for d in heads}
        assert set(out.removed_head_ids).isdisjoint(
            d.det_id for d in out.final_heads)
        assert set(out.recalled_body_ids) == final_body_ids - post_ids
        pre_ids = {d.det_id for d in pre}
        assert set(out.recalled_body_ids) <= pre_ids - post_ids


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        heads, pre, post = _fuzz_scene(rng)
        base = postprocess_scene(heads, pre, post, hash_scorer, CFG)
        perm = [heads[i] for i in rng.permutation(len(heads))]
        shuffled = postprocess_scene(perm, pre, post, hash_scorer, CFG)
        assert ids(base.final_heads) == ids(shuffled.final_heads)
        assert ids(base.final_bodies) == ids(shuffled.final_bodies)
        assert sorted(base.recalled_body_ids) == sorted(shuffled.recalled_body_ids)
        assert sorted(base.removed_head_ids) == sorted(shuffled.removed_head_ids)


def test_constant_high_stub_removes_only_partnerless_heads():
    # score above the high threshold everywhere: the only removals left are
    # heads with no second-phase partner at all (the empty-score branch)
    rng = np.random.default_rng(13)
    for _ in range(50):
        heads, pre, post = _fuzz_scene(rng)
        out = postprocess_scene(heads, pre, post, stub(0.95), CFG)
        partnerless = {h.det_id for h in heads
                       if all(ioh(h.box, b.box) <= CFG.ioh_threshold
                              for b in pre)}
        assert set(out.removed_head_ids) == partnerless


def test_constant_low_stub_removes_every_head_and_recalls_nothing():
    rng = np.random.default_rng(29)
    for _ in range(50):
        heads, pre, post = _fuzz_scene(rng)
        out = postprocess_scene(heads, pre, post, stub(0.05), CFG)
        assert out.recalled_body_ids == []
        assert out.final_heads == []  # every head is mismatched at 0.05
        assert sorted(out.removed_head_ids) == ids(heads)


def test_fuzz_scorer_sees_exactly_the_gated_pairs():
    # one call per scene at most, with the pairs the one-pair `ioh` oracle gates, in
    # head order then pre-NMS order; the pair log takes its scores from it
    rng = np.random.default_rng(31)
    for _ in range(200):
        heads, pre, post = _fuzz_scene(rng)
        scorer, calls = recording(hash_scorer)
        out = postprocess_scene(heads, pre, post, scorer, CFG)
        gated = [(h.det_id, b.det_id) for h in heads for b in pre
                 if ioh(h.box, b.box) > CFG.ioh_threshold]
        assert calls == ([gated] if gated else [])
        for r in out.pair_log:
            assert r.score == _hash_score(r.head_id, r.body_id)


# ---------------------------------------------------------------------------
# the scenes of a split, one call each, against the one-scene oracle

# exact thresholds and repeated values, so best scores tie and land on 0.1 / 0.9
_TABLE = (0.05, 0.1, 0.5, 0.9, 0.95, 0.95)


def _table_score(head_id, body_id):
    return _TABLE[(head_id * 7 + body_id * 5) % len(_TABLE)]


def table_scorer(heads, bodies):
    return [_table_score(h, b) for h, b in zip(heads.det_ids, bodies.det_ids)]


def _records(dets):
    return [{"id": d.det_id, "box": d.box, "score": d.score} for d in dets]


def _split_scene(rng):
    """(heads, pre-NMS bodies, kept bodies in some rank order) of one scene:
    empty, heads without bodies, bodies without heads, or a fuzz scene with
    some boxes repeated."""
    kind = rng.integers(0, 6)
    if kind == 0:
        return [], [], []
    heads, pre, post = _fuzz_scene(rng)
    if kind == 1:
        return heads, [], []
    if kind == 2:
        return [], pre, post
    for dets in (heads, pre):
        for i in range(1, len(dets)):
            if rng.random() < 0.2:  # a duplicate box under a new id
                source = dets[int(rng.integers(0, i))]
                dets[i] = det(dets[i].det_id, source.box, dets[i].score)
    pre_index = {d.det_id: d for d in pre}
    post = [pre_index[d.det_id] for d in post]
    return heads, pre, [post[i] for i in rng.permutation(len(post))]


@pytest.mark.parametrize("seed", range(4))
def test_split_scene_by_scene_equals_reference(seed):
    # as `run` calls it: the split's gated pairs scored in one call, then each
    # scene of the split's columns on its own, with its scene's scorer
    rng = np.random.default_rng(seed)
    for _ in range(40):
        scenes = [_split_scene(rng) for _ in range(int(rng.integers(1, 12)))]
        heads, pre = (split_columns(s[c] for s in scenes) for c in range(2))
        kept = np.array([a + s[1].index(d) for a, s in zip(pre.det_offsets, scenes)
                         for d in s[2]], dtype=np.intp)
        scorer, calls = recording(table_scorer)
        inputs = scene_inputs(heads, pre, kept, scorer, CFG)
        assert len(inputs) == len(scenes)
        outs, gated = [], []
        for (h, b_pre, b_post), scene in zip(scenes, inputs):
            out = postprocess(*scene, CFG)
            ref_heads, ref_bodies, recalled, removed, log = postprocess_reference(
                _records(h), _records(b_pre), _records(b_post),
                lambda hd, bd: _table_score(hd["id"], bd["id"]), CFG.ioh_threshold,
                CFG.low_threshold, CFG.high_threshold)
            assert [h[i].det_id for i in out.final_heads] == ref_heads
            assert [b_pre[j].det_id for j in out.final_bodies] == ref_bodies
            assert out.recalled_body_ids == recalled
            assert out.removed_head_ids == removed
            assert [(x.head_id, x.body_id, x.score, x.phase) for x in out.pair_log] == log
            gated += [(a.det_id, b.det_id) for a in h for b in b_pre
                      if ioh(a.box, b.box) > CFG.ioh_threshold]
            outs.append(out)
        # one call for the whole split: scene by scene, head order, pre-NMS order
        assert calls == ([gated] if gated else [])
        # the scenes' indices, offset into the split, take each scene's final
        # detections into its own group, as `run` takes them
        for final, columns, c in (("final_heads", heads, 0), ("final_bodies", pre, 1)):
            index = [a + i for a, out in zip(columns.det_offsets, outs)
                     for i in getattr(out, final)]
            joined = columns.take(np.array(index, dtype=np.intp))
            offsets = joined.det_offsets
            assert joined.scene_ids == heads.scene_ids
            assert [joined.det_ids[a:b] for a, b in zip(offsets, offsets[1:])] == \
                [[s[c][i].det_id for i in getattr(out, final)] for s, out in zip(scenes, outs)]


NONE_KEPT = np.zeros(0, dtype=np.intp)


def test_pad_heads_never_gate():
    # scene s0 shares a padded stack with the two-head scene s1; its pad head
    # row lies inside b1, which must not make it a gated pair
    scorer, calls = recording(stub(0.5))
    scene_inputs(split_columns([[H_BOTH], [H_BOTH, H_SUPPRESSED_ONLY]]),
                 split_columns([BODIES_PRE, BODIES_PRE]), NONE_KEPT, scorer, CFG)
    assert calls == [[(1, 1), (1, 2), (1, 1), (1, 2), (3, 2)]]


def test_scene_scorers_need_aligned_scenes():
    with pytest.raises(ValueError, match="same scenes"):
        scene_inputs(split_columns([[H_BOTH], []]), split_columns([BODIES_PRE]), NONE_KEPT,
                     stub(0.5), CFG)


def test_split_gate_raises_for_a_zero_area_head_only_with_bodies():
    flat = det(7, (10, 0, 10, 12), 0.9)
    heads = split_columns([[H_BOTH], [flat]])
    assert len(scene_inputs(heads, split_columns([BODIES_PRE, []]), NONE_KEPT, stub(0.95),
                            CFG)) == 2
    with pytest.raises(ValueError, match="zero-area head"):
        scene_inputs(heads, split_columns([BODIES_PRE, BODIES_PRE]), NONE_KEPT, stub(0.95), CFG)


def test_one_scene_equals_reference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        heads, pre, post = _split_scene(rng)
        out = postprocess_scene(heads, pre, post, table_scorer, CFG)
        ref_heads, ref_bodies, recalled, removed, log = postprocess_reference(
            _records(heads), _records(pre), _records(post),
            lambda h, b: _table_score(h["id"], b["id"]), CFG.ioh_threshold,
            CFG.low_threshold, CFG.high_threshold)
        assert [d.det_id for d in out.final_heads] == ref_heads
        assert [d.det_id for d in out.final_bodies] == ref_bodies
        assert (out.recalled_body_ids, out.removed_head_ids) == (recalled, removed)
        assert [(r.head_id, r.body_id, r.score, r.phase) for r in out.pair_log] == log


def no_pairs():
    return [], [], []


@pytest.mark.parametrize("kept, bad", [([-1], [-1]), ([0, 2], [2]), ([1, 0, 1], [1])],
                         ids=["negative", "past_the_end", "repeated"])
def test_kept_positions_must_be_distinct_and_in_range(kept, bad):
    # a negative position would otherwise name a body from the end
    with pytest.raises(ValueError, match=re.escape(f"post-NMS body positions {bad} are not")):
        postprocess([1], [1, 2], kept, no_pairs, CFG)


def test_run_gates_each_padded_batch_once_and_no_scene_again(monkeypatch, tmp_path):
    # `run` decides on the pairs of the one split-wide gate: `pairwise_ioh`
    # runs once per padded batch of `gate`, and never inside `postprocess`
    from crowdpost import cli, pipeline
    from crowdpost.data_model import read_detection_groups
    from crowdpost.geometry import padded_batches
    from crowdpost.nms import NmsConfig, nms_groups
    from crowdpost.rdm import RelationModel, save_model

    dets, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli.main(["simulate", "--out-scenes", str(tmp_path / "s.jsonl"),
                     "--out-dets", str(dets), "--num-scenes", "8", "--seed", "3",
                     "--noise-seed", "3", "--cluster-prob", "0.95",
                     "--persons-per-image", "30"]) == 0
    save_model(RelationModel.initialize(hidden_dim=4), model)

    gated, inside = [], []
    ioh, post = pipeline.pairwise_ioh, cli.postprocess

    def counted(*args):
        gated.append(bool(inside))
        return ioh(*args)

    def marked(*args):
        inside.append(True)
        try:
            return post(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(pipeline, "pairwise_ioh", counted)
    monkeypatch.setattr(cli, "postprocess", marked)
    assert cli.main(["run", "--dets", str(dets), "--model", str(model),
                     "--out-dir", str(tmp_path / "out")]) == 0

    heads_pre, bodies_pre = cli._pre_nms_columns(read_detection_groups(dets))
    heads_floor, heads_kept = nms_groups(heads_pre, NmsConfig())
    heads = heads_floor.take(heads_kept)
    bodies_floor, _ = nms_groups(bodies_pre, NmsConfig())
    batches = list(padded_batches(np.diff(heads.det_offsets), np.diff(bodies_floor.det_offsets)))
    assert len(batches) > 1
    assert gated == [False] * len(batches)


def test_train_rdm_gates_each_padded_batch_once(monkeypatch, tmp_path):
    # `train-rdm` labels the pairs of `run`'s gate: `pairwise_ioh` runs once
    # per padded batch of `gate` over the split, and the record route has no
    # overlap kernel of its own
    from crowdpost import cli, pipeline, records
    from crowdpost.data_model import read_detection_groups
    from crowdpost.geometry import padded_batches
    from crowdpost.nms import NmsConfig, nms_groups

    scenes, dets = tmp_path / "s.jsonl", tmp_path / "d.jsonl"
    assert cli.main(["simulate", "--out-scenes", str(scenes), "--out-dets", str(dets),
                     "--num-scenes", "8", "--seed", "3", "--noise-seed", "3",
                     "--cluster-prob", "0.95", "--persons-per-image", "30"]) == 0
    gated, ioh = [], pipeline.pairwise_ioh

    def counted(*args):
        gated.append(args)
        return ioh(*args)

    monkeypatch.setattr(pipeline, "pairwise_ioh", counted)
    assert cli.main(["train-rdm", "--scenes", str(scenes), "--dets", str(dets),
                     "--out-model", str(tmp_path / "m.json"),
                     "--out-loss", str(tmp_path / "loss.csv"), "--epochs", "1",
                     "--hidden-dim", "4"]) == 0

    heads_pre, bodies_pre = cli._pre_nms_columns(read_detection_groups(dets))
    heads_floor, heads_kept = nms_groups(heads_pre, NmsConfig())
    heads = heads_floor.take(heads_kept)
    bodies_floor, _ = nms_groups(bodies_pre, NmsConfig())
    batches = list(padded_batches(np.diff(heads.det_offsets), np.diff(bodies_floor.det_offsets)))
    assert len(batches) > 1
    assert len(gated) == len(batches)
    imported = [node.module for node in ast.walk(ast.parse(inspect.getsource(records)))
                if isinstance(node, ast.ImportFrom)]
    assert "geometry" not in imported


def test_run_builds_no_columns_per_scene(monkeypatch, tmp_path):
    # `run` hands each scene plain lists: the detection columns it builds
    # are a batch's and a block's, as many for 40 scenes as for 4 when the
    # split is one batch and one block
    from crowdpost import cli, data_model
    from crowdpost.data_model import DetectionColumns
    from crowdpost.rdm import RelationModel, save_model

    model = tmp_path / "m.json"
    save_model(RelationModel.initialize(hidden_dim=4), model)
    for num_scenes in (4, 40):
        assert cli.main(["simulate", "--out-scenes", str(tmp_path / "s.jsonl"),
                         "--out-dets", str(tmp_path / f"d{num_scenes}.jsonl"),
                         "--num-scenes", str(num_scenes), "--seed", "3",
                         "--noise-seed", "3"]) == 0
    init, counts = DetectionColumns.__init__, []

    def counted(self, *args):
        counts[-1] += 1
        init(self, *args)

    monkeypatch.setattr(DetectionColumns, "__init__", counted)
    monkeypatch.setattr(data_model, "_BATCH_BYTES", 1 << 30)
    monkeypatch.setattr(cli, "_RUN_BLOCK", 1 << 30)
    for num_scenes in (4, 40):
        counts.append(0)
        assert cli.main(["run", "--dets", str(tmp_path / f"d{num_scenes}.jsonl"),
                         "--model", str(model), "--out-dir", str(tmp_path / "out")]) == 0
    assert counts[0] == counts[1] > 0
