import numpy as np
import pytest

from crowdpost import geometry
from crowdpost.data_model import BODY, HEAD
from crowdpost.nms import NmsConfig, nms_groups
from crowdpost.records import build_detection_set, detection_lists
from crowdpost.simulator import NoiseConfig, SimConfig, generate_scenes, simulate_detections

from helpers import det, fields, split_columns
from oracles import nms_reference


def _nms(dets, cfg):
    """(kept, floored) of one class's detections in one scene, as lists:
    the kept and the floored bodies of a scene with no heads."""
    ds = build_detection_set("s0", [], dets, cfg)
    return list(ds.bodies_post_nms), list(ds.bodies_pre_nms)


def test_config_validation():
    with pytest.raises(ValueError):
        NmsConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        NmsConfig(iou_threshold=1.5)
    with pytest.raises(ValueError):
        NmsConfig(score_floor=1.0)


def test_single_detection_kept():
    d = det(1, (0, 0, 10, 10), 0.9)
    kept, floored = _nms([d], NmsConfig())
    assert kept == [d]
    assert floored == [d]


def test_identical_boxes_keep_higher_score():
    hi = det(1, (0, 0, 10, 10), 0.9)
    lo = det(2, (0, 0, 10, 10), 0.8)
    kept, _ = _nms([lo, hi], NmsConfig(iou_threshold=0.5))
    assert kept == [hi]


def test_empty_input():
    assert _nms([], NmsConfig()) == ([], [])


def test_suppression_is_strictly_greater_than_threshold():
    # IoU of the pair is exactly 0.5: half-area box nested in the other
    a = det(1, (0, 0, 10, 10), 0.9)
    b = det(2, (0, 0, 10, 5), 0.8)
    kept, _ = _nms([a, b], NmsConfig(iou_threshold=0.5))
    assert kept == [a, b]
    kept, _ = _nms([a, b], NmsConfig(iou_threshold=0.4999))
    assert kept == [a]


def test_score_ties_broken_by_det_id():
    a = det(5, (0, 0, 10, 10), 0.8)
    b = det(2, (0, 0, 10, 10), 0.8)
    kept, _ = _nms([a, b], NmsConfig())
    assert [d.det_id for d in kept] == [2]


def test_score_floor_drops_before_nms():
    strong = det(1, (0, 0, 10, 10), 0.9)
    weak = det(2, (50, 50, 60, 60), 0.01)
    kept, floored = _nms([weak, strong], NmsConfig(score_floor=0.05))
    assert kept == [strong]
    assert floored == [strong]


def test_floored_list_preserves_input_order():
    d1 = det(3, (0, 0, 10, 10), 0.5)
    d2 = det(1, (30, 0, 40, 10), 0.9)
    _, floored = _nms([d1, d2], NmsConfig())
    assert floored == [d1, d2]


def _random_scene(rng, n, scene_id="s0"):
    dets = []
    for i in range(n):
        x, y = rng.uniform(0, 80, size=2)
        w, h = rng.uniform(4, 30, size=2)
        score = float(rng.choice([0.1, 0.3, 0.5, 0.5, 0.7, 0.9]))  # forced ties
        dets.append(det(i, (x, y, x + w, y + h), score))
    return dets


def test_matches_quadratic_reference():
    rng = np.random.default_rng(99)
    cfg = NmsConfig(iou_threshold=0.5, score_floor=0.2)
    for _ in range(100):
        dets = _random_scene(rng, int(rng.integers(0, 50)))
        kept, floored = _nms(dets, cfg)
        records = [{"id": d.det_id, "box": d.box, "score": d.score}
                   for d in dets]
        ref_kept, ref_floored = nms_reference(records, cfg.iou_threshold, cfg.score_floor)
        assert [d.det_id for d in kept] == ref_kept
        assert [d.det_id for d in floored] == ref_floored


def test_idempotent():
    rng = np.random.default_rng(3)
    cfg = NmsConfig()
    dets = _random_scene(rng, 40)
    kept, _ = _nms(dets, cfg)
    again, _ = _nms(kept, cfg)
    assert again == kept


def test_raising_threshold_never_shrinks_kept_set():
    rng = np.random.default_rng(17)
    dets = _random_scene(rng, 40)
    previous = set()
    for thr in (0.2, 0.3, 0.5, 0.7, 0.9, 1.0):
        kept, _ = _nms(dets, NmsConfig(iou_threshold=thr))
        ids = {d.det_id for d in kept}
        assert previous <= ids
        previous = ids


def test_build_detection_set():
    heads = [det(1, (10, 0, 20, 12), 0.9), det(2, (10, 0, 20, 12), 0.8)]
    bodies = [det(1, (5, 0, 35, 80), 0.9), det(2, (6, 0, 36, 80), 0.7),
              det(3, (100, 0, 130, 80), 0.02)]
    ds = build_detection_set("s0", heads, bodies, NmsConfig())
    assert [d.det_id for d in ds.heads_post_nms] == [1]
    assert [d.det_id for d in ds.bodies_pre_nms] == [1, 2]  # floor keeps both
    assert [d.det_id for d in ds.bodies_post_nms] == [1]


@pytest.mark.parametrize("class_name", [HEAD, BODY])
def test_zero_area_boxes_dropped_at_floor(caplog, class_name):
    flat = det(1, (5, 5, 5, 15), 0.95)   # zero width
    line = det(2, (0, 8, 20, 8), 0.9)    # zero height
    good = det(3, (0, 0, 10, 10), 0.8)
    dets = [flat, line, good]
    with caplog.at_level("INFO", logger="crowdpost.nms"):
        kept, floored = _nms(dets, NmsConfig())
        ds = build_detection_set("s0", dets if class_name == HEAD else [],
                                 dets if class_name == BODY else [], NmsConfig())
    assert kept == [good]
    assert floored == [good]
    kept_of_class = ds.heads_post_nms if class_name == HEAD else ds.bodies_post_nms
    assert kept_of_class == (good,)
    assert caplog.text.count("dropped 2 zero-area detections") == 2


def test_zero_area_rule_matches_reference():
    rng = np.random.default_rng(41)
    cfg = NmsConfig(iou_threshold=0.5, score_floor=0.2)
    for _ in range(100):
        dets = _random_scene(rng, int(rng.integers(0, 30)))
        for i in rng.choice(len(dets), size=len(dets) // 4, replace=False):
            x1, y1, x2, y2 = dets[i].box
            box = (x1, y1, x1, y2) if rng.random() < 0.5 else (x1, y1, x2, y1)
            dets[i] = det(dets[i].det_id, box, dets[i].score)
        kept, floored = _nms(dets, cfg)
        records = [{"id": d.det_id, "box": d.box, "score": d.score}
                   for d in dets]
        ref_kept, ref_floored = nms_reference(records, cfg.iou_threshold, cfg.score_floor)
        assert [d.det_id for d in kept] == ref_kept
        assert [d.det_id for d in floored] == ref_floored


# ---------------------------------------------------------------------------
# many groups in one call, group by group against the reference

def _kernel_group(rng, big_ids):
    """One group's detections: forced score ties, repeated boxes, scores
    below the floor and zero-area boxes; ids beyond int64 when `big_ids`."""
    n = int(rng.choice([0, 1, 2, 5, 12, 40]))
    base = 2 ** 63 + 5 if big_ids else 0
    dets = []
    for i in rng.permutation(n).tolist():
        if dets and rng.random() < 0.2:
            box = list(dets[int(rng.integers(len(dets)))].box)
        else:
            x, y = rng.uniform(0, 80, size=2)
            w, h = rng.uniform(4, 30, size=2)
            box = [x, y, x + w, y + h]
        if rng.random() < 0.1:
            box[2] = box[0]  # zero width
        score = float(rng.choice([0.01, 0.1, 0.3, 0.5, 0.5, 0.7, 0.9, 0.9]))
        dets.append(det(base + i, box, score))
    return dets


def test_groups_equal_reference_group_by_group():
    rng = np.random.default_rng(63)
    for trial in range(60):
        cfg = NmsConfig(iou_threshold=float(rng.choice([0.3, 0.5, 1.0])),
                        score_floor=float(rng.choice([0.0, 0.1, 0.2])))
        groups = [_kernel_group(rng, big_ids=trial % 3 == 0 and rng.random() < 0.5)
                  for _ in range(int(rng.integers(1, 30)))]
        floored, kept = nms_groups(split_columns(groups), cfg)
        kept = floored.take(kept)
        for out in (kept, floored):
            assert out.scene_ids == [f"s{k}" for k in range(len(groups))]
        for k, dets in enumerate(groups):
            records = [{"id": d.det_id, "box": d.box, "score": d.score}
                       for d in dets]
            ref_kept, ref_floored = nms_reference(records, cfg.iou_threshold, cfg.score_floor)
            a, b = kept.det_offsets[k:k + 2]
            assert kept.det_ids[a:b] == ref_kept
            assert [tuple(box) for box in kept.boxes[a:b].tolist()] == \
                [r["box"] for i in ref_kept for r in records if r["id"] == i]
            a, b = floored.det_offsets[k:k + 2]
            assert floored.det_ids[a:b] == ref_floored
            assert _nms(dets, cfg) == (
                [d for i in ref_kept for d in dets if d.det_id == i],
                [d for d in dets if d.det_id in ref_floored])


def test_groups_larger_than_the_pair_budget(monkeypatch):
    # each group its own batch, and batches of many small groups
    rng = np.random.default_rng(8)
    groups = [_kernel_group(rng, big_ids=False) for _ in range(25)]
    cfg = NmsConfig()
    expected = nms_groups(split_columns(groups), cfg)
    for budget in (1, 30):
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        got = nms_groups(split_columns(groups), cfg)
        assert fields(got[0]) == fields(expected[0])
        assert got[1].tolist() == expected[1].tolist()


def test_build_detection_set_agrees_with_split_wide_nms_groups():
    # a simulated split: both classes, scenes of different sizes, scores
    # below the floor and crowds that NMS thins
    rows = generate_scenes(SimConfig(persons_per_image=8.0, crowd_cluster_prob=0.8, seed=3), 16)
    pairs = list(simulate_detections(rows, NoiseConfig(seed=4)).values())
    heads, bodies = ([[det(i, box, score) for i, (box, score) in enumerate(run)] for run in runs]
                     for runs in zip(*pairs))
    assert len({len(h) + len(b) for h, b in zip(heads, bodies)}) > 1
    cfg = NmsConfig()
    # one call per class over the whole split, scene k as group k
    heads_floor, heads_kept = nms_groups(split_columns(heads), cfg)
    bodies_floor, bodies_kept = nms_groups(split_columns(bodies), cfg)
    expected = zip(detection_lists(heads_floor.take(heads_kept)), detection_lists(bodies_floor),
                   detection_lists(bodies_floor.take(bodies_kept)))
    suppressed = 0
    for k, (heads_post, bodies_pre, bodies_post) in enumerate(expected):
        ds = build_detection_set(f"s{k}", heads[k], bodies[k], cfg)
        assert ds == (f"s{k}", tuple(heads_post), tuple(bodies_pre), tuple(bodies_post))
        suppressed += len(heads[k]) - len(heads_post) + len(bodies_pre) - len(bodies_post)
    assert suppressed > 0
