"""Release-gate acceptance checks, one test per criterion.

Every criterion prints a single PASS/FAIL line on the real stdout so the
verdicts stay visible under pytest's output capture.  Tolerances and runtime
budgets are pinned here; loosening them is not an acceptable fix for a
failure.
"""

import filecmp
import functools
import json
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from crowdpost.cli import main
from crowdpost.data_model import BODY, HEAD
from crowdpost.evaluator import FPPI_POINTS, EvalConfig, compute_mr2
from crowdpost.geometry import pairwise_ioh, pairwise_iou
from crowdpost.nms import NmsConfig, nms_groups
from crowdpost.pipeline import PostProcessConfig
from crowdpost.ratio import HeadBodyRatio, estimate_ratio
from crowdpost.rdm import TrainConfig, _Pass, bce_loss, train
from crowdpost.simulator import NoiseConfig, apply_ratio

from helpers import (box, box_pairs, curve_rows, det, detection_columns, model_scores, person,
                     postprocess_scene, scene, scene_columns, split_columns)
from oracles import ioh, iou, mr2_reference, nms_reference, raster_ioh, raster_iou
from test_cli import _chain
from test_evaluator import _random_instance, num_reasonable, oracle_gts
from test_pipeline import (B1_KEPT, B2_SUPPRESSED, BODIES_POST, BODIES_PRE,
                           H_BOTH, H_ORPHAN, H_SUPPRESSED_ONLY, _fuzz_scene,
                           hash_scorer, stub)
from test_rdm import _kink_free_case, _separable_pairs


_REPORTER = None


@pytest.fixture(autouse=True)
def _grab_reporter(request):
    # route verdict lines through pytest's own terminal writer so they stay
    # visible under output capture
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _verdict(num, title, text):
    line = f"[criterion {num}] {title}: {text}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line)


def criterion(num, title, budget=None):
    """Wrap a test so it reports PASS/FAIL and enforces its runtime budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, \
                        f"took {elapsed:.1f}s, budget {budget:.0f}s"
            except BaseException:
                _verdict(num, title, "FAIL")
                raise
            _verdict(num, title, f"PASS ({elapsed:.1f}s)")
        return inner
    return wrap


@criterion(1, "geometry matches the pixel-rasterization oracle", budget=5.0)
def test_criterion_1_geometry():
    assert pairwise_ioh(np.array([[0.0, 0.0, 10.0, 10.0]]),
                        np.array([[5.0, 0.0, 100.0, 100.0]]))[0, 0] == 0.5
    rng = np.random.default_rng(11)
    boxes_a, boxes_b = [], []
    for _ in range(1000):
        ax, ay, bx, by = (int(v) for v in rng.integers(0, 24, size=4))
        aw, ah, bw, bh = (int(v) for v in rng.integers(1, 16, size=4))
        boxes_a.append((ax, ay, ax + aw, ay + ah))
        boxes_b.append((bx, by, bx + bw, by + bh))
    # the kernels that run, on every pair of the sample, against the raster
    # oracle and bit for bit against the one-pair float oracles
    arr_a, arr_b = np.array(boxes_a, dtype=np.float64), np.array(boxes_b, dtype=np.float64)
    ious, iohs = pairwise_iou(arr_a, arr_b), pairwise_ioh(arr_a, arr_b)
    for k, (a, b) in enumerate(zip(boxes_a, boxes_b)):
        assert abs(ious[k, k] - raster_iou(a, b)) <= 1e-9
        assert abs(iohs[k, k] - raster_ioh(a, b)) <= 1e-9
        assert ious[k, k] == iou(a, b) and iohs[k, k] == ioh(a, b)
    for k in rng.integers(0, 1000, size=(50, 2)).tolist():
        assert ious[k[0], k[1]] == iou(boxes_a[k[0]], boxes_b[k[1]])
        assert iohs[k[0], k[1]] == ioh(boxes_a[k[0]], boxes_b[k[1]])


@criterion(2, "NMS identical to the quadratic argmax reference", budget=10.0)
def test_criterion_2_nms():
    rng = np.random.default_rng(22)
    tie_scores = (0.1, 0.3, 0.5, 0.5, 0.7, 0.9)
    # the cases of one config are the groups of one `nms_groups` call, as
    # `run` passes a split's scenes
    cases = defaultdict(list)
    for _ in range(500):
        n = int(rng.integers(0, 51))
        cfg = NmsConfig(iou_threshold=float(rng.choice([0.3, 0.5, 0.7])),
                        score_floor=float(rng.choice([0.0, 0.2])))
        dets, records = [], []
        for i in range(n):
            if dets and rng.random() < 0.15:
                corners = records[int(rng.integers(len(records)))]["box"]
            else:
                x, y = rng.uniform(0, 100, size=2)
                w, h = rng.uniform(5, 40, size=2)
                corners = (float(x), float(y), float(x + w), float(y + h))
            score = float(rng.choice(tie_scores)) if rng.random() < 0.5 \
                else float(rng.uniform(0.05, 1.0))
            dets.append(det(i, corners, score))
            records.append({"id": i, "box": corners, "score": score})
        cases[cfg].append((dets, records))
    assert sum(map(len, cases.values())) == 500
    for cfg, groups in cases.items():
        floored, kept = nms_groups(split_columns(dets for dets, _ in groups), cfg)
        kept = floored.take(kept)
        for k, (_, records) in enumerate(groups):
            ref_kept, ref_floored = nms_reference(records, cfg.iou_threshold,
                                                  cfg.score_floor)
            assert kept.det_ids[kept.det_offsets[k]:kept.det_offsets[k + 1]] == ref_kept
            assert (floored.det_ids[floored.det_offsets[k]:floored.det_offsets[k + 1]]
                    == ref_floored)


def _boundary_mr2(height, occ):
    """One fully detected reasonable person plus one undetected probe person;
    the score is 0 iff the probe is filtered out, 0.5 iff it counts."""
    anchor = person(0, (10, 0, 22, 10), (0, 0, 30, 100))
    probe = person(1, (210, 0, 222, 10), (200, 0, 230, height), occ=occ)
    s = scene([anchor, probe], width=400.0, height=400.0)
    dets = [("s0", det(0, (0, 0, 30, 100), 0.9))]
    return compute_mr2(detection_columns(dets), scene_columns([s]), EvalConfig()).mr2


@criterion(3, "log-average miss rate equals the brute-force reference",
           budget=10.0)
def test_criterion_3_evaluator():
    cfg = EvalConfig()

    # fixed points of the metric
    persons = [person(i, (10, 0, 22, 10), (0, 0, 30, 100)) for i in range(2)]
    perfect_scenes = [scene(persons[:1], scene_id="a", width=400, height=400),
                      scene(persons, scene_id="b", width=400, height=400)]
    perfect = [("a", det(0, (0, 0, 30, 100), 0.9)),
               ("b", det(0, (0, 0, 30, 100), 0.9)),
               ("b", det(1, (0, 0, 30, 100), 0.9))]
    perfect_columns = scene_columns(perfect_scenes)
    assert compute_mr2(detection_columns(perfect), perfect_columns, cfg).mr2 == 0.0
    empty = compute_mr2(detection_columns([]), perfect_columns, cfg)
    assert empty.mr2 == 1.0 and curve_rows(empty) == ()

    # filter boundaries: 50 px and 35% occlusion are the first excluded edge
    assert _boundary_mr2(height=49, occ=0.0) == 0.0
    assert _boundary_mr2(height=50, occ=0.0) == 0.5
    assert _boundary_mr2(height=100, occ=0.34) == 0.5
    assert _boundary_mr2(height=100, occ=0.35) == 0.0

    rng = np.random.default_rng(33)
    checked = 0
    while checked < 100:
        scenes, images, dets = _random_instance(rng, int(rng.integers(1, 11)))
        if num_reasonable(scenes) == 0:
            continue
        checked += 1
        result = compute_mr2(detection_columns(dets), scene_columns(scenes), cfg)
        oracle_images = [{"gts": oracle_gts(s), "dets": image}
                         for s, image in zip(scenes, images)]
        ref_mr2, ref_curve = mr2_reference(oracle_images, FPPI_POINTS,
                                           cfg.iou_match_threshold)
        assert result.mr2 == ref_mr2
        assert list(curve_rows(result)) == ref_curve


@criterion(4, "ratio fit recovers generating parameters", budget=10.0)
def test_criterion_4_ratio():
    # noise-free: exact recovery of dyadic-rational parameters
    for true in (HeadBodyRatio(3.0, 8.0, 0.5, 3.5),
                 HeadBodyRatio(2.75, 7.5, -0.25, 3.0)):
        rng = np.random.default_rng(44)
        pairs = []
        for _ in range(50):
            x, y = (int(v) for v in rng.integers(0, 200, size=2))
            w = int(rng.integers(4, 33))
            head = box(x, y, x + w, y + w)
            pairs.append((head, apply_ratio(head, true)))
        assert estimate_ratio(*box_pairs(pairs)) == true

    # 10% gross outliers: within 5% relative error on every parameter
    true = HeadBodyRatio(3.0, 8.0, 0.0, 3.5)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(100):
            x, y = rng.uniform(0, 300, size=2)
            w = rng.uniform(6, 30)
            head = box(x, y, x + w, y + w)
            body = apply_ratio(head, true)
            if i % 10 == 0:
                body = box(x - 40, y - 40, x + 5 * w, y + 20 * w)
            pairs.append((head, body))
        got = estimate_ratio(*box_pairs(pairs))
        assert abs(got.alpha_w - true.alpha_w) <= 0.05 * abs(true.alpha_w)
        assert abs(got.alpha_h - true.alpha_h) <= 0.05 * abs(true.alpha_h)
        assert abs(got.delta_x - true.delta_x) <= 0.05 * max(abs(true.delta_x), 1.0)
        assert abs(got.delta_y - true.delta_y) <= 0.05 * abs(true.delta_y)


@criterion(5, "relation model gradients, fit and determinism", budget=60.0)
def test_criterion_5_rdm():
    # central differences on a 4-unit model, away from rectifier kinks
    model, x, y = _kink_free_case(seed=5)
    grads = _Pass(model, len(x)).gradients(x, y)
    eps = 1e-6
    worst = 0.0
    for param, grad in zip(model.params(), grads):
        flat = param.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = bce_loss(model_scores(model, x), y)
            flat[i] = orig - eps
            down = bce_loss(model_scores(model, x), y)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            a = grad.ravel()[i]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    assert worst < 1e-5

    feats, labels = _separable_pairs()
    cfg = TrainConfig(epochs=100, seed=0, hidden_dim=16)
    fitted, trace = train(feats, labels, cfg)
    accuracy = np.mean((model_scores(fitted, feats) > 0.5) == (labels == 1.0))
    assert accuracy >= 0.99
    for earlier, later in zip(trace[:5], trace[1:6]):
        assert later <= earlier + 1e-12

    again, trace_again = train(feats, labels, cfg)
    assert trace == trace_again
    for pa, pb in zip(fitted.params(), again.params()):
        assert np.array_equal(pa, pb)


@criterion(6, "post-process branch semantics and fuzz invariants", budget=30.0)
def test_criterion_6_pipeline():
    cfg = PostProcessConfig()

    # no-op: confident first-round match leaves everything untouched
    out = postprocess_scene([H_BOTH], BODIES_PRE, BODIES_POST, stub(0.95), cfg)
    assert (out.final_heads, out.final_bodies) == ([H_BOTH], BODIES_POST)
    assert out.recalled_body_ids == [] and out.removed_head_ids == []

    # recall: second round clears the high threshold, body comes back
    out = postprocess_scene([H_SUPPRESSED_ONLY], BODIES_PRE, BODIES_POST,
                            stub(0.95), cfg)
    assert out.final_heads == [H_SUPPRESSED_ONLY]
    assert sorted(d.det_id for d in out.final_bodies) == [1, 2]
    assert out.recalled_body_ids == [2] and out.removed_head_ids == []

    # dead zone: second round lands between the thresholds, keep the head
    out = postprocess_scene([H_SUPPRESSED_ONLY], BODIES_PRE, BODIES_POST,
                            stub(0.5), cfg)
    assert (out.final_heads, out.final_bodies) == ([H_SUPPRESSED_ONLY],
                                                   BODIES_POST)
    assert out.recalled_body_ids == [] and out.removed_head_ids == []

    # remove: low-scoring or partnerless heads are dropped
    out = postprocess_scene([H_BOTH], BODIES_PRE, BODIES_POST, stub(0.05), cfg)
    assert (out.final_heads, out.removed_head_ids) == ([], [1])
    assert out.final_bodies == BODIES_POST
    out = postprocess_scene([H_ORPHAN], BODIES_PRE, BODIES_POST, stub(0.95), cfg)
    assert (out.final_heads, out.removed_head_ids) == ([], [2])

    rng = np.random.default_rng(66)
    for _ in range(1000):
        heads, pre, post = _fuzz_scene(rng)
        out = postprocess_scene(heads, pre, post, hash_scorer, cfg)
        assert {d.det_id for d in post} <= {d.det_id for d in out.final_bodies}
        assert {d.det_id for d in out.final_heads} <= {d.det_id for d in heads}

    for _ in range(100):
        heads, pre, post = _fuzz_scene(rng)
        base = postprocess_scene(heads, pre, post, hash_scorer, cfg)
        perm = [heads[i] for i in rng.permutation(len(heads))]
        moved = postprocess_scene(perm, pre, post, hash_scorer, cfg)
        assert {d.det_id for d in base.final_heads} == \
            {d.det_id for d in moved.final_heads}
        assert {d.det_id for d in base.final_bodies} == \
            {d.det_id for d in moved.final_bodies}


def _direction_one_seed(seed, base, cluster=0.65):
    """Train on one split and post-process a disjoint one through the
    commands, as the README does, in files under `base`; return per class
    the (baseline, with-model) MR-2 that `eval` writes."""
    def simulate(split, num_scenes, split_seed):
        assert main(["simulate", "--out-scenes", f"{base}/{split}_scenes.jsonl",
                     "--out-dets", f"{base}/{split}_dets.jsonl",
                     "--num-scenes", str(num_scenes), "--seed", str(split_seed),
                     "--noise-seed", str(split_seed), "--cluster-prob", repr(cluster)]) == 0

    simulate("train", 60, seed * 1000 + 500)
    assert main(["train-rdm", "--scenes", f"{base}/train_scenes.jsonl",
                 "--dets", f"{base}/train_dets.jsonl", "--out-model", f"{base}/model.json",
                 "--out-loss", f"{base}/loss.csv", "--epochs", "150",
                 "--learning-rate", "0.05", "--seed", str(seed)]) == 0
    simulate("test", 200, seed * 1000)
    assert main(["run", "--dets", f"{base}/test_dets.jsonl", "--model", f"{base}/model.json",
                 "--out-dir", f"{base}/out"]) == 0
    result = {}
    for cls in (HEAD, BODY):
        mr2 = []
        for variant in ("baseline", "rdm"):
            prefix = f"{base}/eval/{variant}_{cls}"
            assert main(["eval", "--results", f"{base}/out/{variant}.jsonl",
                         "--scenes", f"{base}/test_scenes.jsonl", "--class", cls,
                         "--out-prefix", prefix]) == 0
            mr2.append(json.loads(Path(prefix + ".eval.json").read_text())["mr2"])
        result[cls] = tuple(mr2)
    return result


@criterion(7, "trained model lowers both miss rates on crowded scenes",
           budget=600.0)
def test_criterion_7_direction():
    assert NoiseConfig().head_fp_rate > 0  # head improvement is conditional on FPs
    wins = {HEAD: 0, BODY: 0}
    for seed in range(20):
        with tempfile.TemporaryDirectory() as base:
            result = _direction_one_seed(seed, base)
        for cls in (HEAD, BODY):
            baseline, improved = result[cls]
            wins[cls] += improved < baseline
    assert wins[BODY] >= 16, f"body wins {wins[BODY]}/20"
    assert wins[HEAD] >= 16, f"head wins {wins[HEAD]}/20"


@criterion(8, "tool chain is byte-identical across reruns", budget=120.0)
def test_criterion_8_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        first = _chain(Path(tmp) / "first")
        second = _chain(Path(tmp) / "second")
        rel_first = sorted(p.relative_to(first)
                           for p in first.rglob("*") if p.is_file())
        rel_second = sorted(p.relative_to(second)
                            for p in second.rglob("*") if p.is_file())
        assert rel_first == rel_second and rel_first
        for rel in rel_first:
            assert filecmp.cmp(first / rel, second / rel, shallow=False), rel
