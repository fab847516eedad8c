import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from crowdpost import geometry
from crowdpost.data_model import BODY
from crowdpost.evaluator import (FPPI_POINTS, EvalConfig, EvalResult, compute_mr2,
                                 greedy_assign, write_curve_csv, write_curve_svg,
                                 write_result_json)

from helpers import curve_rows, det, detection_columns, person, scene, scene_columns
from oracles import (FP, IGNORED, TP, iou, log_average, match_outcomes, mr2_reference,
                     reasonable_ignore)


def _person_at(pid, x, y, w=30.0, h=100.0, occ=0.0, ignore=False):
    head = (x + 0.3 * w, y, x + 0.7 * w, y + 0.2 * h)
    return person(pid, head, (x, y, x + w, y + h), ignore=ignore, occ=occ)


def _reasonable_ignore(p):
    return reasonable_ignore({"body": p.body, "occlusion": p.occlusion_ratio,
                              "ignore": p.ignore})


def oracle_gts(s, class_name=BODY):
    """A scene's ground truth as the oracles take it, flagged by the
    Reasonable rule."""
    return [{"box": getattr(p, class_name), "ignore": _reasonable_ignore(p)}
            for p in s.persons]


def num_reasonable(scenes):
    return sum(not _reasonable_ignore(p) for s in scenes for p in s.persons)


def _oracle_dets(dets):
    return [{"id": d.det_id, "box": d.box, "score": d.score} for d in dets]


def _outcomes(dets, s, cfg=EvalConfig()):
    """The oracle's (id, outcome) per detection of one scene, in ranked order."""
    return match_outcomes(_oracle_dets(dets), oracle_gts(s, cfg.class_under_test),
                          cfg.iou_match_threshold)


def _plain(result):
    """The fields of an `EvalResult`, its curve as tuples."""
    return result.mr2, curve_rows(result), result.num_gt, result.num_images


def _assert_mr2_matches(dets, s, cfg=EvalConfig()):
    """`compute_mr2` on one scene gives the result of the oracle's outcomes."""
    pairs = [(s.scene_id, d) for d in dets]
    assert (_plain(compute_mr2(detection_columns(pairs), scene_columns([s]), cfg))
            == _plain(_mr2_scene_by_scene(pairs, [s], cfg)))


def test_default_fppi_points():
    expected = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))
    assert FPPI_POINTS == expected
    assert len(FPPI_POINTS) == 9


def test_reasonable_filter_boundaries():
    s = scene([
        _person_at(1, 0, 0, h=49.0),            # too short
        _person_at(2, 40, 0, h=50.0, occ=0.34),  # exactly at both limits: kept
        _person_at(3, 80, 0, h=120.0, occ=0.35),  # occlusion at limit: ignored
    ])
    flags = {p.person_id: _reasonable_ignore(p) for p in s.persons}
    assert flags == {1: True, 2: False, 3: True}
    assert compute_mr2(detection_columns([]), scene_columns([s]), EvalConfig()).num_gt == 1
    # flagged, never deleted: a detection on a filtered person is absorbed
    dets = [det(p.person_id, p.body, 0.9) for p in s.persons]
    assert _outcomes(dets, s) == [(1, IGNORED), (2, TP), (3, IGNORED)]
    _assert_mr2_matches(dets, s)


def test_reasonable_filter_keeps_existing_ignores():
    s = scene([_person_at(1, 0, 0, ignore=True)])
    assert _reasonable_ignore(s.persons[0])
    with pytest.raises(ValueError, match="no ground truth left"):
        compute_mr2(detection_columns([]), scene_columns([s]), EvalConfig())
    # next to a counted person, the flagged one still absorbs detections
    s = scene([_person_at(1, 0, 0, ignore=True), _person_at(2, 60, 0)])
    dets = [det(1, (0, 0, 30, 100), 0.9), det(2, (1, 0, 31, 100), 0.8)]
    assert _outcomes(dets, s) == [(1, IGNORED), (2, IGNORED)]
    assert compute_mr2(detection_columns([]), scene_columns([s]), EvalConfig()).num_gt == 1
    _assert_mr2_matches(dets, s)


def test_compute_mr2_filters_like_reasonable_filter():
    # compute_mr2 splits persons itself; it must count and match exactly as
    # the oracle's Reasonable rule and greedy match, also at the filter limits
    s = scene([
        _person_at(1, 0, 0, h=49.0),
        _person_at(2, 40, 0, h=50.0, occ=0.34),
        _person_at(3, 80, 0, h=120.0, occ=0.35),
        _person_at(4, 120, 0, ignore=True),
        _person_at(5, 160, 0, h=60.0),
    ])
    dets = [det(k, (x, 0, x + 30, h), score) for k, (x, h, score) in
            enumerate([(0, 49, 0.9), (40, 50, 0.8), (80, 120, 0.7), (120, 100, 0.6),
                       (160, 60, 0.5), (165, 60, 0.4), (0, 49, 0.3)])]
    cfg = EvalConfig()
    outcomes = _outcomes(dets, s, cfg)
    assert [o for _, o in outcomes] == [IGNORED, TP, IGNORED, IGNORED, TP, FP, IGNORED]
    result = compute_mr2(detection_columns([("s0", d) for d in dets]), scene_columns([s]), cfg)
    assert result.num_gt == 2
    tp = fp = 0
    expected = []
    for d, (_, outcome) in zip(sorted(dets, key=lambda d: -d.score), outcomes):
        tp += outcome == TP
        fp += outcome == FP
        expected.append((d.score, float(fp), 1.0 - tp / 2))
    assert list(curve_rows(result)) == expected


def test_match_single_tp():
    s = scene([_person_at(1, 10, 10)])
    d = det(1, (10, 10, 40, 110), 0.9)
    assert _outcomes([d], s) == [(1, TP)]
    _assert_mr2_matches([d], s)


def test_match_second_det_on_same_gt_is_fp():
    s = scene([_person_at(1, 10, 10)])
    dets = [det(1, (10, 10, 40, 110), 0.9), det(2, (11, 10, 41, 110), 0.8)]
    assert _outcomes(dets, s) == [(1, TP), (2, FP)]
    _assert_mr2_matches(dets, s)


def test_match_on_ignored_gt_absorbs():
    # a counted person far away keeps the scene evaluable
    s = scene([_person_at(1, 10, 10, ignore=True), _person_at(2, 150, 10)])
    dets = [det(1, (10, 10, 40, 110), 0.9), det(2, (11, 10, 41, 110), 0.8)]
    # both land on the ignored person; neither is a false positive
    assert _outcomes(dets, s) == [(1, IGNORED), (2, IGNORED)]
    _assert_mr2_matches(dets, s)


def test_match_iou_threshold_boundary():
    s = scene([_person_at(1, 0, 0, w=20, h=100)])
    exactly_half = det(1, (0, 0, 20, 50), 0.9)  # IoU exactly 0.5
    assert _outcomes([exactly_half], s) == [(1, TP)]
    _assert_mr2_matches([exactly_half], s)
    below = det(2, (0, 0, 20, 49), 0.9)
    assert _outcomes([below], s) == [(2, FP)]
    _assert_mr2_matches([below], s)
    # an ignored person absorbs at exactly the threshold too
    s = scene([_person_at(1, 0, 0, w=20, h=100, ignore=True), _person_at(2, 100, 0)])
    assert _outcomes([exactly_half], s) == [(1, IGNORED)]
    _assert_mr2_matches([exactly_half], s)


def test_match_prefers_max_iou_not_score_order():
    a = _person_at(1, 0, 0, w=30)
    b = _person_at(2, 20, 0, w=30)
    s = scene([a, b])
    d = det(1, (21, 0, 51, 100), 0.9)  # IoU higher with person 2
    assert _outcomes([d], s) == [(1, TP)]
    _assert_mr2_matches([d], s)
    # person 2 is consumed; an equal second det can only take person 1 if it overlaps
    d2 = det(2, (21, 0, 51, 100), 0.8)
    assert _outcomes([d, d2], s) == [(1, TP), (2, FP)]
    _assert_mr2_matches([d, d2], s)


def test_greedy_assign_answers_per_detection_in_person_rows():
    # scene "b" lists an ignored person before a matchable one; its
    # detections come first although "a" is the first scene
    a = scene([_person_at(1, 100, 0)], scene_id="a")
    ignored, matchable = _person_at(1, 0, 0, w=40, ignore=True), _person_at(2, 24, 0, w=40)
    b = scene([ignored, matchable], scene_id="b")
    both = det(1, (11, 0, 51, 100), 0.9)
    assert iou(both.box, ignored.body) > iou(both.box, matchable.body) >= 0.5
    only_ignored = det(2, (0, 0, 22, 100), 0.8)
    assert iou(only_ignored.box, matchable.body) == 0.0
    pairs = [("b", both), ("b", only_ignored), ("a", det(1, (100, 0, 130, 100), 0.7)),
             ("a", det(2, (150, 100, 180, 200), 0.95))]
    scenes = scene_columns([a, b])
    rows, absorbed = greedy_assign(detection_columns(pairs), np.array([1, 1, 0, 0]),
                                   scenes.bodies, scenes.person_offsets, ~scenes.ignore, 0.5)
    # the matchable person of "b" is row 2 of the persons
    assert rows.tolist() == [2, -1, 0, -1]
    assert absorbed.tolist() == [False, True, False, False]
    assert _outcomes([both, only_ignored], b) == [(1, TP), (2, IGNORED)]
    _assert_mr2_matches([both, only_ignored], b)


def test_perfect_detector_scores_zero():
    scenes = [scene([_person_at(1, 10, 10), _person_at(2, 60, 10)], scene_id="a"),
              scene([_person_at(1, 10, 10)], scene_id="b")]
    dets = []
    for s in scenes:
        for p in s.persons:
            dets.append((s.scene_id, det(p.person_id, p.body, 1.0)))
    result = compute_mr2(detection_columns(dets), scene_columns(scenes), EvalConfig())
    assert result.mr2 == 0.0
    assert result.num_gt == 3
    assert result.num_images == 2


def test_empty_detector_scores_one():
    scenes = [scene([_person_at(1, 10, 10)])]
    result = compute_mr2(detection_columns([]), scene_columns(scenes), EvalConfig())
    assert result.mr2 == 1.0
    assert curve_rows(result) == ()


def test_zero_gt_rejected():
    scenes = [scene([_person_at(1, 0, 0, h=30)])]  # filtered out
    with pytest.raises(ValueError, match="no ground truth left"):
        compute_mr2(detection_columns([]), scene_columns(scenes), EvalConfig())


def test_unknown_scene_rejected():
    scenes = [scene([_person_at(1, 10, 10)], scene_id="a")]
    d = det(1, (10, 10, 40, 110), 0.9)
    with pytest.raises(ValueError, match="no ground truth"):
        compute_mr2(detection_columns([("zz", d)]), scene_columns(scenes), EvalConfig())


def _worked_example():
    scenes = [scene([_person_at(1, 10, 10)], scene_id=f"s{i}") for i in range(4)]
    dets = [
        ("s0", det(1, (10, 10, 40, 110), 0.9)),   # TP
        ("s0", det(2, (150, 10, 180, 110), 0.85)),  # FP
        ("s1", det(1, (10, 10, 40, 110), 0.8)),   # TP
        ("s2", det(1, (10, 10, 40, 110), 0.7)),   # TP
        ("s1", det(2, (150, 10, 180, 110), 0.6)),   # FP
    ]
    return scenes, dets


def test_worked_example_curve_and_mr2():
    scenes, dets = _worked_example()
    result = compute_mr2(detection_columns(dets), scene_columns(scenes), EvalConfig())
    assert curve_rows(result) == (
        (0.9, 0.0, 0.75),
        (0.85, 0.25, 0.75),
        (0.8, 0.25, 0.5),
        (0.7, 0.25, 0.25),
        (0.6, 0.5, 0.25),
    )
    # six reference points sample miss 0.75, three sample 0.25
    expected = math.exp((6 * math.log(0.75) + 3 * math.log(0.25)) / 9)
    assert abs(result.mr2 - expected) < 1e-12
    assert abs(result.mr2 - 0.520020955762976) < 1e-12  # frozen pin


def _random_instance(rng, n_scenes):
    scenes, images, dets = [], [], []
    for i in range(n_scenes):
        persons = []
        gts = []
        for pid in range(rng.integers(0, 5)):
            x = float(rng.uniform(0, 150))
            y = float(rng.uniform(0, 60))
            h = float(rng.uniform(30, 130))
            w = h * 0.4
            ignore = bool(rng.random() < 0.25)
            occ = float(rng.uniform(0, 0.6))
            persons.append(_person_at(pid, x, y, w=w, h=h, occ=occ, ignore=ignore))
        s = scene(persons, scene_id=f"s{i}", width=400, height=400)
        scenes.append(s)
        image = []
        n_dets = int(rng.integers(0, 20))
        for j in range(n_dets):
            if persons and rng.random() < 0.7:
                base = persons[rng.integers(0, len(persons))].body
                jit = rng.normal(scale=6.0, size=4)
                box = (base[0] + jit[0], base[1] + jit[1],
                       max(base[0] + jit[0] + 1, base[2] + jit[2]),
                       max(base[1] + jit[1] + 1, base[3] + jit[3]))
            else:
                x, y = rng.uniform(0, 300, size=2)
                w, h = rng.uniform(10, 80, size=2)
                box = (x, y, x + w, y + h)
            score = float(rng.choice([0.2, 0.4, 0.6, 0.6, 0.8, 0.95]))
            dets.append((f"s{i}", det(j, box, score)))
            image.append({"id": j, "box": box, "score": score})
        images.append(image)
    return scenes, images, dets


def test_matches_brute_force_reference():
    rng = np.random.default_rng(314)
    cfg = EvalConfig()
    for _ in range(30):
        scenes, images, dets = _random_instance(rng, int(rng.integers(1, 7)))
        if num_reasonable(scenes) == 0:
            continue
        result = compute_mr2(detection_columns(dets), scene_columns(scenes), cfg)
        oracle_images = [{"gts": oracle_gts(s), "dets": image}
                         for s, image in zip(scenes, images)]
        ref_mr2, ref_curve = mr2_reference(oracle_images, FPPI_POINTS,
                                           cfg.iou_match_threshold)
        assert result.mr2 == ref_mr2
        assert list(curve_rows(result)) == ref_curve


def _mr2_scene_by_scene(dets, scenes, cfg):
    """compute_mr2 composed from the oracle's greedy match, one scene at a
    time, and its log-average."""
    pool, num_gt = [], 0
    for s in scenes:
        num_gt += sum(not g["ignore"] for g in oracle_gts(s, cfg.class_under_test))
        scene_dets = [d for scene_id, d in dets if scene_id == s.scene_id]
        score = {d.det_id: d.score for d in scene_dets}
        pool += [(score[i], o) for i, o in _outcomes(scene_dets, s, cfg) if o != IGNORED]
    curve = []
    for t in sorted({d.score for _, d in dets}, reverse=True):
        tp = sum(o == TP for score, o in pool if score >= t)
        fp = sum(o == FP for score, o in pool if score >= t)
        curve.append((t, fp / len(scenes), 1.0 - tp / num_gt))
    return EvalResult(log_average(curve, FPPI_POINTS), np.array(curve).reshape(-1, 3), num_gt,
                      len(scenes))


def _mixed_split(rng, class_name):
    """Forty scenes: mostly small, some without persons or detections, and a
    few crowds whose detection/ground-truth pairs exceed the pair budget."""
    scenes, dets = [], []
    for i in range(40):
        crowd = i % 13 == 5
        persons = []
        for pid in range(int(rng.integers(55, 70) if crowd else rng.integers(0, 5))):
            h = float(rng.uniform(30, 130))
            persons.append(_person_at(pid, float(rng.uniform(0, 400 - 0.4 * h)),
                                      float(rng.uniform(0, 400 - h)), w=0.4 * h, h=h,
                                      occ=float(rng.uniform(0, 0.6)),
                                      ignore=bool(rng.random() < 0.2)))
        scenes.append(scene(persons, scene_id=f"s{i}", width=400, height=400))
        for j in range(int(rng.integers(70, 90) if crowd else rng.choice([0, 1, 3, 8]))):
            if persons and rng.random() < 0.7:
                base = getattr(persons[rng.integers(0, len(persons))], class_name)
                jit = rng.normal(scale=3.0, size=4)
                box = (base[0] + jit[0], base[1] + jit[1],
                       max(base[0] + jit[0] + 1, base[2] + jit[2]),
                       max(base[1] + jit[1] + 1, base[3] + jit[3]))
            else:
                x, y = rng.uniform(0, 300, size=2)
                box = (x, y, x + rng.uniform(5, 80), y + rng.uniform(5, 80))
            score = float(rng.choice([0.2, 0.4, 0.6, 0.8, 0.95, rng.uniform()]))
            dets.append((f"s{i}", det(j, box, score)))
        if i % 4 == 1:
            # a box over the whole image, which any non-zero padding box would match
            dets.append((f"s{i}", det(999, (0, 0, 400, 400), 0.5)))
    return scenes, dets


@pytest.mark.parametrize("budget", [None, 60, 1])
@pytest.mark.parametrize("class_name, thr", [("body", 0.5), ("head", 0.5), ("body", 0.3)])
def test_batched_matching_equals_scene_by_scene(monkeypatch, budget, class_name, thr):
    if budget is not None:
        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
    rng = np.random.default_rng(97)
    cfg = EvalConfig(iou_match_threshold=thr, class_under_test=class_name)
    for _ in range(3):
        scenes, dets = _mixed_split(rng, class_name)
        sizes = {sid: 0 for sid in (s.scene_id for s in scenes)}
        for sid, _ in dets:
            sizes[sid] += 1
        # some crowd outgrows the budget alone; some scenes lack persons or detections
        assert any(sizes[s.scene_id] * len(s.persons) > geometry.PAIR_BUDGET for s in scenes)
        assert any(not s.persons for s in scenes) and 0 in sizes.values()
        assert (_plain(compute_mr2(detection_columns(dets), scene_columns(scenes), cfg))
                == _plain(_mr2_scene_by_scene(dets, scenes, cfg)))


def test_fp_injection_never_improves_mr2():
    rng = np.random.default_rng(2718)
    cfg = EvalConfig()
    for _ in range(10):
        scenes, _, dets = _random_instance(rng, 4)
        if num_reasonable(scenes) == 0:
            continue
        base = compute_mr2(detection_columns(dets), scene_columns(scenes), cfg).mr2
        junk = [(scenes[0].scene_id, det(1000 + j, (350 + 2 * j, 350, 380 + 2 * j, 390),
                                         float(rng.uniform(0.05, 1))))
                for j in range(5)]
        worse = compute_mr2(detection_columns(dets + junk), scene_columns(scenes), cfg).mr2
        assert worse >= base
        assert base <= 1.0


def test_ignored_only_score_levels_still_swept():
    scenes = [scene([_person_at(1, 10, 10, ignore=True)], scene_id="a"),
              scene([_person_at(1, 10, 10)], scene_id="b")]
    dets = [("a", det(1, (10, 10, 40, 110), 0.9)),   # absorbed
            ("b", det(1, (10, 10, 40, 110), 0.95))]  # TP
    result = compute_mr2(detection_columns(dets), scene_columns(scenes), EvalConfig())
    assert result.mr2 == 0.0
    assert result.num_gt == 1
    # the absorbed det's score level still appears as a threshold
    assert [row[0] for row in curve_rows(result)] == [0.95, 0.9]
    assert curve_rows(result)[1] == (0.9, 0.0, 0.0)


def test_log_average_empty_curve():
    assert log_average([], FPPI_POINTS) == 1.0
    result = compute_mr2(detection_columns([]), scene_columns([scene([_person_at(1, 10, 10)])]),
                         EvalConfig())
    assert curve_rows(result) == () and result.mr2 == 1.0


def test_log_average_floor():
    # one TP and one FP at 0.9 over 200 images: a single curve point at
    # FPPI 0.005 and miss rate 0
    scenes = [scene([_person_at(1, 10, 10)] if i == 0 else [], scene_id=f"s{i}")
              for i in range(200)]
    dets = [("s0", det(1, (10, 10, 40, 110), 0.9)), ("s0", det(2, (150, 10, 180, 110), 0.9))]
    result = compute_mr2(detection_columns(dets), scene_columns(scenes), EvalConfig())
    assert curve_rows(result) == ((0.9, 0.005, 0.0),)
    # all nine references eligible, all sampled at zero miss: reported as 0
    assert log_average(result.curve, FPPI_POINTS) == 0.0
    assert result.mr2 == 0.0


def test_write_result_json(tmp_path):
    result = EvalResult(mr2=0.25, curve=np.array([(0.9, 0.0, 0.25)]), num_gt=4, num_images=2)
    path = tmp_path / "r.json"
    write_result_json(result, path, name="baseline", class_name=BODY)
    obj = json.loads(path.read_text())
    assert obj == {"name": "baseline", "class": "body", "mr2": 0.25,
                   "num_gt": 4, "num_images": 2}


def test_write_curve_csv(tmp_path):
    result = EvalResult(mr2=0.25, curve=np.array([(0.9, 0.0, 0.75), (0.8, 0.25, 0.5)]),
                        num_gt=4, num_images=2)
    path = tmp_path / "c.csv"
    write_curve_csv(result, path)
    assert path.read_text() == ("threshold,fppi,miss_rate\n"
                                "0.9,0.0,0.75\n0.8,0.25,0.5\n")


def test_write_curve_svg(tmp_path):
    result = EvalResult(mr2=0.52, curve=np.array([(0.9, 0.01, 0.75), (0.8, 0.25, 0.5),
                                                  (0.7, 0.9, 0.25)]),
                        num_gt=4, num_images=2)
    path = tmp_path / "plot.svg"
    write_curve_svg("baseline", result, path)
    text = path.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg")
    assert "baseline 52.00%" in text
    assert "polyline" in text

    # markup characters in the name are escaped and read back unchanged
    write_curve_svg("R&D <v2> a>b", result, path)
    texts = [el.text for el in ET.parse(path).getroot().iter() if el.tag.endswith("text")]
    assert "R&D <v2> a>b 52.00%" in texts


def test_write_curve_svg_deterministic(tmp_path):
    result = EvalResult(mr2=0.3, curve=np.array([(0.9, 0.02, 0.6), (0.5, 0.4, 0.3)]),
                        num_gt=3, num_images=2)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_curve_svg("m", result, a)
    write_curve_svg("m", result, b)
    assert a.read_bytes() == b.read_bytes()


def _polyline_reference(curve) -> str:
    """The plotted points, one Python float at a time: each point's log10 is
    clamped to the plot, the miss rate first raised to the plot's floor, the
    decade of the smallest positive miss rate within 1e-4..1e-1."""
    x_lo, x_hi = math.log10(FPPI_POINTS[0]), math.log10(FPPI_POINTS[-1])
    y_lo = -1.0
    for _t, _f, miss in curve:
        if miss > 0.0:
            y_lo = min(y_lo, math.floor(math.log10(miss)))
    y_lo = max(y_lo, -4.0)
    points = []
    for _t, fppi, miss in sorted(curve, key=lambda c: c[1]):
        if fppi > 0.0:
            x = min(max(math.log10(fppi), x_lo), x_hi)
            y = min(max(math.log10(max(miss, 10.0 ** y_lo)), y_lo), 0.0)
            # the plot area spans 546 x 400 pixels from (70, 24)
            points.append(f"{70 + (x - x_lo) / (x_hi - x_lo) * 546:.2f},"
                          f"{24 + (0.0 - y) / (0.0 - y_lo) * 400:.2f}")
    return " ".join(points)


@pytest.mark.parametrize("floor", [1e-2, 1e-6])
def test_svg_points_equal_the_per_point_reference(tmp_path, floor):
    # FPPI of 0 (not drawn), below and above the plotted range, ties in FPPI
    # kept in curve order, and miss rates of 0 and below the plot's floor
    rng = np.random.default_rng(3)
    fppi = np.concatenate([[0.0, 0.0, 1e-4, 5.0, 0.5, 0.5],
                           10.0 ** rng.uniform(-3.0, 1.0, 300)])
    miss = np.concatenate([[0.5, 0.0, 0.9, floor, 0.0, 0.3],
                           rng.choice([0.0, floor, 1.0], 300) * rng.uniform(0.5, 1.0, 300)])
    curve = tuple(zip(np.linspace(1.0, 0.0, len(fppi)).tolist(), fppi.tolist(), miss.tolist()))
    path = tmp_path / "plot.svg"
    write_curve_svg("m", EvalResult(mr2=0.3, curve=np.array(curve), num_gt=5, num_images=2),
                    path)
    polyline, = [el for el in ET.parse(path).getroot().iter() if el.tag.endswith("polyline")]
    assert polyline.get("points") == _polyline_reference(curve)
