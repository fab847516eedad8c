import numpy as np
import pytest

from crowdpost.nms import NmsConfig
from crowdpost.records import BBox, PersonInstance, Scene, area, nms
from crowdpost.simulator import (NoiseConfig, SimConfig, _overlap_partners, generate_scene,
                                 generate_scenes, simulate_detections,
                                 simulate_detector)

from oracles import intersection_area, ioh, iou, union_area_reference


SMALL = SimConfig(image_size=(400.0, 300.0), persons_per_image=8.0,
                  median_height=60.0, seed=3)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(image_size=(0, 100))
    with pytest.raises(ValueError):
        SimConfig(crowd_cluster_prob=1.5)
    with pytest.raises(ValueError):
        SimConfig(persons_per_image=-1)
    with pytest.raises(ValueError):
        NoiseConfig(detect_prob=1.2)
    with pytest.raises(ValueError):
        NoiseConfig(head_fp_rate=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(crowd_attraction=1.0)


def test_config_converts_json_lists():
    # a config file gives tuples as JSON lists
    from_lists = SimConfig(image_size=[400, 300])
    assert from_lists == SimConfig(image_size=(400.0, 300.0))
    assert generate_scene(from_lists, 0) == generate_scene(
        SimConfig(image_size=(400.0, 300.0)), 0)


def test_generation_deterministic():
    a = generate_scenes(SMALL, 5)
    b = generate_scenes(SMALL, 5)
    assert a == b


def test_scene_ids_sequential():
    scenes = generate_scenes(SMALL, 3)
    assert [s.scene_id for s in scenes] == ["s00000", "s00001", "s00002"]


def test_distinct_seeds_differ():
    a = generate_scene(SimConfig(seed=1), 0)
    b = generate_scene(SimConfig(seed=2), 0)
    assert a.persons != b.persons


def test_mean_zero_gives_empty_scene():
    s = generate_scene(SimConfig(persons_per_image=0.0), 0)
    assert s.persons == ()


def test_person_invariants():
    for seed in range(5):
        cfg = SimConfig(image_size=(500.0, 400.0), persons_per_image=12.0,
                        crowd_cluster_prob=0.7, median_height=70.0, seed=seed)
        for s in generate_scenes(cfg, 4):
            ids = [p.person_id for p in s.persons]
            assert len(ids) == len(set(ids))
            for p in s.persons:
                assert ioh(p.head.as_list(), p.body.as_list()) == 1.0
                assert 0.0 <= p.occlusion_ratio <= 1.0
                assert p.body.x_min >= 0 and p.body.y_min >= 0
                assert p.body.x_max <= s.width and p.body.y_max <= s.height


def test_occlusion_matches_union_oracle():
    for seed in range(4):
        cfg = SimConfig(image_size=(500.0, 400.0), persons_per_image=14.0,
                        crowd_cluster_prob=0.8, median_height=80.0, seed=seed)
        s = generate_scene(cfg, 0)
        persons = s.persons
        order = sorted(range(len(persons)),
                       key=lambda i: (persons[i].body.y_max, persons[i].person_id))
        depth = {i: rank for rank, i in enumerate(order)}
        for i, p in enumerate(persons):
            fronts = []
            for j, q in enumerate(persons):
                if depth[j] <= depth[i]:
                    continue
                x1 = max(p.body.x_min, q.body.x_min)
                y1 = max(p.body.y_min, q.body.y_min)
                x2 = min(p.body.x_max, q.body.x_max)
                y2 = min(p.body.y_max, q.body.y_max)
                if x2 > x1 and y2 > y1:
                    fronts.append((x1, y1, x2, y2))
            expected = min(union_area_reference(fronts) / area(p.body), 1.0)
            assert abs(p.occlusion_ratio - expected) < 1e-9


def _overlap_partners_reference(scene):
    """Per person, the first body of maximal positive overlap among those
    behind it: smaller bottom edge, or an equal one and a smaller id."""
    partners = {}
    for p in scene.persons:
        best, best_area = None, 0.0
        for q in scene.persons:
            if (q.body.y_max, q.person_id) >= (p.body.y_max, p.person_id):
                continue
            inter = intersection_area(p.body.as_list(), q.body.as_list())
            if inter > best_area:
                best, best_area = q.body, inter
        if best is not None:
            partners[p.person_id] = best
    return partners


def test_overlap_partners_match_reference_on_crowds():
    cfg = SimConfig(image_size=(500.0, 400.0), persons_per_image=30.0,
                    crowd_cluster_prob=0.95, median_height=90.0, seed=11)
    drifting = 0
    for scene in generate_scenes(cfg, 6):
        partners = _overlap_partners(scene)
        assert partners == _overlap_partners_reference(scene)
        drifting += len(partners)
    assert drifting > 0


def _person(person_id, body):
    head = BBox(body.x_min, body.y_min, body.x_min + 2.0, body.y_min + 2.0)
    return PersonInstance(person_id=person_id, head=head, body=body)


def test_overlap_partners_tie_rules():
    # a and b share a bottom edge, so the larger id (a) is in front; c is in
    # front of both and overlaps each by the same area, so the first listed wins
    a = _person(5, BBox(10, 0, 20, 20))
    b = _person(2, BBox(15, 0, 25, 20))
    c = _person(0, BBox(5, 10, 30, 30))
    scene = Scene(scene_id="s", width=40.0, height=40.0, persons=(a, b, c))
    expected = {5: b.body, 0: a.body}
    assert _overlap_partners(scene) == expected == _overlap_partners_reference(scene)
    assert _overlap_partners(Scene("s", 40.0, 40.0, (a,))) == {}


def test_cluster_probability_raises_overlap():
    heavy = light = 0
    for seed in range(10):
        base = dict(image_size=(600.0, 400.0), persons_per_image=10.0,
                    median_height=70.0, seed=seed)
        for s in generate_scenes(SimConfig(crowd_cluster_prob=0.9, **base), 3):
            heavy += sum(p.occlusion_ratio > 0 for p in s.persons)
        for s in generate_scenes(SimConfig(crowd_cluster_prob=0.0, **base), 3):
            light += sum(p.occlusion_ratio > 0 for p in s.persons)
    assert heavy > light


def test_noise_free_detector_reproduces_ground_truth():
    scene = generate_scene(SMALL, 0)
    noise = NoiseConfig(detect_prob=1.0, loc_jitter_sigma=0.0, head_fp_rate=0.0,
                        body_fp_rate=0.0, crowd_attraction=0.0, seed=0)
    heads, bodies = simulate_detector(scene, noise)
    assert len(heads) == len(bodies) == len(scene.persons)
    for p, h, b in zip(scene.persons, heads, bodies):
        assert h.box == p.head
        assert b.box == p.body
        assert 0.0 <= h.score <= 1.0


def test_detect_prob_zero_without_fps_is_silent():
    scene = generate_scene(SMALL, 0)
    noise = NoiseConfig(detect_prob=0.0, head_fp_rate=0.0, body_fp_rate=0.0, seed=0)
    assert simulate_detector(scene, noise) == ([], [])


def test_detect_prob_zero_leaves_only_false_positives():
    scene = generate_scene(SMALL, 1)
    assert len(scene.persons) > 0
    total_heads = total_bodies = 0
    # FP counts are Poisson draws; pool a few seeds so a zero draw on one
    # stream cannot produce an empty sample
    for seed in range(4):
        noise = NoiseConfig(detect_prob=0.0, head_fp_rate=4.0,
                            body_fp_rate=2.0, seed=seed)
        heads, bodies = simulate_detector(scene, noise)
        total_heads += len(heads)
        total_bodies += len(bodies)
        # no false positive may localize a ground-truth box of its class
        for dets, truth in ((heads, [p.head for p in scene.persons]),
                            (bodies, [p.body for p in scene.persons])):
            for d in dets:
                assert all(iou(d.box.as_list(), t.as_list()) < 0.5 for t in truth)
    assert total_heads > 0
    assert total_bodies > 0


def test_detector_deterministic():
    scenes = generate_scenes(SMALL, 4)
    noise = NoiseConfig(seed=9)
    assert simulate_detections(scenes, noise) == simulate_detections(scenes, noise)


def test_det_ids_unique_per_class():
    scenes = generate_scenes(SMALL, 3)
    dets = simulate_detections(scenes, NoiseConfig(head_fp_rate=3.0, seed=1))
    for heads, bodies in dets.values():
        head_ids = [d.det_id for d in heads]
        body_ids = [d.det_id for d in bodies]
        assert len(head_ids) == len(set(head_ids))
        assert len(body_ids) == len(set(body_ids))


def test_all_detections_inside_image():
    scenes = generate_scenes(SimConfig(image_size=(300.0, 220.0),
                                       persons_per_image=10.0,
                                       median_height=70.0,
                                       crowd_cluster_prob=0.8, seed=5), 5)
    noise = NoiseConfig(loc_jitter_sigma=0.2, head_fp_rate=3.0, body_fp_rate=2.0,
                        crowd_attraction=0.35, seed=2)
    dets = simulate_detections(scenes, noise)
    for scene in scenes:
        heads, bodies = dets[scene.scene_id]
        for d in heads + bodies:
            assert d.box.x_min >= 0.0 and d.box.y_min >= 0.0
            assert d.box.x_max <= scene.width and d.box.y_max <= scene.height


def _suppressed_best_fraction(cluster_prob, seeds, scenes_per_seed=3):
    """Fraction of ground-truth bodies whose best pre-NMS detection does not
    survive NMS, pooled over seeds."""
    nms_cfg = NmsConfig()
    suppressed = covered = 0
    for seed in seeds:
        cfg = SimConfig(image_size=(700.0, 500.0), persons_per_image=12.0,
                        median_height=75.0, crowd_cluster_prob=cluster_prob,
                        seed=seed * 37)
        scenes = generate_scenes(cfg, scenes_per_seed)
        dets = simulate_detections(scenes, NoiseConfig(seed=seed * 37))
        for scene in scenes:
            _, bodies = dets[scene.scene_id]
            kept_ids = {d.det_id for d in nms(bodies, nms_cfg)[0]}
            for p in scene.persons:
                best, best_iou = None, 0.0
                for d in bodies:
                    v = iou(d.box.as_list(), p.body.as_list())
                    if v > best_iou:
                        best, best_iou = d, v
                if best is None:
                    continue
                covered += 1
                suppressed += best.det_id not in kept_ids
    return suppressed / covered


def test_crowding_creates_suppressed_best_detections():
    seeds = range(20)
    high = _suppressed_best_fraction(0.85, seeds)
    low = _suppressed_best_fraction(0.0, seeds)
    assert high > low
