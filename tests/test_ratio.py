import json
import logging

import numpy as np
import pytest

from crowdpost.ratio import (HeadBodyRatio, apply_ratio, estimate_ratio, save_ratio,
                             scene_pairs)
from crowdpost.records import BBox

from helpers import box_pairs, person, scene, scene_columns


def test_ratio_validation():
    with pytest.raises(ValueError):
        HeadBodyRatio(0, 8, 0, 3.5)
    with pytest.raises(ValueError):
        HeadBodyRatio(3, -1, 0, 3.5)


def test_single_pair_worked_example():
    r = estimate_ratio(*box_pairs([(BBox(10, 10, 20, 20), BBox(5, 10, 35, 90))]))
    assert r == HeadBodyRatio(3.0, 8.0, 0.5, 3.5)


def test_copies_match_single_pair():
    pair = (BBox(10, 10, 20, 20), BBox(5, 10, 35, 90))
    assert estimate_ratio(*box_pairs([pair] * 7)) == estimate_ratio(*box_pairs([pair]))


def test_apply_worked_example():
    body = apply_ratio(BBox(10, 10, 20, 20), HeadBodyRatio(3, 8, 0.5, 3.5))
    assert body == BBox(5, 10, 35, 90)


def test_apply_identity_ratio():
    head = BBox(4, 6, 10, 14)
    assert apply_ratio(head, HeadBodyRatio(1, 1, 0, 0)) == head


def test_round_trip_exact_noise_free():
    # dyadic parameters and integer heads make the arithmetic exact
    true = HeadBodyRatio(3.0, 8.25, 0.5, 3.5)
    rng = np.random.default_rng(1)
    pairs = []
    for _ in range(50):
        x, y = rng.integers(0, 200, size=2)
        w = int(rng.integers(4, 33))
        head = BBox(x, y, x + w, y + w)
        pairs.append((head, apply_ratio(head, true)))
    assert estimate_ratio(*box_pairs(pairs)) == true


def test_estimate_then_apply_round_trip():
    r = HeadBodyRatio(2.75, 7.5, -0.25, 3.0)
    head = BBox(40, 12, 56, 28)
    assert estimate_ratio(*box_pairs([(head, apply_ratio(head, r))])) == r


def test_scale_invariance():
    true = HeadBodyRatio(3.0, 8.0, 0.25, 3.25)
    rng = np.random.default_rng(2)
    heads = [BBox(x, y, x + w, y + w)
             for x, y, w in rng.integers(1, 60, size=(20, 3))]
    pairs = [(h, apply_ratio(h, true)) for h in heads]
    scaled = [(BBox(*(4.0 * v for v in h.as_list())),
               BBox(*(4.0 * v for v in b.as_list()))) for h, b in pairs]
    assert estimate_ratio(*box_pairs(scaled)) == estimate_ratio(*box_pairs(pairs))


def test_outlier_robustness():
    true = HeadBodyRatio(3.0, 8.0, 0.0, 3.5)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(100):
            x, y = rng.uniform(0, 300, size=2)
            w = rng.uniform(6, 30)
            head = BBox(x, y, x + w, y + w)
            body = apply_ratio(head, true)
            if i % 10 == 0:  # 10% gross outliers
                body = BBox(x - 40, y - 40, x + 5 * w, y + 20 * w)
            pairs.append((head, body))
        got = estimate_ratio(*box_pairs(pairs))
        assert abs(got.alpha_w - true.alpha_w) <= 0.05 * abs(true.alpha_w)
        assert abs(got.alpha_h - true.alpha_h) <= 0.05 * abs(true.alpha_h)
        assert abs(got.delta_x - true.delta_x) <= 0.05 * max(abs(true.delta_x), 1.0)
        assert abs(got.delta_y - true.delta_y) <= 0.05 * abs(true.delta_y)


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="no usable"):
        estimate_ratio(*box_pairs([]))


def test_degenerate_heads_skipped_with_warning(caplog):
    good = (BBox(10, 10, 20, 20), BBox(5, 10, 35, 90))
    bad = (BBox(0, 0, 0, 10), BBox(0, 0, 30, 80))
    with caplog.at_level(logging.WARNING, logger="crowdpost.ratio"):
        r = estimate_ratio(*box_pairs([good, bad]))
    assert r == HeadBodyRatio(3.0, 8.0, 0.5, 3.5)
    assert any("skipped 1" in rec.getMessage() for rec in caplog.records)


def test_all_degenerate_rejected():
    bad = (BBox(0, 0, 0, 10), BBox(0, 0, 30, 80))
    with pytest.raises(ValueError, match="no usable"):
        estimate_ratio(*box_pairs([bad]))


def test_scene_pairs():
    s = scene([person(1, head=(10, 10, 20, 20), body=(5, 10, 35, 90)),
               person(2, head=(60, 5, 70, 15), body=(55, 5, 85, 85))])
    pairs = scene_pairs(scene_columns([s]))
    expected = box_pairs([(BBox(10, 10, 20, 20), BBox(5, 10, 35, 90)),
                          (BBox(60, 5, 70, 15), BBox(55, 5, 85, 85))])
    assert [a.tolist() for a in pairs] == [a.tolist() for a in expected]


def test_save_load_round_trip(tmp_path):
    r = HeadBodyRatio(3.0, 8.0, 0.03125, 3.5)
    path = tmp_path / "ratio.json"
    save_ratio(r, path)
    with open(path, encoding="utf-8") as fh:
        assert HeadBodyRatio(**json.load(fh)) == r
