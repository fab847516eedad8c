import math

import numpy as np
import pytest

from crowdpost.rdm import (FEATURE_DIM, MAX_BATCH_SIZE, MAX_EPOCHS, MAX_HIDDEN_DIM,
                           RelationModel, TrainConfig, bce_loss, load_model, pair_features,
                           save_model, train, write_loss_csv, _gradients, _sample_batch)
from crowdpost.records import DetectionSet, build_training_pairs

from helpers import det, one_scene, person, scene, scene_columns
from oracles import extract_features, mlp_score, training_pairs_reference


def _pair_features(heads, bodies):
    """`pair_features` of the pairs of two equal-length `Detection` lists."""
    heads, bodies = one_scene(heads), one_scene(bodies)
    return pair_features(heads.boxes, heads.scores, bodies.boxes, bodies.scores)


def _features(head, body):
    """`pair_features` of one pair, the row the kernel gives it."""
    return _pair_features([head], [body])[0]


def _reference(head, body):
    """The one-pair oracle's descriptor of two detections."""
    return extract_features(head.box, head.score, body.box, body.score)


# ---------------------------------------------------------------------------
# features

def test_feature_worked_example():
    head = det(1, (10, 10, 20, 20), 0.9)
    body = det(1, (5, 10, 35, 90), 0.8)
    got = _features(head, body)
    expected = np.array([
        -5.0 / 30.0,            # center dx over body width
        -35.0 / 80.0,           # center dy over body height
        math.log(10.0 / 30.0),
        math.log(10.0 / 80.0),
        1.0,                    # head fully inside body
        100.0 / 2400.0,
        0.9,
        0.8,
        1.0,                    # head aspect
        30.0 / 80.0,            # body aspect
    ])
    assert np.array_equal(got, expected)
    assert np.array_equal(_reference(head, body), expected)


def test_feature_identity_geometry():
    box = (4, 2, 10, 14)
    head = det(1, box, 1.0)
    body = det(1, box, 1.0)
    aspect = 6.0 / 12.0
    expected = np.array([0, 0, 0, 0, 1, 1, 1, 1, aspect, aspect])
    assert np.array_equal(_features(head, body), expected)
    assert np.array_equal(_reference(head, body), expected)


def test_feature_determinism():
    head = det(1, (10, 10, 20, 20), 0.9)
    body = det(1, (5, 10, 35, 90), 0.8)
    assert np.array_equal(_features(head, body), _features(head, body))


def test_feature_translation_and_scale_invariance():
    head = det(1, (10, 10, 20, 20), 0.9)
    body = det(1, (5, 10, 35, 90), 0.8)
    base = _features(head, body)

    shift = lambda box, dx, dy: (box[0] + dx, box[1] + dy, box[2] + dx, box[3] + dy)
    moved = _features(det(1, shift((10, 10, 20, 20), 7, 31), 0.9),
                      det(1, shift((5, 10, 35, 90), 7, 31), 0.8))
    assert np.array_equal(base, moved)

    scale = lambda box, s: tuple(s * v for v in box)
    scaled = _features(det(1, scale((10, 10, 20, 20), 2.0), 0.9),
                       det(1, scale((5, 10, 35, 90), 2.0), 0.8))
    assert np.array_equal(base, scaled)


def test_feature_rejects_zero_area_box():
    head = det(1, (10, 10, 10, 20), 0.9)
    body = det(1, (5, 10, 35, 90), 0.8)
    with pytest.raises(ValueError, match="zero-area"):
        _features(head, body)
    with pytest.raises(ValueError, match="zero-area"):
        _reference(head, body)


def _feature_pairs(rng, n):
    """Random, shared-edge, contained and identical head/body pairs."""
    heads, bodies = [], []
    for k in range(n):
        x, y = rng.uniform(-50, 150, size=2)
        w, h = rng.uniform(0.5, 60, size=2)
        body = (x, y, x + w, y + h)
        kind = k % 4
        if kind == 0:    # anywhere, usually disjoint
            hx, hy = rng.uniform(-50, 150, size=2)
            hw, hh = rng.uniform(0.5, 20, size=2)
            head = (hx, hy, hx + hw, hy + hh)
        elif kind == 1:  # shares the body's right edge from outside
            hw, hh = rng.uniform(0.5, 20, size=2)
            head = (x + w, y, x + w + hw, y + hh)
        elif kind == 2:  # inside the body
            fx0, fx1 = np.sort(rng.uniform(0, 1, size=2))
            head = (x + fx0 * w, y, x + max(fx1, fx0 + 0.01) * w, y + 0.2 * h)
        else:            # the body's own box
            head = body
        heads.append(det(k, head, float(rng.uniform(0, 1))))
        bodies.append(det(k, body, float(rng.uniform(0, 1))))
    return heads, bodies


def test_pair_features_equal_stacked_reference():
    rng = np.random.default_rng(8)
    for n in (0, 1, 2, 3, 7, 64, 401):
        heads, bodies = _feature_pairs(rng, n)
        got = _pair_features(heads, bodies)
        assert got.shape == (n, FEATURE_DIM)
        expected = np.array([_reference(h, b) for h, b in zip(heads, bodies)])
        assert (got == expected.reshape(n, FEATURE_DIM)).all()


def test_pair_features_reject_zero_area_box():
    good = det(1, (5, 10, 35, 90), 0.8)
    for flat in (det(2, (10, 10, 10, 20), 0.9), det(2, (10, 10, 20, 10), 0.9)):
        with pytest.raises(ValueError, match="zero-area"):
            _pair_features([good, flat], [good, good])
        with pytest.raises(ValueError, match="zero-area"):
            _pair_features([good, good], [good, flat])


# ---------------------------------------------------------------------------
# model

def test_zero_model_scores_half():
    d = 8
    model = RelationModel(np.zeros((FEATURE_DIM, d)), np.zeros(d),
                          np.zeros((d, d)), np.zeros(d),
                          np.zeros((d, 1)), np.zeros(1))
    assert model.score_many(np.ones(FEATURE_DIM)[None]).tolist() == [0.5]


def test_scores_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    model = RelationModel.initialize(hidden_dim=16, seed=1)
    x = rng.normal(scale=50.0, size=(1000, FEATURE_DIM))
    p = model.score_many(x)
    assert np.all(p > 0.0)
    assert np.all(p < 1.0)


def test_score_pairs_matches_per_row_scores():
    rng = np.random.default_rng(2)
    model = RelationModel.initialize(hidden_dim=64, seed=4)
    for n in (0, 1, 5, 333):
        heads, bodies = _feature_pairs(rng, n)
        got = model.score_pairs(one_scene(heads), one_scene(bodies))
        per_row = [model.score_many(_reference(h, b)[None])[0]
                   for h, b in zip(heads, bodies)]
        assert got.shape == (n,)
        assert np.allclose(got, per_row, rtol=0.0, atol=1e-12)


def _random_rows(model, rng):
    for b in (model.b1, model.b2, model.b3):
        b += rng.normal(scale=0.1, size=b.shape)
    return rng.normal(size=(200, FEATURE_DIM))


def _zero_pre_activation_row(model, rng):
    """Hidden unit 0 sums 0.5 - 0.5 and zero products: exactly 0."""
    x = rng.normal(size=(1, FEATURE_DIM))
    x[0, :2] = 1.0
    model.w1[:, 0] = 0.0
    model.w1[:2, 0] = (0.5, -0.5)
    assert (x @ model.w1 + model.b1)[0, 0] == 0.0
    return x


def _logits_beyond(limit):
    def case(model, rng):
        model.b3[:] = limit
        return rng.normal(size=(20, FEATURE_DIM))
    return case


@pytest.mark.parametrize("case", [_random_rows, _zero_pre_activation_row,
                                  _logits_beyond(-1000.0), _logits_beyond(1000.0)],
                         ids=["random", "zero_pre_activation", "logit_below", "logit_above"])
def test_scores_match_mlp_reference(case):
    rng = np.random.default_rng(7)
    model = RelationModel.initialize(hidden_dim=16, seed=rng)
    x = case(model, rng)
    obj = model.to_obj()
    got = model.score_many(x)
    assert np.allclose(got, [mlp_score(obj, row) for row in x], rtol=0.0, atol=1e-12)
    # an unclamped logit of +-1000 would round its score to exactly 0 or 1
    assert np.all((0.0 < got) & (got < 1.0))


def test_initialize_deterministic():
    a = RelationModel.initialize(hidden_dim=32, seed=5)
    b = RelationModel.initialize(hidden_dim=32, seed=5)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)
    c = RelationModel.initialize(hidden_dim=32, seed=6)
    assert not np.array_equal(a.w1, c.w1)


def test_save_load_bit_exact(tmp_path):
    model = RelationModel.initialize(hidden_dim=16, seed=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for pa, pb in zip(model.params(), loaded.params()):
        assert np.array_equal(pa, pb)


def test_from_obj_validates_layers():
    model = RelationModel.initialize(hidden_dim=4, seed=0)
    obj = model.to_obj()
    del obj["layers"][2]
    with pytest.raises(ValueError, match="3 layers"):
        RelationModel.from_obj(obj)


def _set(layer, **values):
    def mutate(obj):
        obj["layers"][layer].update(values)
        return obj
    return mutate


def _drop(layer, key):
    def mutate(obj):
        del obj["layers"][layer][key]
        return obj
    return mutate


def _set_weight(layer, index, value):
    def mutate(obj):
        obj["layers"][layer]["weights"][index] = value
        return obj
    return mutate


@pytest.mark.parametrize("mutate, message", [
    pytest.param(_set(0, bias=[0.0]), "layer 1: 40 weights and 1 biases for a 10->4 layer",
                 id="short-bias"),
    pytest.param(_set_weight(1, 5, float("nan")),
                 "layer 2: non-finite weight or bias", id="nan-weight"),
    pytest.param(_set(2, bias=[float("inf")]), "layer 3: non-finite weight or bias",
                 id="inf-bias"),
    pytest.param(_set(1, out=3, weights=[0.0] * 12, bias=[0.0] * 3),
                 "layer 2: shape 4->3 breaks the 10->4->4->1 chain", id="narrow-middle"),
    pytest.param(_set(2, weights=[0.0] * 3), "layer 3: 3 weights and 1 biases for a 4->1 layer",
                 id="short-weights"),
    pytest.param(_set(0, out=0, weights=[], bias=[]),
                 "layer 1: width 0 is not a positive integer", id="zero-width"),
    pytest.param(lambda obj: [], "model must be a JSON object, got list", id="top-level-list"),
    pytest.param(lambda obj: {"layers": "abc"}, "model layers must be a list, got str",
                 id="layers-string"),
    pytest.param(lambda obj: {"layers": [1, 2, 3]}, "layer 1: expected an object, got int",
                 id="layer-int"),
    pytest.param(_set(1, weights={}), "layer 2: weights must be a list of numbers",
                 id="weights-object"),
    pytest.param(_set_weight(0, 3, "0.5"), "layer 1: weights must be a list of numbers",
                 id="weight-string"),
    pytest.param(_set_weight(2, 0, None), "layer 3: weights must be a list of numbers",
                 id="weight-null"),
    pytest.param(_set(2, bias=[True]), "layer 3: bias must be a list of numbers",
                 id="bias-boolean"),
    pytest.param(_set_weight(0, 0, 10 ** 400), "layer 1: non-finite weight or bias",
                 id="huge-int-weight"),
    pytest.param(_drop(1, "in"), "layer 2: shape None->4 breaks the 10->4->4->1 chain",
                 id="missing-in"),
])
def test_from_obj_rejects_bad_layers(mutate, message):
    obj = mutate(RelationModel.initialize(hidden_dim=4, seed=0).to_obj())
    with pytest.raises(ValueError) as exc_info:
        RelationModel.from_obj(obj)
    assert str(exc_info.value) == message


# ---------------------------------------------------------------------------
# gradients

def _kink_free_case(seed):
    """Model and batch with every pre-activation far from the rectifier kink,
    so central differences are valid."""
    rng = np.random.default_rng(seed)
    d = 4
    model = RelationModel.initialize(hidden_dim=d, seed=rng)
    model.b1 += rng.uniform(0.05, 0.2, size=d) * rng.choice([-1, 1], size=d)
    model.b2 += rng.uniform(0.05, 0.2, size=d) * rng.choice([-1, 1], size=d)
    for _ in range(200):
        x = rng.normal(size=(8, FEATURE_DIM))
        y = rng.integers(0, 2, size=8).astype(float)
        a1, _, _ = model._forward(x)
        z1 = x @ model.w1 + model.b1
        z2 = a1 @ model.w2 + model.b2
        if min(np.abs(z1).min(), np.abs(z2).min()) > 1e-3:
            return model, x, y
    raise AssertionError("could not sample a kink-free batch")


def test_gradients_match_finite_differences():
    model, x, y = _kink_free_case(seed=12)
    grads = _gradients(model, x, y)
    eps = 1e-6
    worst = 0.0
    for param, grad in zip(model.params(), grads):
        flat = param.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = bce_loss(model.score_many(x), y)
            flat[i] = orig - eps
            down = bce_loss(model.score_many(x), y)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            a = grad.ravel()[i]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# training

def _separable_pairs(n_pos=250, n_neg=750, seed=0):
    """Labels determined by the sign of the first feature, with a margin."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n_pos, FEATURE_DIM))
    pos[:, 0] = rng.uniform(0.5, 1.5, size=n_pos)
    neg = rng.normal(size=(n_neg, FEATURE_DIM))
    neg[:, 0] = rng.uniform(-1.5, -0.5, size=n_neg)
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    return x, y


def test_training_separates_separable_pairs():
    x, y = _separable_pairs()
    cfg = TrainConfig(epochs=100, seed=0, hidden_dim=16)
    model, trace = train(x, y, cfg)
    accuracy = np.mean((model.score_many(x) > 0.5) == (y == 1.0))
    assert accuracy >= 0.99
    assert len(trace) == cfg.epochs
    # loss settles instead of oscillating
    for earlier, later in zip(trace[:5], trace[1:6]):
        assert later <= earlier + 1e-12


def test_training_bit_identical_across_runs():
    x, y = _separable_pairs(seed=4)
    cfg = TrainConfig(epochs=5, seed=11, hidden_dim=8)
    model_a, trace_a = train(x, y, cfg)
    model_b, trace_b = train(x, y, cfg)
    assert trace_a == trace_b
    for pa, pb in zip(model_a.params(), model_b.params()):
        assert np.array_equal(pa, pb)


def test_training_rejects_single_class():
    x = np.ones((10, FEATURE_DIM))
    with pytest.raises(ValueError, match="positive and.*negative"):
        train(x, np.ones(10), TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="positive and.*negative"):
        train(x, np.zeros(10), TrainConfig(epochs=1))


def test_batch_composition():
    cfg = TrainConfig()
    assert cfg.positives_per_batch == 128
    rng = np.random.default_rng(0)
    pos_idx = np.arange(1000)
    neg_idx = np.arange(1000, 4000)
    for _ in range(5):
        idx = _sample_batch(rng, pos_idx, neg_idx, cfg)
        assert len(idx) == 512
        assert int((idx < 1000).sum()) == 128
        assert int((idx >= 1000).sum()) == 384


def test_batch_resamples_scarce_class():
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    idx = _sample_batch(rng, np.array([7]), np.arange(10, 2000), cfg)
    assert int((idx == 7).sum()) == 128


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="hidden_dim"):
        TrainConfig(hidden_dim=0)


def test_train_config_upper_bounds():
    # the limits themselves are accepted; building a config allocates nothing
    TrainConfig(batch_size=MAX_BATCH_SIZE, epochs=MAX_EPOCHS, hidden_dim=MAX_HIDDEN_DIM)
    for name, limit in (("batch_size", MAX_BATCH_SIZE), ("epochs", MAX_EPOCHS),
                        ("hidden_dim", MAX_HIDDEN_DIM)):
        with pytest.raises(ValueError, match=f"^{name} must be at most {limit}, got {limit + 1}$"):
            TrainConfig(**{name: limit + 1})


def test_bce_loss_value():
    p = np.array([0.9, 0.2])
    y = np.array([1.0, 0.0])
    expected = -(math.log(0.9) + math.log(0.8)) / 2
    assert abs(bce_loss(p, y) - expected) < 1e-12


def test_write_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([0.5, 0.25], path)
    assert path.read_text() == "epoch,mean_bce\n1,0.5\n2,0.25\n"


# ---------------------------------------------------------------------------
# pair labeling

def _two_person_setup():
    # B's body overlaps A's head enough to form a cross-person pair
    s = scene([
        person(1, head=(10, 0, 20, 10), body=(0, 0, 30, 80)),
        person(2, head=(28, 0, 38, 10), body=(12, 0, 48, 80)),
    ])
    heads = [det(1, (10, 0, 20, 10), 0.9), det(2, (28, 0, 38, 10), 0.85)]
    bodies = [det(1, (0, 0, 30, 80), 0.9), det(2, (12, 0, 48, 80), 0.8)]
    ds = DetectionSet("s0", tuple(heads), tuple(bodies), tuple(bodies))
    return [s], [ds]


def test_pair_labels():
    scenes, sets = _two_person_setup()
    feats, labels = build_training_pairs(scene_columns(scenes), sets, ioh_threshold=0.7)
    # head A: IoH 1.0 with body A, 0.8 with body B; head B: 1.0 with B, 0.2 with A
    assert feats.shape == (3, FEATURE_DIM)
    assert sorted(labels.tolist()) == [0.0, 1.0, 1.0]


def test_pair_gate_excludes_low_ioh():
    scenes, sets = _two_person_setup()
    _, loose = build_training_pairs(scene_columns(scenes), sets, ioh_threshold=0.1)
    assert len(loose) == 4  # head B x body A (IoH 0.2) now enters, labeled 0
    assert sorted(loose.tolist()) == [0.0, 0.0, 1.0, 1.0]


def test_pair_gate_is_strict():
    scenes, sets = _two_person_setup()
    _, labels = build_training_pairs(scene_columns(scenes), sets, ioh_threshold=0.8)
    # the 0.8 cross pair sits exactly at the gate and must not be emitted
    assert len(labels) == 2
    assert labels.tolist() == [1.0, 1.0]


def test_unassigned_detection_pairs_are_negative():
    s = scene([person(1, head=(10, 0, 20, 10), body=(0, 0, 30, 80))])
    # body det too wide to localize the ground truth (IoU 0.31), but the head
    # still lies inside it, so the pair is emitted with label 0
    heads = [det(1, (10, 0, 20, 10), 0.9)]
    bodies = [det(1, (8, 0, 70, 80), 0.8)]
    ds = DetectionSet("s0", tuple(heads), tuple(bodies), tuple(bodies))
    _, labels = build_training_pairs(scene_columns([s]), [ds], ioh_threshold=0.7)
    assert labels.tolist() == [0.0]


def test_missing_scene_rejected():
    _, sets = _two_person_setup()
    with pytest.raises(ValueError, match="no ground-truth scene"):
        build_training_pairs(scene_columns([]), sets, 0.7)


def test_no_pairs_gives_empty_arrays():
    s = scene([person(1, head=(10, 0, 20, 10), body=(0, 0, 30, 80))])
    ds = DetectionSet("s0", (), (), ())
    feats, labels = build_training_pairs(scene_columns([s]), [ds], 0.7)
    assert feats.shape == (0, FEATURE_DIM)
    assert labels.shape == (0,)


def _labeling_split(rng):
    """Scenes and their detection sets for `build_training_pairs`: scenes of
    different sizes, about a third of the persons flagged ignore, a first
    scene with no persons and a set with no heads; two detections of a
    person often share a score, and the sets come in shuffled order."""
    scenes, sets = [], []
    num_scenes = int(rng.integers(4, 9))
    headless = int(rng.integers(num_scenes))
    for k in range(num_scenes):
        persons, heads, bodies = [], [], []
        for pid in range(int(rng.integers(1, 7)) if k else 0):
            x, y = rng.uniform(0, 150, size=2)
            w = rng.uniform(12, 40)
            body = (x, y, x + w, y + w * rng.uniform(1.5, 3.0))
            size = w * 0.4
            hx = x + rng.uniform(0, w - size)
            head = (hx, y, hx + size, y + size)
            persons.append(person(pid, head, body, ignore=rng.random() < 0.3))
            score = float(rng.choice([0.3, 0.5, 0.9]))
            for dets, (x1, y1, x2, y2) in ((heads, head), (bodies, body)):
                for _ in range(int(rng.integers(0, 3))):
                    dx, dy = rng.normal(0.0, 0.08, size=2) * (x2 - x1)
                    dets.append(((x1 + dx, y1 + dy, x2 + dx, y2 + dy), score))
        for dets in (heads, bodies):
            for _ in range(int(rng.integers(0, 3))):
                x, y = rng.uniform(0, 180, size=2)
                w, h = rng.uniform(4, 40, size=2)
                dets.append(((x, y, x + w, y + h), float(rng.choice([0.3, 0.5, 0.9]))))
        if k == headless:
            heads = []
        heads, bodies = ([det(i, b, sc) for i, (b, sc) in zip(rng.permutation(len(dets)).tolist(),
                                                               dets)]
                         for dets in (heads, bodies))
        scenes.append(scene(persons, scene_id=f"s{k}"))
        sets.append(DetectionSet(f"s{k}", tuple(heads), tuple(bodies), ()))
    return scenes, [sets[k] for k in rng.permutation(num_scenes).tolist()]


@pytest.mark.parametrize("seed", range(8))
def test_training_pairs_equal_scene_by_scene_reference(seed):
    from crowdpost.geometry import padded_batches

    rng = np.random.default_rng(seed)
    scenes, sets = _labeling_split(rng)
    heads = np.array([len(ds.heads_post_nms) for ds in sets])
    bodies = np.array([len(ds.bodies_pre_nms) for ds in sets])
    # the split-wide gate puts scenes of different sizes into one padded stack
    assert any(len(set(heads[batch].tolist())) > 1 for batch, _ in padded_batches(heads, bodies))
    persons = {s.scene_id: [(p.head, p.body) for p in s.persons] for s in scenes}
    for threshold in (0.3, 0.7):
        features, labels = build_training_pairs(scene_columns(scenes), sets, threshold)
        ref_features, ref_labels = training_pairs_reference(
            persons, [(ds.scene_id, ds.heads_post_nms, ds.bodies_pre_nms) for ds in sets],
            threshold)
        assert features.shape == ref_features.shape
        assert features.tobytes() == ref_features.tobytes()
        assert labels.tobytes() == ref_labels.tobytes()
        assert 0.0 < labels.mean() < 1.0
