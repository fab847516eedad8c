"""Relation discriminator: does a head detection and a body detection belong
to the same person?

The scorer is a three-layer perceptron over a 10-d geometric pair descriptor.
Pooled CNN features would slot in behind the same fixed-width interface; the
geometric descriptor keeps the module trainable and testable without images.
Its one-pair reference is `extract_features` in `tests/oracles.py`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data_model import DetectionColumns
from .fileio import atomic_write_text, read_json
from .geometry import pairwise_intersection

FEATURE_DIM = 10

# IoU at which a detection counts as localizing a ground-truth person, when
# `records.build_training_pairs` assigns detections to persons with
# `evaluator.greedy_assign`, every person matchable, to label the pairs
ASSIGN_IOU = 0.5

# logits are clamped before the logistic so scores stay strictly inside (0, 1)
_LOGIT_LIMIT = 30.0

# pairs per forward pass of `score_pairs`, which bounds the memory that a
# split's worth of pairs takes in one scorer call
SCORE_CHUNK = 256


def pair_features(head_boxes: np.ndarray, head_scores: np.ndarray, body_boxes: np.ndarray,
                  body_scores: np.ndarray) -> np.ndarray:
    """(n, 10) descriptors of the pairs (head k, body k), from the (n, 4)
    boxes and the (n,) detector scores of each side.

    Entries: normalized center offsets, log size ratios, IoH, IoU, the two
    detector scores, and the two aspect ratios.  Row k is bit-identical to
    the one-pair reference: the same arithmetic in the same order, with
    `math.log` for the size ratios because `np.log` can differ in the last bit.
    """
    n = len(head_boxes)
    boxes = np.concatenate([head_boxes, body_boxes]).reshape(-1, 4)
    wh = boxes[:, 2:] - boxes[:, :2]
    if not (wh > 0.0).all():
        raise ValueError("zero-area box in pair feature extraction")
    center = (boxes[:, :2] + boxes[:, 2:]) / 2.0
    area = wh[:, 0] * wh[:, 1]
    head_wh, body_wh = wh[:n], wh[n:]
    head_area, body_area = area[:n], area[n:]
    # pair k as a one-by-one slice: each slice is bit-identical to the 2-D call
    inter = pairwise_intersection(boxes[:n, None], boxes[n:, None])[:, 0, 0]

    out = np.empty((n, FEATURE_DIM))
    out[:, 0:2] = (center[:n] - center[n:]) / body_wh
    out[:, 2:4] = np.array([math.log(r) for r in (head_wh / body_wh).ravel().tolist()]
                           ).reshape(n, 2)
    out[:, 4] = inter / head_area
    out[:, 5] = inter / (head_area + body_area - inter)
    out[:, 6] = head_scores
    out[:, 7] = body_scores
    out[:, 8] = head_wh[:, 0] / head_wh[:, 1]
    out[:, 9] = body_wh[:, 0] / body_wh[:, 1]
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -_LOGIT_LIMIT, _LOGIT_LIMIT)))


@dataclass
class RelationModel:
    """Three stacked fully-connected layers with rectifier activations and a
    logistic output."""

    w1: np.ndarray  # (FEATURE_DIM, d)
    b1: np.ndarray  # (d,)
    w2: np.ndarray  # (d, d)
    b2: np.ndarray  # (d,)
    w3: np.ndarray  # (d, 1)
    b3: np.ndarray  # (1,)

    @classmethod
    def initialize(cls, hidden_dim: int,
                   seed: int | np.random.Generator = 0) -> "RelationModel":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

        def layer(fan_in, fan_out):
            bound = 1.0 / math.sqrt(fan_in)
            return (rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                    np.zeros(fan_out))

        w1, b1 = layer(FEATURE_DIM, hidden_dim)
        w2, b2 = layer(hidden_dim, hidden_dim)
        w3, b3 = layer(hidden_dim, 1)
        return cls(w1, b1, w2, b2, w3, b3)

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def _forward(self, x: np.ndarray):
        """The hidden activations `a1`, `a2` and the scores of a feature batch."""
        a1 = x @ self.w1
        a1 += self.b1
        np.maximum(a1, 0.0, out=a1)
        a2 = a1 @ self.w2
        a2 += self.b2
        np.maximum(a2, 0.0, out=a2)
        return a1, a2, _sigmoid(a2 @ self.w3 + self.b3)[:, 0]

    def score_many(self, features: np.ndarray) -> np.ndarray:
        """Relationship scores in (0, 1) for an (n, 10) feature batch."""
        return self._forward(features)[-1]

    def score_pairs(self, heads: DetectionColumns, bodies: DetectionColumns) -> np.ndarray:
        """Scores of the pairs (head k, body k) of two equal-length columns,
        in forward passes of `SCORE_CHUNK` rows.  The last chunk is padded
        with zero rows, whose scores are dropped: the bits of a row's score
        can depend on the row count of its pass, and with one count a
        pair's score does not depend on the other pairs of the split."""
        scores = np.empty(len(heads))
        for a in range(0, len(heads), SCORE_CHUNK):
            b = min(a + SCORE_CHUNK, len(heads))
            x = np.zeros((SCORE_CHUNK, FEATURE_DIM))
            x[:b - a] = pair_features(heads.boxes[a:b], heads.scores[a:b],
                                      bodies.boxes[a:b], bodies.scores[a:b])
            scores[a:b] = self.score_many(x)[:b - a]
        return scores

    def to_obj(self) -> dict:
        layers = []
        for w, b in ((self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)):
            layers.append({"in": w.shape[0], "out": w.shape[1],
                           "weights": [float(v) for v in w.ravel(order="C")],
                           "bias": [float(v) for v in b]})
        return {"hidden_dim": self.hidden_dim, "layers": layers}

    @classmethod
    def from_obj(cls, obj: dict) -> "RelationModel":
        """Rebuild a model from `to_obj` output.  A top level that is not an
        object with a `layers` list raises a ValueError; so does a layer that
        is not an object, whose weights or bias are not a list of numbers,
        whose shape breaks the 10->d->d->1 chain, whose bias length differs
        from its width, or that holds a non-finite value, naming the layer."""
        if not isinstance(obj, dict):
            raise ValueError(f"model must be a JSON object, got {type(obj).__name__}")
        layers = obj.get("layers")
        if not isinstance(layers, list):
            raise ValueError(f"model layers must be a list, got {type(layers).__name__}")
        if len(layers) != 3:
            raise ValueError(f"expected 3 layers, found {len(layers)}")
        for k, spec in enumerate(layers, start=1):
            if not isinstance(spec, dict):
                raise ValueError(f"layer {k}: expected an object, got {type(spec).__name__}")
            for key in ("weights", "bias"):
                values = spec.get(key)
                if not (isinstance(values, list)
                        and all(type(v) is float or type(v) is int for v in values)):
                    raise ValueError(f"layer {k}: {key} must be a list of numbers")
        # a missing width reads as None and fails the checks below
        d = layers[0].get("out")
        if type(d) is not int or d <= 0:
            raise ValueError(f"layer 1: width {d!r} is not a positive integer")
        arrays = []
        for k, (spec, shape) in enumerate(zip(layers, ((FEATURE_DIM, d), (d, d), (d, 1))),
                                          start=1):
            if (spec.get("in"), spec.get("out")) != shape:
                raise ValueError(f"layer {k}: shape {spec.get('in')}->{spec.get('out')} "
                                 f"breaks the 10->{d}->{d}->1 chain")
            try:
                w = np.array(spec["weights"], dtype=np.float64)
                b = np.array(spec["bias"], dtype=np.float64)
            except OverflowError:  # an integer too large for a float
                raise ValueError(f"layer {k}: non-finite weight or bias") from None
            if w.shape != (shape[0] * shape[1],) or b.shape != (shape[1],):
                raise ValueError(f"layer {k}: {w.size} weights and {b.size} biases for a "
                                 f"{shape[0]}->{shape[1]} layer")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: non-finite weight or bias")
            arrays.extend([w.reshape(shape), b])
        return cls(*arrays)


def save_model(model: RelationModel, path) -> None:
    atomic_write_text(path, json.dumps(model.to_obj()) + "\n")


def load_model(path) -> RelationModel:
    return RelationModel.from_obj(read_json(path))


# SGD recipe: momentum, L2 weight decay, and a 1:3 positive:negative batch mix
MOMENTUM = 0.9
WEIGHT_DECAY = 0.0001
POSITIVE_SHARE = 0.25

# Upper bounds on the integer settings, far above any useful value: a larger
# one is rejected by name before it can overflow or ask numpy for gigabytes.
MAX_BATCH_SIZE = 8192
MAX_EPOCHS = 10_000
MAX_HIDDEN_DIM = 512


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 512
    learning_rate: float = 0.01
    epochs: int = 20
    seed: int = 0
    hidden_dim: int = 64  # width of both hidden layers

    def __post_init__(self):
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if self.hidden_dim <= 0:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        for name, limit in (("batch_size", MAX_BATCH_SIZE), ("epochs", MAX_EPOCHS),
                            ("hidden_dim", MAX_HIDDEN_DIM)):
            value = getattr(self, name)
            if value > limit:
                raise ValueError(f"{name} must be at most {limit}, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # written so that NaN fails the comparison
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")

    @property
    def positives_per_batch(self) -> int:
        return round(self.batch_size * POSITIVE_SHARE)


# ---------------------------------------------------------------------------
# optimization

def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(-labels * np.log(probs) - (1.0 - labels) * np.log(1.0 - probs)))


def _gradients(model: RelationModel, x: np.ndarray, y: np.ndarray):
    """Gradients of the batch's mean BCE, in the order of `model.params()`.
    A unit is active where `a > 0`, as where its pre-activation is `> 0`."""
    a1, a2, p = model._forward(x)
    dz3 = ((p - y) / len(y))[:, None]
    gw3 = a2.T @ dz3
    gb3 = dz3.sum(axis=0)
    dz2 = (dz3 @ model.w3.T) * (a2 > 0)
    gw2 = a1.T @ dz2
    gb2 = dz2.sum(axis=0)
    dz1 = (dz2 @ model.w2.T) * (a1 > 0)
    gw1 = x.T @ dz1
    gb1 = dz1.sum(axis=0)
    return gw1, gb1, gw2, gb2, gw3, gb3


def _sample_batch(rng: np.random.Generator, pos_idx: np.ndarray, neg_idx: np.ndarray,
                  cfg: TrainConfig) -> np.ndarray:
    """One class-balanced batch; sampling falls back to replacement only when a
    class has fewer examples than its quota."""
    n_pos = cfg.positives_per_batch
    n_neg = cfg.batch_size - n_pos
    pos = rng.choice(pos_idx, size=n_pos, replace=len(pos_idx) < n_pos)
    neg = rng.choice(neg_idx, size=n_neg, replace=len(neg_idx) < n_neg)
    return np.concatenate([pos, neg])


def train(features: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig) -> tuple[RelationModel, list[float]]:
    """Minibatch SGD with momentum and weight decay on binary cross-entropy.

    Every batch is resampled to the 1:3 positive:negative mix.  Fully
    seeded: identical inputs and config give bit-identical parameters.

    Returns the trained model and the end-of-epoch loss over the full input.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    pos_idx = np.flatnonzero(y == 1.0)
    neg_idx = np.flatnonzero(y == 0.0)
    if len(pos_idx) == 0 or len(neg_idx) == 0:
        raise ValueError("training needs at least one positive and one negative pair")

    init_seq, batch_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    model = RelationModel.initialize(cfg.hidden_dim, np.random.default_rng(init_seq))
    rng = np.random.default_rng(batch_seq)

    velocity = [np.zeros_like(p) for p in model.params()]
    steps_per_epoch = max(1, math.ceil(len(y) / cfg.batch_size))
    trace = []
    for _epoch in range(cfg.epochs):
        for _step in range(steps_per_epoch):
            idx = _sample_batch(rng, pos_idx, neg_idx, cfg)
            grads = _gradients(model, x[idx], y[idx])
            for param, vel, grad in zip(model.params(), velocity, grads):
                vel *= MOMENTUM
                vel += grad + WEIGHT_DECAY * param
                param -= cfg.learning_rate * vel
        trace.append(bce_loss(model.score_many(x), y))
    return model, trace


def write_loss_csv(trace: list[float], path) -> None:
    lines = ["epoch,mean_bce"]
    lines += [f"{epoch},{loss!r}" for epoch, loss in enumerate(trace, start=1)]
    atomic_write_text(path, "\n".join(lines) + "\n")
