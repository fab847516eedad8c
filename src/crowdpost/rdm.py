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


@dataclass
class RelationModel:
    """Three stacked fully-connected layers with rectifier activations and a
    logistic output."""

    # (weights, bias) per layer in file order: (FEATURE_DIM, d) and (d,),
    # (d, d) and (d,), (d, 1) and (1,)
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def initialize(cls, hidden_dim: int,
                   seed: int | np.random.Generator = 0) -> "RelationModel":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        widths = (FEATURE_DIM, hidden_dim, hidden_dim, 1)
        layers = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            layers.append((rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                           np.zeros(fan_out)))
        return cls(tuple(layers))

    @property
    def hidden_dim(self) -> int:
        return self.layers[0][0].shape[1]

    def params(self) -> tuple[np.ndarray, ...]:
        return tuple(a for layer in self.layers for a in layer)

    def score_pairs(self, heads: DetectionColumns, bodies: DetectionColumns) -> np.ndarray:
        """Scores of the pairs (head k, body k) of two equal-length columns,
        in forward passes of `SCORE_CHUNK` rows.  The last chunk is padded
        with zero rows, whose scores are dropped: the bits of a row's score
        can depend on the row count of its pass, and with one count a
        pair's score does not depend on the other pairs of the split."""
        scores = np.empty(len(heads))
        x = np.empty((SCORE_CHUNK, FEATURE_DIM))
        chunk = _Pass(self, SCORE_CHUNK)
        for a in range(0, len(heads), SCORE_CHUNK):
            b = min(a + SCORE_CHUNK, len(heads))
            x[:b - a] = pair_features(heads.boxes[a:b], heads.scores[a:b],
                                      bodies.boxes[a:b], bodies.scores[a:b])
            x[b - a:] = 0.0
            scores[a:b] = chunk.forward(x)[:b - a]
        return scores

    def to_obj(self) -> dict:
        return {"hidden_dim": self.hidden_dim,
                "layers": [{"in": w.shape[0], "out": w.shape[1],
                            "weights": [float(v) for v in w.ravel(order="C")],
                            "bias": [float(v) for v in b]} for w, b in self.layers]}

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
        pairs = []
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
            pairs.append((w.reshape(shape), b))
        return cls(tuple(pairs))


class _Pass:
    """The forward pass, and the backward pass of training, over a fixed
    number of feature rows, in arrays allocated once and refilled in place
    by every pass, by the same operations in the same order as with fresh
    arrays, so the bits are the same.  It reads the model's parameters as
    they are at each call."""

    def __init__(self, model: RelationModel, rows: int):
        self.model = model
        # each layer's output: a hidden activation, or the logit, then the score
        self.out = [np.empty((rows, w.shape[1])) for w, _ in model.layers]
        self._backward = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The scores of the rows of `x`, a view of this pass's last output
        array; the others hold the hidden activations."""
        a = x
        for k, ((w, b), out) in enumerate(zip(self.model.layers, self.out)):
            np.matmul(a, w, out=out)
            out += b
            if k < len(self.out) - 1:
                np.maximum(out, 0.0, out=out)
            a = out
        # the logistic of the clamped logit: 1 / (1 + exp(-z))
        np.clip(a, -_LOGIT_LIMIT, _LOGIT_LIMIT, out=a)
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        return a[:, 0]

    def gradients(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """Gradients of the mean BCE of the rows of `x` with labels `y`, in
        the order of `model.params()`, in arrays the next call refills.  A
        unit is active where `a > 0`, as where its pre-activation is `> 0`."""
        layers = self.model.layers
        if self._backward is None:
            # one error array per layer output, and the mask of a hidden layer
            self._backward = ([np.empty_like(a) for a in self.out],
                              np.empty(self.out[0].shape, dtype=bool),
                              [np.empty_like(p) for p in self.model.params()])
        dz, active, grads = self._backward
        p = self.forward(x)
        np.subtract(p, y, out=dz[-1][:, 0])
        dz[-1] /= len(y)
        inputs = [x] + self.out[:-1]
        for k in reversed(range(len(layers))):
            np.matmul(inputs[k].T, dz[k], out=grads[2 * k])
            np.sum(dz[k], axis=0, out=grads[2 * k + 1])
            if k > 0:
                np.matmul(dz[k], layers[k][0].T, out=dz[k - 1])
                np.greater(inputs[k], 0.0, out=active)
                dz[k - 1] *= active
        return grads


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

# A parameter of larger magnitude after an epoch means the steps diverge.
# The largest over the README model and criterion 7's 20 models, at any
# epoch, is 3.44; one epoch at a learning rate of 1e12 reaches 2.5e11.
MAX_PARAMETER = 1e6


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
    A step that overflows or makes a NaN, or an epoch that leaves a
    parameter above `MAX_PARAMETER` in magnitude, raises a ValueError that
    names the epoch and the learning rate, instead of returning a model
    that diverged.
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

    # every step and every epoch's loss fill the same arrays
    velocity = [np.zeros_like(p) for p in model.params()]
    scratch = [np.empty_like(p) for p in model.params()]
    xb, yb = np.empty((cfg.batch_size, x.shape[1])), np.empty(cfg.batch_size)
    step, whole = _Pass(model, cfg.batch_size), _Pass(model, len(y))
    steps_per_epoch = max(1, math.ceil(len(y) / cfg.batch_size))
    trace = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for epoch in range(1, cfg.epochs + 1):
            try:
                for _step in range(steps_per_epoch):
                    idx = _sample_batch(rng, pos_idx, neg_idx, cfg)
                    # the indices are valid; "raise" would gather through a temporary
                    np.take(x, idx, axis=0, out=xb, mode="clip")
                    np.take(y, idx, out=yb, mode="clip")
                    grads = step.gradients(xb, yb)
                    for param, vel, grad, tmp in zip(model.params(), velocity, grads, scratch):
                        # vel = MOMENTUM * vel + (grad + WEIGHT_DECAY * param)
                        vel *= MOMENTUM
                        np.multiply(param, WEIGHT_DECAY, out=tmp)
                        tmp += grad
                        vel += tmp
                        # param -= learning_rate * vel
                        np.multiply(vel, cfg.learning_rate, out=tmp)
                        param -= tmp
                largest = max(max(param.max(), -param.min()) for param in model.params())
                if largest > MAX_PARAMETER:
                    raise FloatingPointError(f"a parameter reached {largest:.3g}, "
                                             f"above {MAX_PARAMETER:g}")
                trace.append(bce_loss(whole.forward(x), y))
            except FloatingPointError as exc:
                raise ValueError(f"training diverged in epoch {epoch} ({exc}); lower "
                                 f"train.learning_rate, now {cfg.learning_rate!r}") from None
    return model, trace


def write_loss_csv(trace: list[float], path) -> None:
    lines = ["epoch,mean_bce"]
    lines += [f"{epoch},{loss!r}" for epoch, loss in enumerate(trace, start=1)]
    atomic_write_text(path, "\n".join(lines) + "\n")
