"""Synthetic crowd scenes plus a noisy detector stand-in.

Scenes are built head-first: a head box is placed, then the paired body box is
derived through the generating head-body ratio, so every person satisfies the
head-within-body rule by construction.  Crowding comes from cluster placement:
with probability `crowd_cluster_prob` a new person is dropped next to an
existing one at a lateral offset small enough that the two body boxes overlap,
which is what later puts NMS under pressure.

Depth follows one painter order: a body with a larger bottom edge (`y_max`)
is closer to the camera, and ties go to the larger person id (in generated
scenes the id is the list position).  A person's occlusion ratio is the
fraction of its body covered by the bodies in front of it.

The detector model emits one jittered head and body detection per sampled
person, plus limb-site head false positives and offset body false positives.
No rendering happens anywhere; everything is box arithmetic.

A box is a 4-tuple of corners (x_min, y_min, x_max, y_max).  A scene is its
row, as the readers collect one and `data_model.scene_columns` takes it:
(scene_id, width, height, person ids, head corners, body corners, ignore
flags, occlusions), a list per person field and the corners of every box one
after the other.  A detection is a (box, score) pair, and its id is its
position in its scene's head or body list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import pairwise_intersection
from .ratio import HeadBodyRatio

_MIN_HEIGHT = 12.0
# body occupies at most this fraction of the image height
_MAX_HEIGHT_FRACTION = 0.92
# safety inset so derived body boxes stay strictly inside the image
_EDGE_INSET = 1e-6

_HEAD_ASPECT = 1.25  # head height : width
# spread of log body height around the median for unanchored persons
_LOG_HEIGHT_SIGMA = 0.5
# the head-body ratio scenes are generated with
_TRUE_RATIO = HeadBodyRatio(3.0, 8.0, 0.0, 3.5)
# (mean, std) of the detector scores, clipped to [0, 1]
_TP_SCORE = (0.75, 0.12)
_FP_SCORE = (0.40, 0.15)
# Upper bound on the Poisson means (persons and false positives per scene),
# far above any useful value: a larger one is rejected by name before it can
# draw millions of boxes into a per-person loop.
MAX_POISSON_MEAN = 1000.0
# Upper bound on a split's expected person count, the scene count times
# `persons_per_image`: each setting within its own bound still admits 10^8
# persons, hours of drawing and gigabytes of output.
MAX_EXPECTED_PERSONS = 1_000_000


def _check_poisson_mean(name: str, value: float) -> None:
    if value > MAX_POISSON_MEAN:
        raise ValueError(f"{name} must be at most MAX_POISSON_MEAN = {MAX_POISSON_MEAN}, "
                         f"got {value}")


@dataclass(frozen=True)
class SimConfig:
    image_size: tuple[float, float] = (1333.0, 800.0)
    persons_per_image: float = 22.6
    crowd_cluster_prob: float = 0.5
    median_height: float = 84.0
    seed: int = 0

    def __post_init__(self):
        w, h = self.image_size
        object.__setattr__(self, "image_size", (float(w), float(h)))
        # each comparison is written so that NaN fails it
        if not (0.0 < w < math.inf and 0.0 < h < math.inf):
            raise ValueError(f"image_size must be positive and finite, got {self.image_size}")
        if not 0.0 <= self.crowd_cluster_prob <= 1.0:
            raise ValueError(f"crowd_cluster_prob {self.crowd_cluster_prob} outside [0, 1]")
        if not 0.0 < self.median_height < math.inf:
            raise ValueError(f"median_height must be positive and finite, "
                             f"got {self.median_height}")
        if not 0.0 <= self.persons_per_image < math.inf:
            raise ValueError(f"persons_per_image must be non-negative and finite, "
                             f"got {self.persons_per_image}")
        _check_poisson_mean("persons_per_image", self.persons_per_image)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class NoiseConfig:
    detect_prob: float = 0.95
    loc_jitter_sigma: float = 0.02  # corner noise, fraction of box extent
    head_fp_rate: float = 1.0  # Poisson mean per scene
    body_fp_rate: float = 0.5
    # body boxes of overlapping persons drift toward the neighbor, the crowd
    # regression failure NMS then punishes; max blend factor, drawn uniformly
    crowd_attraction: float = 0.35
    seed: int = 0

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        if not 0.0 <= self.detect_prob <= 1.0:
            raise ValueError(f"detect_prob {self.detect_prob} outside [0, 1]")
        if not 0.0 <= self.crowd_attraction < 1.0:
            raise ValueError(f"crowd_attraction {self.crowd_attraction} outside [0, 1)")
        for name in ("loc_jitter_sigma", "head_fp_rate", "body_fp_rate"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {getattr(self, name)}")
        for name in ("head_fp_rate", "body_fp_rate"):
            _check_poisson_mean(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# scene generation

def _center_box(cx: float, cy: float, w: float, h: float) -> tuple:
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def _center(box) -> tuple[float, float]:
    return (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0


def _boxes(corners: list[float]) -> list[tuple]:
    """The boxes of a row's flat corner list."""
    return list(zip(*[iter(corners)] * 4))


def apply_ratio(head, ratio: HeadBodyRatio) -> tuple:
    """Infer a body box from a head box."""
    (hcx, hcy), hw, hh = _center(head), head[2] - head[0], head[3] - head[1]
    return _center_box(hcx + ratio.delta_x * hw, hcy + ratio.delta_y * hh,
                       ratio.alpha_w * hw, ratio.alpha_h * hh)


def _feasible_center_range(head_w, head_h, ratio, image_w, image_h):
    """Interval of head centers keeping both boxes inside the image."""
    body_w = ratio.alpha_w * head_w
    body_h = ratio.alpha_h * head_h
    lo_x = max(head_w / 2.0, body_w / 2.0 - ratio.delta_x * head_w) + _EDGE_INSET
    hi_x = min(image_w - head_w / 2.0,
               image_w - body_w / 2.0 - ratio.delta_x * head_w) - _EDGE_INSET
    lo_y = max(head_h / 2.0, body_h / 2.0 - ratio.delta_y * head_h) + _EDGE_INSET
    hi_y = min(image_h - head_h / 2.0,
               image_h - body_h / 2.0 - ratio.delta_y * head_h) - _EDGE_INSET
    return lo_x, hi_x, lo_y, hi_y


def generate_scene(cfg: SimConfig, index: int) -> tuple:
    """Build one scene's row; scene `index` is seeded with cfg.seed + index."""
    rng = np.random.default_rng(cfg.seed + index)
    img_w, img_h = cfg.image_size
    ratio = _TRUE_RATIO
    count = int(rng.poisson(cfg.persons_per_image))

    heads: list[tuple] = []
    # unpaired persons eligible as overlap anchors; pairing keeps crowd
    # overlaps pairwise instead of snowballing into many-body stacks
    free: list[int] = []
    for _ in range(count):
        anchor_body = None
        if free and rng.random() < cfg.crowd_cluster_prob:
            slot = int(rng.integers(len(free)))
            anchor_body = apply_ratio(heads[free.pop(slot)], ratio)

        if anchor_body is None:
            height = cfg.median_height * math.exp(_LOG_HEIGHT_SIGMA * rng.standard_normal())
        else:
            height = (anchor_body[3] - anchor_body[1]) * math.exp(rng.normal(0.0, 0.05))
        height = min(max(height, _MIN_HEIGHT), _MAX_HEIGHT_FRACTION * img_h)
        head_h = height / ratio.alpha_h
        head_w = head_h / _HEAD_ASPECT
        lo_x, hi_x, lo_y, hi_y = _feasible_center_range(head_w, head_h, ratio, img_w, img_h)
        if lo_x > hi_x or lo_y > hi_y:
            continue

        if anchor_body is None:
            cx = lo_x + (hi_x - lo_x) * rng.random()
            cy = lo_y + (hi_y - lo_y) * rng.random()
            free.append(len(heads))
        else:
            bw = anchor_body[2] - anchor_body[0]
            acx, acy = _center(anchor_body)
            # lateral offset floor keeps neighbors geometrically distinct
            offset = bw * (0.25 + abs(rng.normal(0.0, 0.18)))
            sign = -1.0 if rng.random() < 0.5 else 1.0
            dy = (anchor_body[3] - anchor_body[1]) * rng.normal(0.0, 0.0625)
            # the first side whose head lands off the anchor's axis, else the first
            cands = [min(max(acx + s * offset - ratio.delta_x * head_w, lo_x), hi_x)
                     for s in (sign, -sign)]
            cx = next((c for c in cands if abs(c + ratio.delta_x * head_w - acx) >= 0.15 * bw),
                      cands[0])
            cy = min(max(acy + dy - ratio.delta_y * head_h, lo_y), hi_y)
        heads.append(_center_box(cx, cy, head_w, head_h))

    bodies = [apply_ratio(h, ratio) for h in heads]
    # clamp heads into their bodies: the ratio puts the head top flush with
    # the body top, where float rounding can violate containment by one ulp
    heads = [(max(h[0], b[0]), max(h[1], b[1]), min(h[2], b[2]), min(h[3], b[3]))
             for h, b in zip(heads, bodies)]
    return (f"s{index:05d}", img_w, img_h, list(range(len(heads))),
            [v for h in heads for v in h], [v for b in bodies for v in b],
            [False] * len(heads), _occlusion_ratios(bodies))


def generate_scenes(cfg: SimConfig, num_scenes: int) -> list[tuple]:
    """`num_scenes` scenes; a split of more than `MAX_EXPECTED_PERSONS`
    expected persons is rejected before any scene is drawn."""
    if num_scenes * cfg.persons_per_image > MAX_EXPECTED_PERSONS:
        raise ValueError(f"num_scenes ({num_scenes}) times sim.persons_per_image "
                         f"({cfg.persons_per_image}) must be at most "
                         f"MAX_EXPECTED_PERSONS = {MAX_EXPECTED_PERSONS} expected persons")
    return [generate_scene(cfg, i) for i in range(num_scenes)]


def _painter_overlaps(bodies: list[tuple], ids) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise body intersections and the mask `behind[i, j]`: body j is
    behind body i in painter order."""
    boxes = np.array(bodies, dtype=np.float64).reshape(-1, 4)
    depth = np.empty(len(boxes), dtype=np.intp)
    depth[np.lexsort((np.asarray(ids), boxes[:, 3]))] = np.arange(len(boxes))
    return pairwise_intersection(boxes, boxes), depth < depth[:, None]


def _occlusion_ratios(bodies: list[tuple]) -> list[float]:
    """Fraction of each body covered by bodies in front of it."""
    if len(bodies) < 2:
        return [0.0] * len(bodies)
    inter, behind = _painter_overlaps(bodies, range(len(bodies)))
    ratios = []
    # a zero-area body overlaps nothing, so it is never divided by
    for body, in_front in zip(bodies, (behind.T & (inter > 0.0)).tolist()):
        others = [b for b, front in zip(bodies, in_front) if front]
        area = (body[2] - body[0]) * (body[3] - body[1])
        ratios.append(min(_covered_area(body, others) / area, 1.0) if others else 0.0)
    return ratios


def _covered_area(target: tuple, others: list[tuple]) -> float:
    """Area of target covered by the union of the other boxes.

    Coordinate compression over x, interval union over y per strip; exact for
    axis-aligned boxes, no rasterization.
    """
    clipped = []
    tx1, ty1, tx2, ty2 = target
    for ox1, oy1, ox2, oy2 in others:
        x1, y1 = max(ox1, tx1), max(oy1, ty1)
        x2, y2 = min(ox2, tx2), min(oy2, ty2)
        if x2 > x1 and y2 > y1:
            clipped.append((x1, y1, x2, y2))
    if not clipped:
        return 0.0
    xs = sorted({v for b in clipped for v in (b[0], b[2])})
    total = 0.0
    for xa, xb in zip(xs, xs[1:]):
        spans = sorted((b[1], b[3]) for b in clipped if b[0] <= xa and b[2] >= xb)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += covered * (xb - xa)
    return total


# ---------------------------------------------------------------------------
# detector model

def _clip_score(rng, mean, std):
    return float(min(max(rng.normal(mean, std), 0.0), 1.0))


def _jitter_box(rng, box: tuple, sigma: float, img_w: float, img_h: float) -> tuple | None:
    bx1, by1, bx2, by2 = box
    w, h = bx2 - bx1, by2 - by1
    x1 = bx1 + rng.normal(0.0, sigma * w)
    x2 = bx2 + rng.normal(0.0, sigma * w)
    y1 = by1 + rng.normal(0.0, sigma * h)
    y2 = by2 + rng.normal(0.0, sigma * h)
    return _bounded_box(x1, y1, x2, y2, img_w, img_h)


def _bounded_box(x1, y1, x2, y2, img_w, img_h) -> tuple | None:
    x1, x2 = min(x1, x2), max(x1, x2)
    y1, y2 = min(y1, y2), max(y1, y2)
    x1, x2 = max(x1, 0.0), min(x2, img_w)
    y1, y2 = max(y1, 0.0), min(y2, img_h)
    if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
        return None
    return x1, y1, x2, y2


def _overlap_partners(ids: list[int], bodies: list[tuple]) -> dict[int, tuple]:
    """Drift target per person id: the body it most overlaps among those
    behind it.

    Only the occluder's detection drifts (its box absorbs the occludee's
    evidence); the occludee keeps an honest box.  Of equal overlaps the
    first person in the scene wins.
    """
    if len(ids) < 2:
        return {}
    inter, behind = _painter_overlaps(bodies, ids)
    inter[~behind] = 0.0
    best = inter.argmax(axis=1).tolist()
    return {person_id: bodies[j]
            for i, (person_id, j) in enumerate(zip(ids, best)) if inter[i, j] > 0.0}


def _attract(rng, box: tuple, target: tuple, max_blend: float,
             img_w: float, img_h: float) -> tuple | None:
    a = rng.uniform(0.0, max_blend)
    return _bounded_box(*(v + a * (t - v) for v, t in zip(box, target)), img_w, img_h)


_HEAD_FP_SITES = ("bottom_left", "bottom_right", "bottom_center",
                  "left_edge", "right_edge", "lower_half")


def _head_fp_box(rng, head: tuple, body: tuple, img_w, img_h) -> tuple | None:
    bx1, _, bx2, by2 = body
    hw = (head[2] - head[0]) * math.exp(rng.normal(0.0, 0.1))
    hh = (head[3] - head[1]) * math.exp(rng.normal(0.0, 0.1))
    bcx, bcy = _center(body)
    site = _HEAD_FP_SITES[int(rng.integers(len(_HEAD_FP_SITES)))]
    if site == "bottom_left":
        cx, cy = bx1, by2
    elif site == "bottom_right":
        cx, cy = bx2, by2
    elif site == "bottom_center":
        cx, cy = bcx, by2 - 0.6 * hh
    elif site == "left_edge":
        cx, cy = bx1, bcy
    elif site == "right_edge":
        cx, cy = bx2, bcy
    else:
        lo_x, hi_x = bx1 + hw / 2.0, bx2 - hw / 2.0
        lo_y, hi_y = bcy, by2 - hh / 2.0
        if lo_x >= hi_x or lo_y >= hi_y:
            cx, cy = bcx, bcy
        else:
            cx = lo_x + (hi_x - lo_x) * rng.random()
            cy = lo_y + (hi_y - lo_y) * rng.random()
    return _bounded_box(cx - hw / 2.0, cy - hh / 2.0,
                        cx + hw / 2.0, cy + hh / 2.0, img_w, img_h)


def _body_fp_box(rng, body: tuple, img_w, img_h) -> tuple | None:
    w, h = body[2] - body[0], body[3] - body[1]
    bw = w * math.exp(rng.normal(0.0, 0.1))
    bh = h * math.exp(rng.normal(0.0, 0.1))
    bcx, bcy = _center(body)
    # lateral shift at least 0.6 widths keeps IoU with the source below 0.5
    shift = (0.6 + 0.6 * rng.random()) * w
    sign = -1.0 if rng.random() < 0.5 else 1.0
    cx = bcx + sign * shift
    cy = bcy + h * rng.normal(0.0, 0.05)
    return _bounded_box(cx - bw / 2.0, cy - bh / 2.0,
                        cx + bw / 2.0, cy + bh / 2.0, img_w, img_h)


def simulate_detector(scene: tuple, noise: NoiseConfig,
                      rng: np.random.Generator) -> tuple[list[tuple], list[tuple]]:
    """Emit pre-NMS head and body detections, (box, score) pairs, for one
    scene row.

    Per person one Bernoulli(detect_prob) draw decides whether both its head
    and body detections fire; detected boxes are corner-jittered and scored
    from the TP distribution.  False positives are added per scene: head FPs
    at limb-like sites of random persons, body FPs as laterally shifted
    copies, both scored from the FP distribution.
    """
    _, img_w, img_h, ids, heads, bodies, *_ = scene
    body_boxes = _boxes(bodies)
    persons = list(zip(ids, _boxes(heads), body_boxes))
    head_dets: list[tuple] = []
    body_dets: list[tuple] = []

    def emit(dets, box, score):
        if box is not None:
            dets.append((box, score))

    partners = _overlap_partners(ids, body_boxes) if noise.crowd_attraction > 0 else {}
    for person_id, head, body in persons:
        if rng.random() >= noise.detect_prob:
            continue
        hbox = _jitter_box(rng, head, noise.loc_jitter_sigma, img_w, img_h)
        bbox = _jitter_box(rng, body, noise.loc_jitter_sigma, img_w, img_h)
        partner = partners.get(person_id)
        if bbox is not None and partner is not None:
            bbox = _attract(rng, bbox, partner, noise.crowd_attraction, img_w, img_h)
        emit(head_dets, hbox, _clip_score(rng, *_TP_SCORE))
        emit(body_dets, bbox, _clip_score(rng, *_TP_SCORE))

    if persons:
        for _ in range(int(rng.poisson(noise.head_fp_rate))):
            _, head, body = persons[int(rng.integers(len(persons)))]
            emit(head_dets, _head_fp_box(rng, head, body, img_w, img_h),
                 _clip_score(rng, *_FP_SCORE))
        for _ in range(int(rng.poisson(noise.body_fp_rate))):
            _, _, body = persons[int(rng.integers(len(persons)))]
            emit(body_dets, _body_fp_box(rng, body, img_w, img_h),
                 _clip_score(rng, *_FP_SCORE))

    return head_dets, body_dets


def simulate_detections(scenes: list[tuple], noise: NoiseConfig,
                        ) -> dict[str, tuple[list[tuple], list[tuple]]]:
    """Run the detector over scene rows with per-scene child seeds [seed,
    index]: each scene's (heads, bodies) by its id."""
    out = {}
    for index, scene in enumerate(scenes):
        rng = np.random.default_rng([noise.seed, index])
        out[scene[0]] = simulate_detector(scene, noise, rng)
    return out
