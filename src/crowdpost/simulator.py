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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import pairwise_intersection
from .ratio import HeadBodyRatio
from .records import BBox, Detection, PersonInstance, Scene, area, box_array

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

def apply_ratio(head: BBox, ratio: HeadBodyRatio) -> BBox:
    """Infer a body box from a head box."""
    (hcx, hcy), hw, hh = head.center, head.width, head.height
    return BBox.from_center_size(hcx + ratio.delta_x * hw, hcy + ratio.delta_y * hh,
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


def generate_scene(cfg: SimConfig, index: int = 0) -> Scene:
    """Build one scene; scene `index` is seeded with cfg.seed + index."""
    rng = np.random.default_rng(cfg.seed + index)
    img_w, img_h = cfg.image_size
    ratio = _TRUE_RATIO
    count = int(rng.poisson(cfg.persons_per_image))

    heads: list[BBox] = []
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
            height = anchor_body.height * math.exp(rng.normal(0.0, 0.05))
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
            bw = anchor_body.width
            acx, acy = anchor_body.center
            # lateral offset floor keeps neighbors geometrically distinct
            offset = bw * (0.25 + abs(rng.normal(0.0, 0.18)))
            sign = -1.0 if rng.random() < 0.5 else 1.0
            dy = anchor_body.height * rng.normal(0.0, 0.0625)
            cx = None
            for s in (sign, -sign):
                cand = min(max(acx + s * offset - ratio.delta_x * head_w, lo_x), hi_x)
                if abs(cand + ratio.delta_x * head_w - acx) >= 0.15 * bw:
                    cx = cand
                    break
            if cx is None:
                cx = min(max(acx + sign * offset - ratio.delta_x * head_w, lo_x), hi_x)
            cy = min(max(acy + dy - ratio.delta_y * head_h, lo_y), hi_y)
        heads.append(BBox.from_center_size(cx, cy, head_w, head_h))

    bodies = [apply_ratio(h, ratio) for h in heads]
    # clamp heads into their bodies: the ratio puts the head top flush with
    # the body top, where float rounding can violate containment by one ulp
    heads = [BBox(max(h.x_min, b.x_min), max(h.y_min, b.y_min),
                  min(h.x_max, b.x_max), min(h.y_max, b.y_max))
             for h, b in zip(heads, bodies)]
    occ = _occlusion_ratios(bodies)
    persons = tuple(
        PersonInstance(person_id=i, head=heads[i], body=bodies[i],
                       ignore=False, occlusion_ratio=occ[i])
        for i in range(len(heads)))
    return Scene(scene_id=f"s{index:05d}", width=img_w, height=img_h, persons=persons)


def generate_scenes(cfg: SimConfig, num_scenes: int) -> list[Scene]:
    """`num_scenes` scenes; a split of more than `MAX_EXPECTED_PERSONS`
    expected persons is rejected before any scene is drawn."""
    if num_scenes * cfg.persons_per_image > MAX_EXPECTED_PERSONS:
        raise ValueError(f"num_scenes ({num_scenes}) times sim.persons_per_image "
                         f"({cfg.persons_per_image}) must be at most "
                         f"MAX_EXPECTED_PERSONS = {MAX_EXPECTED_PERSONS} expected persons")
    return [generate_scene(cfg, i) for i in range(num_scenes)]


def _painter_overlaps(bodies: list[BBox], ids) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise body intersections and the mask `behind[i, j]`: body j is
    behind body i in painter order."""
    boxes = box_array(bodies)
    depth = np.empty(len(boxes), dtype=np.intp)
    depth[np.lexsort((np.asarray(ids), boxes[:, 3]))] = np.arange(len(boxes))
    return pairwise_intersection(boxes, boxes), depth < depth[:, None]


def _occlusion_ratios(bodies: list[BBox]) -> list[float]:
    """Fraction of each body covered by bodies in front of it."""
    if len(bodies) < 2:
        return [0.0] * len(bodies)
    inter, behind = _painter_overlaps(bodies, range(len(bodies)))
    ratios = []
    # a zero-area body overlaps nothing, so it is never divided by
    for body, in_front in zip(bodies, (behind.T & (inter > 0.0)).tolist()):
        others = [b for b, front in zip(bodies, in_front) if front]
        ratios.append(min(_covered_area(body, others) / area(body), 1.0) if others else 0.0)
    return ratios


def _covered_area(target: BBox, others: list[BBox]) -> float:
    """Area of target covered by the union of the other boxes.

    Coordinate compression over x, interval union over y per strip; exact for
    axis-aligned boxes, no rasterization.
    """
    clipped = []
    for o in others:
        x1, y1 = max(o.x_min, target.x_min), max(o.y_min, target.y_min)
        x2, y2 = min(o.x_max, target.x_max), min(o.y_max, target.y_max)
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


def _jitter_box(rng, box: BBox, sigma: float, img_w: float, img_h: float) -> BBox:
    w, h = box.width, box.height
    x1 = box.x_min + rng.normal(0.0, sigma * w)
    x2 = box.x_max + rng.normal(0.0, sigma * w)
    y1 = box.y_min + rng.normal(0.0, sigma * h)
    y2 = box.y_max + rng.normal(0.0, sigma * h)
    return _bounded_box(x1, y1, x2, y2, img_w, img_h)


def _bounded_box(x1, y1, x2, y2, img_w, img_h) -> BBox | None:
    x1, x2 = min(x1, x2), max(x1, x2)
    y1, y2 = min(y1, y2), max(y1, y2)
    x1, x2 = max(x1, 0.0), min(x2, img_w)
    y1, y2 = max(y1, 0.0), min(y2, img_h)
    if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
        return None
    return BBox(x1, y1, x2, y2)


def _overlap_partners(scene: Scene) -> dict[int, BBox]:
    """Drift target per person: the body it most overlaps among those behind it.

    Only the occluder's detection drifts (its box absorbs the occludee's
    evidence); the occludee keeps an honest box.  Of equal overlaps the
    first person in the scene wins.
    """
    persons = scene.persons
    if len(persons) < 2:
        return {}
    inter, behind = _painter_overlaps([p.body for p in persons],
                                      [p.person_id for p in persons])
    inter[~behind] = 0.0
    best = inter.argmax(axis=1).tolist()
    return {p.person_id: persons[j].body
            for i, (p, j) in enumerate(zip(persons, best)) if inter[i, j] > 0.0}


def _attract(rng, box: BBox, target: BBox, max_blend: float,
             img_w: float, img_h: float) -> BBox | None:
    a = rng.uniform(0.0, max_blend)
    return _bounded_box(box.x_min + a * (target.x_min - box.x_min),
                        box.y_min + a * (target.y_min - box.y_min),
                        box.x_max + a * (target.x_max - box.x_max),
                        box.y_max + a * (target.y_max - box.y_max),
                        img_w, img_h)


_HEAD_FP_SITES = ("bottom_left", "bottom_right", "bottom_center",
                  "left_edge", "right_edge", "lower_half")


def _head_fp_box(rng, person: PersonInstance, img_w, img_h) -> BBox | None:
    b = person.body
    hw = person.head.width * math.exp(rng.normal(0.0, 0.1))
    hh = person.head.height * math.exp(rng.normal(0.0, 0.1))
    bcx, bcy = b.center
    site = _HEAD_FP_SITES[int(rng.integers(len(_HEAD_FP_SITES)))]
    if site == "bottom_left":
        cx, cy = b.x_min, b.y_max
    elif site == "bottom_right":
        cx, cy = b.x_max, b.y_max
    elif site == "bottom_center":
        cx, cy = bcx, b.y_max - 0.6 * hh
    elif site == "left_edge":
        cx, cy = b.x_min, bcy
    elif site == "right_edge":
        cx, cy = b.x_max, bcy
    else:
        lo_x, hi_x = b.x_min + hw / 2.0, b.x_max - hw / 2.0
        lo_y, hi_y = bcy, b.y_max - hh / 2.0
        if lo_x >= hi_x or lo_y >= hi_y:
            cx, cy = bcx, bcy
        else:
            cx = lo_x + (hi_x - lo_x) * rng.random()
            cy = lo_y + (hi_y - lo_y) * rng.random()
    return _bounded_box(cx - hw / 2.0, cy - hh / 2.0,
                        cx + hw / 2.0, cy + hh / 2.0, img_w, img_h)


def _body_fp_box(rng, person: PersonInstance, img_w, img_h) -> BBox | None:
    b = person.body
    bw = b.width * math.exp(rng.normal(0.0, 0.1))
    bh = b.height * math.exp(rng.normal(0.0, 0.1))
    bcx, bcy = b.center
    # lateral shift at least 0.6 widths keeps IoU with the source below 0.5
    shift = (0.6 + 0.6 * rng.random()) * b.width
    sign = -1.0 if rng.random() < 0.5 else 1.0
    cx = bcx + sign * shift
    cy = bcy + b.height * rng.normal(0.0, 0.05)
    return _bounded_box(cx - bw / 2.0, cy - bh / 2.0,
                        cx + bw / 2.0, cy + bh / 2.0, img_w, img_h)


def simulate_detector(scene: Scene, noise: NoiseConfig,
                      rng: np.random.Generator | None = None,
                      ) -> tuple[list[Detection], list[Detection]]:
    """Emit pre-NMS head and body detections for one scene.

    Per person one Bernoulli(detect_prob) draw decides whether both its head
    and body detections fire; detected boxes are corner-jittered and scored
    from the TP distribution.  False positives are added per scene: head FPs
    at limb-like sites of random persons, body FPs as laterally shifted
    copies, both scored from the FP distribution.
    """
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    img_w, img_h = scene.width, scene.height
    heads: list[Detection] = []
    bodies: list[Detection] = []

    def emit(dets, box, score):
        if box is not None:
            dets.append(Detection(det_id=len(dets), box=box, score=score))

    partners = _overlap_partners(scene) if noise.crowd_attraction > 0 else {}
    for p in scene.persons:
        if rng.random() >= noise.detect_prob:
            continue
        hbox = _jitter_box(rng, p.head, noise.loc_jitter_sigma, img_w, img_h)
        bbox = _jitter_box(rng, p.body, noise.loc_jitter_sigma, img_w, img_h)
        partner = partners.get(p.person_id)
        if bbox is not None and partner is not None:
            bbox = _attract(rng, bbox, partner, noise.crowd_attraction, img_w, img_h)
        emit(heads, hbox, _clip_score(rng, *_TP_SCORE))
        emit(bodies, bbox, _clip_score(rng, *_TP_SCORE))

    if scene.persons:
        for _ in range(int(rng.poisson(noise.head_fp_rate))):
            person = scene.persons[int(rng.integers(len(scene.persons)))]
            emit(heads, _head_fp_box(rng, person, img_w, img_h),
                 _clip_score(rng, *_FP_SCORE))
        for _ in range(int(rng.poisson(noise.body_fp_rate))):
            person = scene.persons[int(rng.integers(len(scene.persons)))]
            emit(bodies, _body_fp_box(rng, person, img_w, img_h),
                 _clip_score(rng, *_FP_SCORE))

    return heads, bodies


def simulate_detections(scenes: list[Scene], noise: NoiseConfig,
                        ) -> dict[str, tuple[list[Detection], list[Detection]]]:
    """Run the detector over scenes with per-scene child seeds [seed, index]."""
    out = {}
    for index, scene in enumerate(scenes):
        rng = np.random.default_rng([noise.seed, index])
        out[scene.scene_id] = simulate_detector(scene, noise, rng)
    return out
