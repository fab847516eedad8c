"""Log-average miss rate evaluation (Caltech-style protocol).

Detections are greedily matched per scene in descending score order; the miss
rate / false-positives-per-image curve is swept over every detection score,
and the reported number is the geometric mean of the miss rates sampled at 9
log-spaced FPPI reference points between 0.01 and 1.  Lower is better.

The matching of many scenes shares one IoU call and one greedy pass: the
ranked detections and the ground truth of each scene are stacked into
(scenes, n, 4) and (scenes, m, 4) arrays, zero-padded to the largest scene of
the batch.  A zero box has IoU 0 with every box, and `EvalConfig` requires a
match threshold above 0, so padding never matches.  A batch holds at most
`_PAIR_BUDGET` padded detection/ground-truth pairs, which bounds its memory;
a scene larger than that is matched on its own.  `match_to_gt` is the
one-scene call of the same matcher.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .data_model import BODY, HEAD, Detection, PersonInstance, Scene
from .fileio import atomic_write_text
from .geometry import greedy_match, pairwise_iou

TP = "TP"
FP = "FP"
IGNORED = "ignored"

# 10^(-2 + k/4) for k = 0..8
FPPI_POINTS = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))

# the Reasonable subset: persons at least this tall and less occluded than this
REASONABLE_MIN_HEIGHT = 50.0
REASONABLE_MAX_OCCLUSION = 0.35

# padded detection/ground-truth pairs per batched IoU call
_PAIR_BUDGET = 4096

_GT_BOX = {HEAD: attrgetter("head"), BODY: attrgetter("body")}
_ZERO_BOX = (0.0, 0.0, 0.0, 0.0)

# floor inside the log; only the all-zero case would hit it and that is
# special-cased to an exact 0
_MISS_FLOOR = 1e-10


@dataclass(frozen=True)
class EvalConfig:
    iou_match_threshold: float = 0.5
    class_under_test: str = BODY

    def __post_init__(self):
        if not 0.0 < self.iou_match_threshold <= 1.0:
            raise ValueError(f"iou_match_threshold {self.iou_match_threshold} outside (0, 1]")
        if self.class_under_test not in (HEAD, BODY):
            raise ValueError(f"unknown class {self.class_under_test!r}")


@dataclass(frozen=True)
class EvalResult:
    mr2: float
    curve: tuple[tuple[float, float, float], ...]  # (score threshold, fppi, miss rate)
    num_gt: int
    num_images: int


def _reasonable(p: PersonInstance) -> bool:
    return (p.body.height >= REASONABLE_MIN_HEIGHT
            and p.occlusion_ratio < REASONABLE_MAX_OCCLUSION)


def reasonable_filter(scene: Scene) -> Scene:
    """Ignore-flag persons failing the evaluation filter.

    Kept: height at least `REASONABLE_MIN_HEIGHT` and occlusion ratio strictly
    below `REASONABLE_MAX_OCCLUSION`.  Failing persons are flagged, not
    deleted, so detections on them do not count as false positives.
    """
    persons = [p if p.ignore or _reasonable(p) else replace(p, ignore=True)
               for p in scene.persons]
    return Scene(scene.scene_id, scene.width, scene.height, tuple(persons))


def match_to_gt(dets: list[Detection], scene: Scene, cfg: EvalConfig) -> list[tuple[int, str]]:
    """Greedy per-scene matching, descending score.

    Each detection takes the unmatched non-ignored ground truth of maximal IoU
    when it reaches the threshold (TP); failing that, overlap with any ignored
    ground truth at the threshold absorbs it (neither TP nor FP); otherwise it
    is an FP.  Non-ignored ground truths match at most once; ignored ones may
    absorb any number of detections.
    """
    gt_box = _GT_BOX[cfg.class_under_test]
    ranked = _ranked(dets)
    outcomes, = _match_batch([(ranked,
                               [gt_box(p) for p in scene.persons if not p.ignore],
                               [gt_box(p) for p in scene.persons if p.ignore])],
                             cfg.iou_match_threshold)
    return [(d.det_id, outcome) for d, outcome in zip(ranked, outcomes)]


def _ranked(dets) -> list[Detection]:
    return sorted(dets, key=lambda d: (-d.score, d.det_id))


def _append_boxes(coords: list[float], boxes, size: int) -> None:
    """Append the corners of `boxes`, zero-padded to `size` boxes."""
    for b in boxes:
        coords += (b.x_min, b.y_min, b.x_max, b.y_max)
    coords += _ZERO_BOX * (size - len(boxes))


def _match_batch(jobs, thr: float) -> list[list[str]]:
    """`match_to_gt` outcomes for each `(ranked detections, matchable boxes,
    ignored boxes)` job, in ranked order, from one IoU call over the stack."""
    n = max(len(ranked) for ranked, _, _ in jobs)
    n_matchable = max(len(matchable) for _, matchable, _ in jobs)
    n_ignored = max(len(ignored) for _, _, ignored in jobs)
    det_coords: list[float] = []
    gt_coords: list[float] = []
    for ranked, matchable, ignored in jobs:
        _append_boxes(det_coords, [d.box for d in ranked], n)
        # matchable ground truth in the leading columns, ignored after them
        _append_boxes(gt_coords, matchable, n_matchable)
        _append_boxes(gt_coords, ignored, n_ignored)
    ious = pairwise_iou(np.array(det_coords, dtype=np.float64).reshape(len(jobs), n, 4),
                        np.array(gt_coords, dtype=np.float64).reshape(
                            len(jobs), n_matchable + n_ignored, 4))
    matched = greedy_match(ious[..., :n_matchable], thr)
    absorbed = (ious[..., n_matchable:] >= thr).any(axis=-1).tolist()
    return [[TP if j >= 0 else IGNORED if a else FP for _, j, a in zip(ranked, js, hit)]
            for (ranked, _, _), js, hit in zip(jobs, matched, absorbed)]


def _batches(work):
    """Consecutive runs of `(scene_id, job)` items whose zero-padded stack
    stays within `_PAIR_BUDGET` pairs; a job larger than that forms a batch
    alone."""
    batch: list = []
    shape = (0, 0, 0)  # the batch's largest detection, matchable and ignored counts
    for item in work:
        sizes = tuple(map(len, item[1]))
        grown = tuple(map(max, shape, sizes))
        if batch and (len(batch) + 1) * grown[0] * (grown[1] + grown[2]) > _PAIR_BUDGET:
            yield batch
            batch, grown = [], sizes
        batch.append(item)
        shape = grown
    if batch:
        yield batch


def compute_mr2(dets: list[tuple[str, Detection]], scenes: list[Scene],
                cfg: EvalConfig) -> EvalResult:
    """Evaluate the `(scene_id, detection)` pairs of one class against all scenes.

    Applies the Reasonable filter, matches per scene, then sweeps every
    distinct detection score as a keep-threshold.  For each FPPI reference
    point the lowest miss rate among curve points at or below it is taken
    (1.0 when the curve never gets there).
    """
    by_scene: dict[str, list[Detection]] = {}
    scene_ids = {s.scene_id for s in scenes}
    for scene_id, d in dets:
        if scene_id not in scene_ids:
            raise ValueError(f"detection scene {scene_id!r} has no ground truth")
        by_scene.setdefault(scene_id, []).append(d)

    gt_box = _GT_BOX[cfg.class_under_test]
    num_gt = 0
    work = []  # (scene_id, (ranked detections, matchable boxes, ignored boxes))
    for scene in scenes:
        # the split that reasonable_filter then match_to_gt make, without
        # building a filtered Scene
        matchable, ignored = [], []
        for p in scene.persons:
            (ignored if p.ignore or not _reasonable(p) else matchable).append(gt_box(p))
        num_gt += len(matchable)
        scene_dets = by_scene.pop(scene.scene_id, None)
        if scene_dets:
            work.append((scene.scene_id, (_ranked(scene_dets), matchable, ignored)))
    if num_gt == 0:
        raise ValueError("no ground truth left after the Reasonable filter")
    num_images = len(scenes)

    # scenes of like size share a batch, which keeps the padding small; the
    # pool is sorted below, so the order scenes are matched in does not show
    work.sort(key=lambda item: tuple(map(len, item[1])))
    pool: list[tuple[float, str, str, int]] = []  # (score, outcome, scene_id, det_id)
    for batch in _batches(work):
        outcomes = _match_batch([job for _, job in batch], cfg.iou_match_threshold)
        for (scene_id, (ranked, _, _)), scene_outcomes in zip(batch, outcomes):
            pool += [(d.score, outcome, scene_id, d.det_id)
                     for d, outcome in zip(ranked, scene_outcomes) if outcome != IGNORED]

    pool.sort(key=lambda item: (-item[0], item[2], item[3]))
    # Sweep every distinct input score, not just scores of counted outcomes:
    # a level where only ignored detections enter still yields a curve point.
    thresholds = sorted({d.score for _, d in dets}, reverse=True)
    curve = []
    tp = fp = 0
    i = 0
    for threshold in thresholds:
        while i < len(pool) and pool[i][0] >= threshold:
            if pool[i][1] == TP:
                tp += 1
            else:
                fp += 1
            i += 1
        curve.append((threshold, fp / num_images, 1.0 - tp / num_gt))

    mr2 = log_average_miss_rate(curve, FPPI_POINTS)
    return EvalResult(mr2=mr2, curve=tuple(curve), num_gt=num_gt, num_images=num_images)


def log_average_miss_rate(curve, fppi_points) -> float:
    samples = []
    for ref in fppi_points:
        eligible = [miss for _, fppi, miss in curve if fppi <= ref]
        samples.append(min(eligible) if eligible else 1.0)
    if all(m == 0.0 for m in samples):
        return 0.0
    return math.exp(sum(math.log(max(m, _MISS_FLOOR)) for m in samples) / len(samples))


# ---------------------------------------------------------------------------
# result files

def write_result_json(result: EvalResult, path, name: str, class_name: str) -> None:
    obj = {"name": name, "class": class_name, "mr2": result.mr2,
           "num_gt": result.num_gt, "num_images": result.num_images}
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def write_curve_csv(result: EvalResult, path) -> None:
    lines = ["threshold,fppi,miss_rate"]
    lines += [f"{t!r},{f!r},{m!r}" for t, f, m in result.curve]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG plot (hand-rolled so output bytes are reproducible)

def write_curve_svg(name: str, result: EvalResult, path) -> None:
    """Log-log miss rate vs FPPI plot over the protocol's FPPI range; the
    legend line carries the MR score as 'NAME XX.XX%'."""
    width, height = 640, 480
    left, right, top, bottom = 70, 24, 24, 56
    pw, ph = width - left - right, height - top - bottom

    x_lo, x_hi = math.log10(FPPI_POINTS[0]), math.log10(FPPI_POINTS[-1])
    y_hi = 0.0  # miss rate 1.0
    y_lo = _curve_floor(result)

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
             'fill="none" stroke="#222222"/>']

    for d in range(int(math.ceil(x_lo)), int(math.floor(x_hi)) + 1):
        x = px(float(d))
        parts.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{top + ph}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + ph + 18}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">1e{d}</text>')
    for d in range(int(math.ceil(y_lo)), 1):
        y = py(float(d))
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{left + pw}" y2="{y:.2f}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">1e{d}</text>')
    parts.append(f'<text x="{left + pw / 2:.2f}" y="{height - 14}" font-size="13" '
                 'text-anchor="middle" font-family="sans-serif">'
                 'false positives per image</text>')
    parts.append(f'<text x="16" y="{top + ph / 2:.2f}" font-size="13" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {top + ph / 2:.2f})">miss rate</text>')

    color = "#d62728"
    pts = []
    for _t, fppi, miss in sorted(result.curve, key=lambda c: c[1]):
        if fppi <= 0.0:
            continue
        x = min(max(math.log10(fppi), x_lo), x_hi)
        y = min(max(math.log10(max(miss, 10.0 ** y_lo)), y_lo), y_hi)
        pts.append(f"{px(x):.2f},{py(y):.2f}")
    if pts:
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    ly = top + 18
    # escaped by hand: xml.sax.saxutils pulls in urllib.request at import
    label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts.append(f'<line x1="{left + pw - 150}" y1="{ly - 4}" x2="{left + pw - 120}" '
                 f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
    parts.append(f'<text x="{left + pw - 114}" y="{ly}" font-size="12" '
                 f'font-family="sans-serif">{label} {result.mr2 * 100.0:.2f}%</text>')

    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def _curve_floor(result: EvalResult) -> float:
    lo = -1.0
    for _t, _f, miss in result.curve:
        if miss > 0.0:
            lo = min(lo, math.floor(math.log10(miss)))
    return max(lo, -4.0)
