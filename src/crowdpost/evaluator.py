"""Log-average miss rate evaluation (Caltech-style protocol).

Detections are greedily matched per scene in descending score order; the miss
rate / false-positives-per-image curve is swept over every detection score,
and the reported number is the geometric mean of the miss rates sampled at 9
log-spaced FPPI reference points between 0.01 and 1.  Lower is better.

`compute_mr2` works on columns only: the detections' boxes, scores and
scenes, and the persons' boxes and flags, as arrays
(`data_model.DetectionColumns` and `SceneColumns`, which the readers
return).  The matcher, `greedy_assign`, is shared: `train-rdm` labels
its training pairs with it too (`records.build_training_pairs`), and it
answers per detection.  Its matching of many scenes shares one IoU call and
one greedy pass: the ranked detections and the persons of each scene, in
person order, are gathered into (scenes, n, 4) and (scenes, m, 4) arrays,
zero-padded to the largest scene of the batch (`geometry.padded_batches`,
which bounds the padded pairs of a batch).  Ignored persons are a mask over
the columns: the match sees their IoU, and a pad's, as 0, and both callers
match at a threshold above 0, so neither ever matches.  `tests/oracles.py`
holds the one-image references: the greedy match, the Reasonable rule and
the log-average.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data_model import BODY, HEAD, DetectionColumns, SceneColumns, id_keys
from .fileio import atomic_write_text
from .geometry import greedy_match, padded_batches, padded_stack, pairwise_iou

# 10^(-2 + k/4) for k = 0..8
FPPI_POINTS = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))

# the Reasonable subset: persons at least this tall and less occluded than this
REASONABLE_MIN_HEIGHT = 50.0
REASONABLE_MAX_OCCLUSION = 0.35

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


@dataclass(frozen=True)
class EvalResult:
    mr2: float
    curve: tuple[tuple[float, float, float], ...]  # (score threshold, fppi, miss rate)
    num_gt: int
    num_images: int


def greedy_assign(dets: DetectionColumns, det_scene: np.ndarray, gt_boxes: np.ndarray,
                  person_offsets, matchable: np.ndarray, threshold: float):
    """Greedy matching of every scene at once; detection i belongs to scene
    `det_scene[i]`, the persons of scene k are the rows `person_offsets[k]`
    up to `person_offsets[k + 1]` of `gt_boxes`, and ground truth that is
    not `matchable` is ignored.

    Each scene's detections go in ranked order.  A detection takes the
    untaken matchable person of maximal IoU at the threshold, the first in
    person order on ties; failing that, an ignored person at the threshold
    absorbs it.

    Returns, per detection, the row of `gt_boxes` it took, -1 for none, and
    whether an ignored person absorbed it.
    """
    num_scenes = len(person_offsets) - 1
    order = np.lexsort((id_keys(dets.det_ids), -dets.scores, det_scene))
    boxes = dets.boxes[order]
    det_counts = np.bincount(det_scene, minlength=num_scenes)
    det_starts = np.cumsum(det_counts) - det_counts
    gt_starts = np.asarray(person_offsets[:-1], dtype=np.intp)
    gt_counts = np.diff(person_offsets)

    rows = np.full(len(order), -1, dtype=np.intp)
    absorbed = np.zeros(len(order), dtype=bool)
    # a scene without ground truth leaves its detections unmatched
    for batch, (n, m) in padded_batches(det_counts, gt_counts):
        det_stack, (index, slot, pos) = padded_stack(boxes, det_starts[batch],
                                                     det_counts[batch], n)
        gt_stack, (person, gt_slot, gt_pos) = padded_stack(gt_boxes, gt_starts[batch],
                                                          gt_counts[batch], m)
        # the matchable persons; an ignored or a pad column matches nothing
        free = np.zeros((len(batch), 1, m), dtype=bool)
        free[gt_slot, 0, gt_pos] = matchable[person]
        ious = pairwise_iou(det_stack, gt_stack)
        cols = greedy_match(ious * free, threshold)[slot, pos]
        det = order[index]
        rows[det] = np.where(cols >= 0, gt_starts[batch][slot] + cols, -1)
        absorbed[det] = ((ious >= threshold) & ~free).any(axis=-1)[slot, pos]
    return rows, absorbed & (rows < 0)


def compute_mr2(dets: DetectionColumns, scenes: SceneColumns, cfg: EvalConfig) -> EvalResult:
    """Evaluate the detections of one class against all scenes.

    `dets` are the detections of the class under test, as
    `GroupColumns.select` returns them, and `scenes` the ground truth as
    `read_scenes` returns it; their arrays go to the core as they are.

    Applies the Reasonable filter, matches per scene, then sweeps every
    distinct detection score as a keep-threshold.  For each FPPI reference
    point the lowest miss rate among curve points at or below it is taken
    (1.0 when the curve never gets there).
    """
    index = {scene_id: k for k, scene_id in enumerate(scenes.scene_ids)}
    counts = np.diff(dets.det_offsets)
    group_scene = []
    for scene_id, count in zip(dets.scene_ids, counts.tolist()):
        k = index.get(scene_id)
        if k is None and count:
            raise ValueError(f"detection scene {scene_id!r} has no ground truth")
        group_scene.append(k or 0)
    det_scene = np.repeat(np.array(group_scene, dtype=np.intp), counts)

    # the Reasonable subset: persons flagged ignore stay ignored
    bodies = scenes.bodies
    matchable = (~scenes.ignore & (bodies[:, 3] - bodies[:, 1] >= REASONABLE_MIN_HEIGHT)
                 & (scenes.occlusion < REASONABLE_MAX_OCCLUSION))
    num_gt = int(matchable.sum())
    if num_gt == 0:
        raise ValueError("no ground truth left after the Reasonable filter")
    num_images = len(scenes.scene_ids)

    rows, ignored = greedy_assign(
        dets, det_scene, scenes.heads if cfg.class_under_test == HEAD else scenes.bodies,
        scenes.person_offsets, matchable, cfg.iou_match_threshold)
    tp = rows >= 0
    tp_scores = np.sort(dets.scores[tp])
    fp_scores = np.sort(dets.scores[~(tp | ignored)])
    # Sweep every distinct input score, not just scores of counted outcomes:
    # a level where only ignored detections enter still yields a curve point.
    thresholds = _thresholds(dets.scores)
    tps = len(tp_scores) - np.searchsorted(tp_scores, thresholds)
    fps = len(fp_scores) - np.searchsorted(fp_scores, thresholds)
    fppi, miss = fps / num_images, 1.0 - tps / num_gt
    mr2 = _log_average(fppi, miss)
    curve = tuple(zip(thresholds.tolist(), fppi.tolist(), miss.tolist()))
    return EvalResult(mr2=mr2, curve=curve, num_gt=num_gt, num_images=num_images)


def _thresholds(scores: np.ndarray) -> np.ndarray:
    """The distinct scores, descending.  These are the values of
    `np.unique(scores)[::-1]`, found by a sort and a mask of the entries
    that differ from their predecessor, because `np.unique` imports all of
    `numpy.ma` on its first call.  A zero takes the sign of the first zero
    in input order."""
    ordered = np.sort(scores)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    thresholds = ordered[first][::-1]
    if len(thresholds) and thresholds[-1] == 0.0:
        # a set of the scores keeps the first zero in input order, whatever its sign
        thresholds[-1] = scores[np.flatnonzero(scores == 0.0)[0]]
    return thresholds


def _log_average(fppi: np.ndarray, miss: np.ndarray) -> float:
    samples = []
    for ref in FPPI_POINTS:
        eligible = miss[fppi <= ref]
        samples.append(float(eligible.min()) if len(eligible) else 1.0)
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

    # the curve points by ascending FPPI, ties in curve order
    curve = np.array(result.curve, dtype=np.float64).reshape(-1, 3)
    curve = curve[np.argsort(curve[:, 1], kind="stable")]
    x_lo, x_hi = math.log10(FPPI_POINTS[0]), math.log10(FPPI_POINTS[-1])
    y_hi = 0.0  # miss rate 1.0
    y_lo = _curve_floor(curve[:, 2])

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
    fppi, miss = curve[curve[:, 1] > 0.0, 1:].T
    if len(fppi):
        # `math.log10`, because `np.log10` can differ in the last bit
        x = np.fromiter(map(math.log10, fppi.tolist()), dtype=np.float64, count=len(fppi))
        y = np.fromiter(map(math.log10, np.maximum(miss, 10.0 ** y_lo).tolist()),
                        dtype=np.float64, count=len(miss))
        xs = px(np.minimum(np.maximum(x, x_lo), x_hi)).tolist()
        ys = py(np.minimum(np.maximum(y, y_lo), y_hi)).tolist()
        points = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))
        parts.append(f'<polyline points="{points}" fill="none" '
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


def _curve_floor(miss: np.ndarray) -> float:
    """The log10 of the plot's lowest miss rate: the decade of the smallest
    positive miss rate, kept between 1e-4 and 1e-1."""
    positive = miss[miss > 0.0]
    if not len(positive):
        return -1.0
    return max(min(-1.0, math.floor(math.log10(positive.min()))), -4.0)
