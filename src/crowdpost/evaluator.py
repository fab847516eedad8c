"""Log-average miss rate evaluation (Caltech-style protocol).

Detections are greedily matched per scene in descending score order; the miss
rate / false-positives-per-image curve is swept over every detection score,
and the reported number is the geometric mean of the miss rates sampled at 9
log-spaced FPPI reference points between 0.01 and 1.  Lower is better.

`compute_mr2` works on columns only: the detections' boxes, scores and
scenes, and the persons' boxes and flags, as arrays
(`data_model.DetectionColumns` and `SceneColumns`, which the readers
return).  The matching of many scenes
shares one IoU call and one greedy pass: the ranked detections and the
ground truth of each scene are gathered into (scenes, n, 4) and
(scenes, m, 4) arrays, zero-padded to the largest scene of the batch.  A
zero box has IoU 0 with every box, and `EvalConfig` requires a match
threshold above 0, so padding never matches.  A batch holds at most
`_PAIR_BUDGET` padded detection/ground-truth pairs, which bounds its memory;
a scene larger than that is matched on its own.  `tests/oracles.py` holds
the one-image references: the greedy match, the Reasonable rule and the
log-average.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data_model import BODY, HEAD, DetectionColumns, SceneColumns
from .fileio import atomic_write_text
from .geometry import greedy_match, pairwise_iou

# 10^(-2 + k/4) for k = 0..8
FPPI_POINTS = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))

# the Reasonable subset: persons at least this tall and less occluded than this
REASONABLE_MIN_HEIGHT = 50.0
REASONABLE_MAX_OCCLUSION = 0.35

# padded detection/ground-truth pairs per batched IoU call
_PAIR_BUDGET = 4096

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


def _id_keys(ids: list[int]) -> np.ndarray:
    """int64 keys that sort like `ids`, also for ids beyond int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        keys = np.empty(len(ids), dtype=np.int64)
        keys[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return keys


def _ragged(starts: np.ndarray, counts: np.ndarray):
    """The indices of the runs `starts[r]` .. `starts[r] + counts[r] - 1`,
    one after the other, with each index's run and its position in the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    pos = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[run] + pos, run, pos


def _batches(scenes: np.ndarray, *counts: np.ndarray):
    """Consecutive runs of `scenes` whose zero-padded stack stays within
    `_PAIR_BUDGET` pairs, each with its largest detection, matchable and
    ignored counts; a scene larger than that forms a batch alone."""
    batch: list[int] = []
    shape = (0, 0, 0)
    for s, *sizes in zip(scenes.tolist(), *(c[scenes].tolist() for c in counts)):
        grown = tuple(map(max, shape, sizes))
        if batch and (len(batch) + 1) * grown[0] * (grown[1] + grown[2]) > _PAIR_BUDGET:
            yield np.array(batch), shape
            batch, grown = [], tuple(sizes)
        batch.append(s)
        shape = grown
    if batch:
        yield np.array(batch), shape


def _match(dets: DetectionColumns, det_scene: np.ndarray, gt: SceneColumns,
           matchable: np.ndarray, cfg: EvalConfig):
    """Greedy matching of every scene of `gt` at once; detection i belongs to
    scene `det_scene[i]`, and ground truth that is not `matchable` is ignored.

    In ranked order, a detection takes the free matchable ground truth of
    maximal IoU at the threshold (TP); failing that, an ignored one at the
    threshold absorbs it (neither TP nor FP); otherwise it is an FP.

    Returns `order`, the detection indices scene after scene, each scene's
    in ranked order, and per entry of `order` whether it is a TP and whether
    an ignored ground truth absorbed it.
    """
    num_scenes = len(gt.scene_ids)
    order = np.lexsort((_id_keys(dets.det_ids), -dets.scores, det_scene))
    boxes = dets.boxes[order]
    det_counts = np.bincount(det_scene, minlength=num_scenes)
    det_starts = np.cumsum(det_counts) - det_counts
    # each scene's matchable ground truth first, then its ignored, both in
    # person order: a tie goes to the lower column
    person_counts = np.diff(gt.person_offsets)
    person_scene = np.repeat(np.arange(num_scenes), person_counts)
    gt_boxes = (gt.heads if cfg.class_under_test == HEAD else gt.bodies)[
        np.lexsort((~matchable, person_scene))]
    gt_starts = np.asarray(gt.person_offsets[:-1], dtype=np.intp)
    matchable_counts = np.bincount(person_scene[matchable], minlength=num_scenes)
    ignored_counts = person_counts - matchable_counts

    thr = cfg.iou_match_threshold
    tp = np.zeros(len(order), dtype=bool)
    absorbed = np.zeros(len(order), dtype=bool)
    # scenes of like size share a batch, which keeps the padding small
    work = np.flatnonzero(det_counts)
    work = work[np.lexsort((ignored_counts[work], matchable_counts[work], det_counts[work]))]
    for batch, (n, n_matchable, n_ignored) in _batches(work, det_counts, matchable_counts,
                                                       ignored_counts):
        det_stack = np.zeros((len(batch), n, 4))
        index, slot, pos = _ragged(det_starts[batch], det_counts[batch])
        det_stack[slot, pos] = boxes[index]
        gt_stack = np.zeros((len(batch), n_matchable + n_ignored, 4))
        g, gslot, gpos = _ragged(gt_starts[batch], matchable_counts[batch])
        gt_stack[gslot, gpos] = gt_boxes[g]
        g, gslot, gpos = _ragged(gt_starts[batch] + matchable_counts[batch],
                                 ignored_counts[batch])
        gt_stack[gslot, n_matchable + gpos] = gt_boxes[g]
        ious = pairwise_iou(det_stack, gt_stack)
        matched = np.array(greedy_match(ious[..., :n_matchable], thr))
        tp[index] = matched[slot, pos] >= 0
        absorbed[index] = (ious[..., n_matchable:] >= thr).any(axis=-1)[slot, pos]
    return order, tp, absorbed & ~tp


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
    index: dict[str, int] = {}
    for k, scene_id in enumerate(scenes.scene_ids):
        index.setdefault(scene_id, k)
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

    order, tp, ignored = _match(dets, det_scene, scenes, matchable, cfg)
    ranked = dets.scores[order]
    tp_scores = np.sort(ranked[tp])
    fp_scores = np.sort(ranked[~(tp | ignored)])
    # Sweep every distinct input score, not just scores of counted outcomes:
    # a level where only ignored detections enter still yields a curve point.
    thresholds = np.unique(dets.scores)[::-1]
    if len(thresholds) and thresholds[-1] == 0.0:
        # a set of the scores keeps the first zero in input order, whatever its sign
        thresholds[-1] = dets.scores[np.flatnonzero(dets.scores == 0.0)[0]]
    tps = len(tp_scores) - np.searchsorted(tp_scores, thresholds)
    fps = len(fp_scores) - np.searchsorted(fp_scores, thresholds)
    fppi, miss = fps / num_images, 1.0 - tps / num_gt
    mr2 = _log_average(fppi, miss, FPPI_POINTS)
    curve = tuple(zip(thresholds.tolist(), fppi.tolist(), miss.tolist()))
    return EvalResult(mr2=mr2, curve=curve, num_gt=num_gt, num_images=num_images)


def _log_average(fppi: np.ndarray, miss: np.ndarray, fppi_points) -> float:
    samples = []
    for ref in fppi_points:
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
