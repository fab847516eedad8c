"""Independent reference implementations used to pin derived expectations.

Everything here works on plain tuples and dicts and recomputes results from
first principles: overlap by counting raster cells, NMS by repeated global
argmax, MR-2 by re-matching every image from scratch at every threshold, and
rectangle-union area by scanline integration.  None of it shares code with
the package under test.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# geometry: rasterized overlap for integer boxes

def _raster_counts(a, b):
    """Cell counts (inter, union, area_a) for integer boxes (x1, y1, x2, y2)."""
    x0 = int(min(a[0], b[0]))
    y0 = int(min(a[1], b[1]))
    x1 = int(max(a[2], b[2]))
    y1 = int(max(a[3], b[3]))
    w = max(x1 - x0, 1)
    h = max(y1 - y0, 1)
    ga = np.zeros((h, w), dtype=bool)
    gb = np.zeros((h, w), dtype=bool)
    ga[int(a[1]) - y0:int(a[3]) - y0, int(a[0]) - x0:int(a[2]) - x0] = True
    gb[int(b[1]) - y0:int(b[3]) - y0, int(b[0]) - x0:int(b[2]) - x0] = True
    inter = int(np.count_nonzero(ga & gb))
    union = int(np.count_nonzero(ga | gb))
    return inter, union, int(np.count_nonzero(ga))


def raster_iou(a, b) -> float:
    inter, union, _ = _raster_counts(a, b)
    return inter / union if union else 0.0


def raster_ioh(head, body) -> float:
    inter, _, head_area = _raster_counts(head, body)
    return inter / head_area


# ---------------------------------------------------------------------------
# plain float IoU shared by the NMS and evaluation references

def plain_iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = ((a[2] - a[0]) * (a[3] - a[1])
             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------
# NMS: quadratic repeated-global-argmax formulation
#
# records: dicts {"id": int, "box": (x1, y1, x2, y2), "score": float}

def nms_reference(records, iou_threshold, score_floor):
    """Returns (kept_ids, floored_ids); floored preserves input order and
    drops boxes below the score floor or of zero area."""
    floored = [r for r in records if r["score"] >= score_floor
               and (r["box"][2] - r["box"][0]) * (r["box"][3] - r["box"][1]) > 0]
    remaining = list(floored)
    kept_ids = []
    while remaining:
        best = min(remaining, key=lambda r: (-r["score"], r["id"]))
        kept_ids.append(best["id"])
        remaining = [r for r in remaining
                     if r is not best
                     and plain_iou(r["box"], best["box"]) <= iou_threshold]
    return kept_ids, [r["id"] for r in floored]


# ---------------------------------------------------------------------------
# MR-2: brute-force per-threshold re-matching
#
# images: dicts {"gts": [{"box", "ignore"}], "dets": [{"id", "box", "score"}]}

def _match_image(dets, gts, iou_threshold):
    """Greedy protocol match of one image; returns (tp, fp)."""
    order = sorted(dets, key=lambda d: (-d["score"], d["id"]))
    taken = [False] * len(gts)
    tp = fp = 0
    for det in order:
        ious = [plain_iou(det["box"], g["box"]) for g in gts]
        best = -1
        best_iou = iou_threshold
        for j, g in enumerate(gts):
            if g["ignore"] or taken[j]:
                continue
            if ious[j] > best_iou or (best < 0 and ious[j] == best_iou):
                best, best_iou = j, ious[j]
        if best >= 0:
            taken[best] = True
            tp += 1
        elif not any(g["ignore"] and ious[j] >= iou_threshold
                     for j, g in enumerate(gts)):
            fp += 1
    return tp, fp


def mr2_reference(images, fppi_points, iou_threshold=0.5):
    """Returns (mr2, curve) with curve rows (threshold, fppi, miss_rate)."""
    num_images = len(images)
    num_gt = sum(1 for im in images for g in im["gts"] if not g["ignore"])
    thresholds = sorted({d["score"] for im in images for d in im["dets"]},
                        reverse=True)
    curve = []
    for threshold in thresholds:
        tp = fp = 0
        for im in images:
            kept = [d for d in im["dets"] if d["score"] >= threshold]
            im_tp, im_fp = _match_image(kept, im["gts"], iou_threshold)
            tp += im_tp
            fp += im_fp
        curve.append((threshold, fp / num_images, 1.0 - tp / num_gt))

    samples = []
    for ref in fppi_points:
        eligible = [miss for _, fppi, miss in curve if fppi <= ref]
        samples.append(min(eligible) if eligible else 1.0)
    if all(m == 0.0 for m in samples):
        return 0.0, curve
    mr2 = math.exp(sum(math.log(max(m, 1e-10)) for m in samples) / len(samples))
    return mr2, curve


# ---------------------------------------------------------------------------
# union-of-rectangles area by y-scanline (for occlusion checks)

def union_area_reference(boxes) -> float:
    """Exact union area of float boxes via strip integration over y."""
    boxes = [b for b in boxes if b[2] > b[0] and b[3] > b[1]]
    if not boxes:
        return 0.0
    ys = sorted({b[1] for b in boxes} | {b[3] for b in boxes})
    total = 0.0
    for y0, y1 in zip(ys, ys[1:]):
        mid = 0.5 * (y0 + y1)
        spans = sorted((b[0], b[2]) for b in boxes if b[1] <= mid <= b[3])
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
        total += covered * (y1 - y0)
    return total
