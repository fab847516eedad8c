"""Independent reference implementations used to pin derived expectations.

Everything here works on plain tuples and dicts and recomputes results from
first principles: overlap by counting raster cells, the scalar box overlaps
and the pair descriptor one pair at a time, the relation model's score one
row at a time, NMS by repeated global argmax, the
post-process of one scene head by head, `train-rdm`'s labeled pairs scene
by scene, MR-2 by re-matching every image from scratch at every threshold,
and rectangle-union area by scanline integration.  None of it shares code with
the package under test.

Boxes are (x_min, y_min, x_max, y_max) sequences.
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
# scalar float overlaps, one pair of boxes at a time
#
# The array kernels (`geometry.pairwise_*`) must equal these bit for bit on
# finite input, up to the sign of zero.

def area(b) -> float:
    return (b[2] - b[0]) * (b[3] - b[1])


def intersection_area(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a, b) -> float:
    """Intersection over union; 0 when both boxes are degenerate."""
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def ioh(head, body) -> float:
    """Overlap area over the head-box area; 1 exactly when the head lies
    inside the body.  Raises ValueError for a zero-area head."""
    head_area = area(head)
    if head_area <= 0.0:
        raise ValueError(f"zero-area head box: {tuple(head)}")
    return intersection_area(head, body) / head_area


# ---------------------------------------------------------------------------
# the relation model's pair descriptor, one pair at a time

def extract_features(head, head_score, body, body_score) -> np.ndarray:
    """10-d descriptor of a head/body box pair with their detector scores.

    Entries: center offsets over the body size, log size ratios, IoH, IoU,
    the two scores and the two aspect ratios.  `rdm.pair_features` must give
    each pair this row bit for bit: the arithmetic runs in the same order.
    """
    hw, hh = head[2] - head[0], head[3] - head[1]
    bw, bh = body[2] - body[0], body[3] - body[1]
    if hw <= 0 or hh <= 0 or bw <= 0 or bh <= 0:
        raise ValueError("zero-area box in pair feature extraction")
    hcx, hcy = (head[0] + head[2]) / 2.0, (head[1] + head[3]) / 2.0
    bcx, bcy = (body[0] + body[2]) / 2.0, (body[1] + body[3]) / 2.0
    return np.array([
        (hcx - bcx) / bw,
        (hcy - bcy) / bh,
        math.log(hw / bw),
        math.log(hh / bh),
        ioh(head, body),
        iou(head, body),
        head_score,
        body_score,
        hw / hh,
        bw / bh,
    ], dtype=np.float64)


# ---------------------------------------------------------------------------
# the relation model's forward pass, one row at a time
#
# model: the `RelationModel.to_obj` dict, each layer's weights row-major

def mlp_score(model, row) -> float:
    """Score of one feature row: two rectified hidden layers, then the
    logistic of the output logit clamped to [-30, 30].  Python floats, each
    unit's sum taken in input order, so it agrees with the BLAS forward pass
    to rounding, not bit for bit."""
    a = [float(v) for v in row]
    for k, layer in enumerate(model["layers"]):
        n_in, n_out, w = layer["in"], layer["out"], layer["weights"]
        z = [sum(a[i] * w[i * n_out + j] for i in range(n_in)) + layer["bias"][j]
             for j in range(n_out)]
        a = z if k == 2 else [max(v, 0.0) for v in z]
    logit = min(max(a[0], -30.0), 30.0)
    return 1.0 / (1.0 + math.exp(-logit))


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
                     and iou(r["box"], best["box"]) <= iou_threshold]
    return kept_ids, [r["id"] for r in floored]


# ---------------------------------------------------------------------------
# the post-process of one scene, head by head
#
# heads, bodies: records {"id": int, "box": (x1, y1, x2, y2), "score": float}

def postprocess_reference(heads, bodies_pre, bodies_post, score, ioh_threshold,
                          low_threshold, high_threshold):
    """Phase one per head in order: its gated (IoH above the threshold)
    kept bodies in kept order; a head with none, or whose best score is
    below the low threshold, is mismatched and logs those pairs as "first".
    Phase two per mismatched head in order: every gated pre-NMS body in
    pre-NMS order, logged as "second"; a best score above the high threshold
    recalls the lowest-id body of that score unless present, a best score
    below the low threshold, or no gated body at all, removes the head.
    `score(head, body)` scores a pair.  Returns (final head ids, final body
    ids, recalled body ids, removed head ids, pair log) with pair log rows
    (head id, body id, score, phase)."""
    post_ids = [b["id"] for b in bodies_post]
    log, mismatched = [], []
    for h in heads:
        gated = [(b, score(h, b)) for b in bodies_pre
                 if ioh(h["box"], b["box"]) > ioh_threshold]
        kept = sorted(((post_ids.index(b["id"]), b, s) for b, s in gated
                       if b["id"] in post_ids), key=lambda t: t[0])
        if not kept or max(s for _, _, s in kept) < low_threshold:
            mismatched.append((h, gated))
            log += [(h["id"], b["id"], s, "first") for _, b, s in kept]
    final_bodies, recalled, removed = list(post_ids), [], []
    for h, gated in mismatched:
        log += [(h["id"], b["id"], s, "second") for b, s in gated]
        if not gated:
            removed.append(h["id"])
            continue
        best = max(s for _, s in gated)
        if best > high_threshold:
            pick = min(b["id"] for b, s in gated if s == best)
            if pick not in final_bodies:
                final_bodies.append(pick)
                recalled.append(pick)
        if best < low_threshold:
            removed.append(h["id"])
    final_heads = [h["id"] for h in heads if h["id"] not in removed]
    return final_heads, final_bodies, recalled, removed, log


# ---------------------------------------------------------------------------
# train-rdm's training pairs, one scene at a time
#
# persons: {scene_id: [(head, body) box pairs]}; sets: (scene_id, heads,
# bodies) triples, each detection an (id, box, score) triple

def assign_reference(dets, truth, iou_threshold=0.5):
    """Greedy assignment of one scene's detections to its ground-truth boxes:
    in ranked order, descending score then ascending id, a detection takes
    the free box of maximal IoU at or above the threshold, the first such
    box on ties.  Returns the index into `truth` per detection, in input
    order, -1 for none."""
    assigned = [-1] * len(dets)
    taken = [False] * len(truth)
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i][2], dets[i][0])):
        best, best_iou = -1, iou_threshold
        for j, t in enumerate(truth):
            value = iou(dets[i][1], t)
            if not taken[j] and (value > best_iou or (best < 0 and value == best_iou)):
                best, best_iou = j, value
        if best >= 0:
            taken[best] = True
            assigned[i] = best
    return assigned


def training_pairs_reference(persons, sets, ioh_threshold):
    """(features, labels) of every set in order: its (head, body) pairs of
    IoH above the threshold, head by head and each head's bodies in order,
    each with its `extract_features` row, labeled 1.0 exactly when the head
    and the body are assigned (`assign_reference`, every person a
    candidate) to the same person of the set's scene."""
    rows, labels = [], []
    for scene_id, heads, bodies in sets:
        head_person = assign_reference(heads, [h for h, _ in persons[scene_id]])
        body_person = assign_reference(bodies, [b for _, b in persons[scene_id]])
        for i, (_, head, head_score) in enumerate(heads):
            for j, (_, body, body_score) in enumerate(bodies):
                if ioh(head, body) > ioh_threshold:
                    rows.append(extract_features(head, head_score, body, body_score))
                    labels.append(float(head_person[i] >= 0
                                        and head_person[i] == body_person[j]))
    return np.array(rows, dtype=np.float64).reshape(-1, 10), np.array(labels, dtype=np.float64)


# ---------------------------------------------------------------------------
# MR-2: brute-force per-threshold re-matching
#
# images: dicts {"gts": [{"box", "ignore"}], "dets": [{"id", "box", "score"}]}

TP = "TP"
FP = "FP"
IGNORED = "ignored"


def reasonable_ignore(person) -> bool:
    """Whether the Reasonable subset ignores a person, a dict {"body",
    "occlusion", "ignore"}: one already flagged ignore stays ignored, and so
    is one whose body is under 50 px tall or at least 35% occluded."""
    body = person["body"]
    return person["ignore"] or body[3] - body[1] < 50.0 or person["occlusion"] >= 0.35


def match_outcomes(dets, gts, iou_threshold):
    """Greedy protocol match of one image: (id, outcome) per detection in
    ranked order, descending score then ascending id.

    A detection takes the free non-ignored ground truth of maximal IoU at or
    above the threshold, the first such one on ties (TP).  Failing that, an
    ignored ground truth at the threshold absorbs it (IGNORED), any number of
    times; otherwise it is an FP.
    """
    order = sorted(dets, key=lambda d: (-d["score"], d["id"]))
    taken = [False] * len(gts)
    outcomes = []
    for det in order:
        ious = [iou(det["box"], g["box"]) for g in gts]
        best = -1
        best_iou = iou_threshold
        for j, g in enumerate(gts):
            if g["ignore"] or taken[j]:
                continue
            if ious[j] > best_iou or (best < 0 and ious[j] == best_iou):
                best, best_iou = j, ious[j]
        if best >= 0:
            taken[best] = True
            outcome = TP
        elif any(g["ignore"] and ious[j] >= iou_threshold for j, g in enumerate(gts)):
            outcome = IGNORED
        else:
            outcome = FP
        outcomes.append((det["id"], outcome))
    return outcomes


def _match_image(dets, gts, iou_threshold):
    """(tp, fp) counts of one image's greedy match."""
    outcomes = [o for _, o in match_outcomes(dets, gts, iou_threshold)]
    return outcomes.count(TP), outcomes.count(FP)


def log_average(curve, fppi_points) -> float:
    """Geometric mean of the miss rates sampled at the reference FPPIs: at
    each, the lowest miss rate among curve rows (threshold, fppi, miss_rate)
    with fppi at or below it, 1.0 when there is none.  An all-zero sample is
    reported as exactly 0; otherwise each sample is floored at 1e-10."""
    samples = []
    for ref in fppi_points:
        eligible = [miss for _, fppi, miss in curve if fppi <= ref]
        samples.append(min(eligible) if eligible else 1.0)
    if all(m == 0.0 for m in samples):
        return 0.0
    return math.exp(sum(math.log(max(m, 1e-10)) for m in samples) / len(samples))


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
    return log_average(curve, fppi_points), curve


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
