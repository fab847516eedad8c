"""Head-driven detection post-process.

One pass over the kept head detections: heads whose best relationship score
against the kept bodies is missing or too low are re-matched against the
pre-NMS bodies.  A confident second-round match recalls that suppressed body;
a failed second round removes the head as a false positive.  Heads landing
between the two score thresholds are left untouched and recall nothing.

`postprocess` takes one scene as one-group columns: one IoH matrix gates
its pairs, one scorer call scores them, and the decisions run over plain
lists.  `scene_scorers` lets the scenes of a split share one scoring pass:
it gates every scene at once over padded stacks (`geometry.padded_batches`),
scores all the gated pairs in one call, and gives each scene a scorer that
hands out that scene's scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data_model import DetectionColumns
from .geometry import padded_batches, padded_stack, pairwise_ioh

# scores of the pairs (heads k, bodies k) of two equal-length columns
PairScorer = Callable[[DetectionColumns, DetectionColumns], Sequence[float]]

FIRST = "first"
SECOND = "second"

# stands in for a missing head in a padded stack: its area is positive, so
# only a real head can raise the zero-area error, and its row is masked out
_PAD_HEAD = (0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class PostProcessConfig:
    ioh_threshold: float = 0.7   # pair-matching gate
    low_threshold: float = 0.1   # below: mismatched / removed
    high_threshold: float = 0.9  # above: recall the best suppressed body

    def __post_init__(self):
        if not 0.0 < self.ioh_threshold < 1.0:
            raise ValueError(f"ioh_threshold {self.ioh_threshold} outside (0, 1)")
        if not 0.0 <= self.low_threshold < self.high_threshold <= 1.0:
            raise ValueError(f"need 0 <= low_threshold < high_threshold <= 1, got "
                             f"({self.low_threshold}, {self.high_threshold})")


@dataclass(frozen=True)
class PairRecord:
    head_id: int
    body_id: int
    score: float
    phase: str


@dataclass
class PipelineOutput:
    """The post-process of one scene, its final heads and bodies as
    one-group columns."""

    final_heads: DetectionColumns
    final_bodies: DetectionColumns
    recalled_body_ids: list[int]
    removed_head_ids: list[int]
    pair_log: list[PairRecord]


def _pick(dets: DetectionColumns, index: list[int]) -> DetectionColumns:
    """The detections at `index` of one-group columns, in that order."""
    ids = dets.det_ids
    return DetectionColumns(dets.scene_ids, [0, len(index)], [ids[i] for i in index],
                            dets.boxes[index], dets.scores[index])


def _gate(heads: DetectionColumns, bodies: DetectionColumns,
          threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(head, body) indices of the pairs within a scene whose IoH exceeds
    the threshold, over every scene of a split: scene after scene, in head
    order and then body order."""
    head_counts, body_counts = np.diff(heads.det_offsets), np.diff(bodies.det_offsets)
    head_starts = np.asarray(heads.det_offsets[:-1], dtype=np.intp)
    body_starts = np.asarray(bodies.det_offsets[:-1], dtype=np.intp)
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for batch, (n, m) in padded_batches(head_counts, body_counts):
        head_stack, (_, slot, pos) = padded_stack(
            heads.boxes, head_starts[batch], head_counts[batch], n, pad=_PAD_HEAD)
        body_stack, _ = padded_stack(bodies.boxes, body_starts[batch], body_counts[batch], m)
        # a pad body has IoH 0 with every head; pad heads are masked out
        real = np.zeros((len(batch), n, 1), dtype=bool)
        real[slot, pos] = True
        b, i, j = np.nonzero((pairwise_ioh(head_stack, body_stack) > threshold) & real)
        rows.append(head_starts[batch][b] + i)
        cols.append(body_starts[batch][b] + j)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # batches run by size; head indices run scene after scene in head order,
    # and each head's bodies already come in order from its batch
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def _scene_scorer(head_ids: list[int], body_ids: list[int], scores: list[float]) -> PairScorer:
    def scorer(heads: DetectionColumns, bodies: DetectionColumns) -> list[float]:
        if heads.det_ids != head_ids or bodies.det_ids != body_ids:
            raise ValueError("asked to score pairs other than the scene's gated pairs")
        return scores
    return scorer


def scene_scorers(heads: DetectionColumns, bodies_pre: DetectionColumns, scorer: PairScorer,
                  cfg: PostProcessConfig) -> list[PairScorer]:
    """A scorer for each scene of a split, to pass to `postprocess` with that
    scene's groups of `heads` and `bodies_pre` (group k is scene k).

    Every scene's IoH-gated (head, pre-NMS body) pairs are scored up front,
    in one `scorer` call, so the scenes share one forward pass instead of
    paying for one each.  Scene k's scorer returns scene k's scores; it
    accepts only that scene's gated pairs, in the order `postprocess` asks
    for them, which the one-scene gate gives bit for bit.
    """
    if heads.scene_ids != bodies_pre.scene_ids:
        raise ValueError("heads and pre-NMS bodies must hold the same scenes in the same order")
    rows, cols = _gate(heads, bodies_pre, cfg.ioh_threshold)
    scores = np.asarray(scorer(heads.take(rows), bodies_pre.take(cols)),
                        dtype=np.float64).tolist() if len(rows) else []
    head_ids = [heads.det_ids[i] for i in rows.tolist()]
    body_ids = [bodies_pre.det_ids[j] for j in cols.tolist()]
    bounds = np.searchsorted(heads.det_groups()[rows], np.arange(len(heads.scene_ids) + 1))
    bounds = bounds.tolist()
    return [_scene_scorer(head_ids[a:b], body_ids[a:b], scores[a:b])
            for a, b in zip(bounds, bounds[1:])]


def postprocess(heads: DetectionColumns, bodies_pre: DetectionColumns,
                bodies_post: DetectionColumns, scorer: PairScorer,
                cfg: PostProcessConfig) -> PipelineOutput:
    """Run the full post-process for one scene.

    Each argument holds the scene as one group: its kept heads, its
    floor-filtered pre-NMS bodies and its kept bodies, each kept list in
    rank order.  Only ever adds bodies and removes heads: the final bodies
    are a superset of the kept bodies, the final heads a subset of the kept
    heads.  Each head's outcome depends only on the immutable input sets, so
    the result is independent of processing order.  The scorer is called at
    most once, with every IoH-gated (head, pre-NMS body) pair in head order,
    each head's bodies in pre-NMS order; phase one reads the kept-body
    scores, phase two all of them.  The pair log lists each head's bodies in
    the order of the phase's body list.
    """
    if not len(heads.scene_ids) == 1 or not (heads.scene_ids == bodies_pre.scene_ids
                                            == bodies_post.scene_ids):
        raise ValueError("heads, pre-NMS bodies and post-NMS bodies must hold the same "
                         "one scene")
    head_ids, body_ids = heads.det_ids, bodies_pre.det_ids
    pre_col = dict(zip(body_ids, range(len(body_ids))))
    post_pre = [pre_col.get(i, -1) for i in bodies_post.det_ids]
    pre_boxes, pre_scores = bodies_pre.boxes.tolist(), bodies_pre.scores.tolist()
    missing = [i for i, j, box, score in zip(bodies_post.det_ids, post_pre,
                                             bodies_post.boxes.tolist(),
                                             bodies_post.scores.tolist())
               if j < 0 or pre_boxes[j] != box or pre_scores[j] != score]
    if missing:
        raise ValueError(f"scene {heads.scene_ids[0]!r}: post-NMS bodies {missing} "
                         "missing from the pre-NMS set")

    # one IoH gate against the pre-NMS bodies serves both phases; the kept
    # bodies are a subset of its columns
    rows, cols = (index.tolist() for index in np.nonzero(
        pairwise_ioh(heads.boxes, bodies_pre.boxes) > cfg.ioh_threshold))
    scores = np.asarray(scorer(_pick(heads, rows), _pick(bodies_pre, cols)),
                        dtype=np.float64).tolist() if rows else []
    # (pre-NMS column, score) of each head's gated bodies
    partners: list[list[tuple[int, float]]] = [[] for _ in head_ids]
    for i, j, s in zip(rows, cols, scores):
        partners[i].append((j, s))
    post_rank = {j: k for k, j in enumerate(post_pre)}

    log: list[PairRecord] = []
    mismatched: list[tuple[int, list[tuple[int, float]]]] = []
    for i, scored in enumerate(partners):
        kept = sorted((post_rank[j], s, j) for j, s in scored if j in post_rank)
        if not kept or max(s for _, s, _ in kept) < cfg.low_threshold:
            mismatched.append((i, scored))
            # only heads that fail the first phase are audited; a clean match
            # leaves no trace so an untouched scene has an empty pair log
            log.extend(PairRecord(head_ids[i], body_ids[j], s, FIRST) for _, s, j in kept)

    final_bodies = list(post_pre)
    present = {body_ids[j] for j in post_pre}
    recalled: list[int] = []
    removed: list[int] = []
    for i, scored in mismatched:
        log.extend(PairRecord(head_ids[i], body_ids[j], s, SECOND) for j, s in scored)
        if scored:
            best_score = max(s for _, s in scored)
            if best_score > cfg.high_threshold:
                # argmax body; ties broken by ascending det id for determinism
                j = min((j for j, s in scored if s == best_score), key=body_ids.__getitem__)
                if body_ids[j] not in present:
                    final_bodies.append(j)
                    present.add(body_ids[j])
                    recalled.append(body_ids[j])
            if best_score < cfg.low_threshold:
                removed.append(i)
        else:
            removed.append(i)

    removed_set = set(removed)
    # a scene that removes or recalls nothing ends with its kept detections
    final_heads = _pick(heads, [i for i in range(len(head_ids)) if i not in removed_set]
                        ) if removed else heads
    return PipelineOutput(final_heads,
                          _pick(bodies_pre, final_bodies) if recalled else bodies_post,
                          recalled, [head_ids[i] for i in removed], log)
