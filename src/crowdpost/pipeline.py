"""Head-driven detection post-process.

One pass over the kept head detections: heads whose best relationship score
against the kept bodies is missing or too low are re-matched against the
pre-NMS bodies.  A confident second-round match recalls that suppressed body;
a failed second round removes the head as a false positive.  Heads landing
between the two score thresholds are left untouched and recall nothing.

`gate` is the one IoH gate, of `run` and `train-rdm`: it gates every scene
of a split at once over padded stacks (`geometry.padded_batches`).
`scene_inputs` scores all the gated pairs in one call, and gives each scene
its head and body ids, its kept bodies as positions among those, and a
callable that hands out its gated, scored pairs.  `postprocess` takes one
scene so, decides over plain lists, and returns its final detections as
indices into its inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .data_model import DetectionColumns
from .geometry import padded_batches, padded_stack, pairwise_ioh

# scores of the pairs (heads k, bodies k) of two equal-length columns
PairScorer = Callable[[DetectionColumns, DetectionColumns], Sequence[float]]
# one scene's gated pairs: head indices, pre-NMS body indices and scores
ScenePairs = Callable[[], tuple[list[int], list[int], list[float]]]

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
    """The post-process of one scene: its final heads as indices into its
    kept heads, and its final bodies, the kept ones and then the recalled
    ones, as indices into its pre-NMS bodies."""

    final_heads: list[int]
    final_bodies: list[int]
    recalled_body_ids: list[int]
    removed_head_ids: list[int]
    pair_log: list[PairRecord]


def gate(heads: DetectionColumns, bodies: DetectionColumns,
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


def scene_inputs(heads: DetectionColumns, bodies_pre: DetectionColumns, bodies_post: np.ndarray,
                 scorer: PairScorer, cfg: PostProcessConfig) -> list[tuple]:
    """The arguments of `postprocess` but its config, for each scene of a
    split: `heads` holds the kept heads, `bodies_pre` the floored pre-NMS
    bodies (group k is scene k in both), and `bodies_post` the kept bodies
    as positions in `bodies_pre`, group after group, as `nms_groups` gives.

    Every scene's IoH-gated (head, pre-NMS body) pairs are scored up front,
    in one `scorer` call, so the scenes share one forward pass instead of
    paying for one each.  Scene k's callable returns scene k's pairs as
    indices into its ids, in head order and each head's bodies in pre-NMS
    order, and their scores.
    """
    if heads.scene_ids != bodies_pre.scene_ids:
        raise ValueError("heads and pre-NMS bodies must hold the same scenes in the same order")
    rows, cols = gate(heads, bodies_pre, cfg.ioh_threshold)
    scores = np.asarray(scorer(heads.take(rows), bodies_pre.take(cols)),
                        dtype=np.float64).tolist() if len(rows) else []
    starts = np.asarray(bodies_pre.det_offsets, dtype=np.intp)
    scene = heads.det_groups()[rows]
    bounds = np.searchsorted(scene, np.arange(len(heads.scene_ids) + 1)).tolist()
    rows = (rows - np.asarray(heads.det_offsets, dtype=np.intp)[scene]).tolist()
    cols = (cols - starts[scene]).tolist()
    # the kept bodies come group after group, so the group starts bound them
    post_bounds = np.searchsorted(bodies_post, starts)
    post = (bodies_post - np.repeat(starts[:-1], np.diff(post_bounds))).tolist()

    def pairs(a: int, b: int) -> tuple[list[int], list[int], list[float]]:
        return rows[a:b], cols[a:b], scores[a:b]
    h, b, p, g = heads.det_offsets, bodies_pre.det_offsets, post_bounds.tolist(), bounds
    return [(heads.det_ids[h[k]:h[k + 1]], bodies_pre.det_ids[b[k]:b[k + 1]],
             post[p[k]:p[k + 1]], partial(pairs, g[k], g[k + 1])) for k in range(len(h) - 1)]


def postprocess(heads: list[int], bodies_pre: list[int], bodies_post: list[int],
                scorer: ScenePairs, cfg: PostProcessConfig) -> PipelineOutput:
    """Run the full post-process for one scene.

    `heads` holds the scene's kept head ids, `bodies_pre` its floored
    pre-NMS body ids and `bodies_post` its kept bodies as positions in
    `bodies_pre`, in rank order.  `scorer`, the scene's callable from
    `scene_inputs`, is called once and gives the scene's IoH-gated (head,
    pre-NMS body) pairs; phase one reads the kept-body scores, phase two
    all of them.  Only ever adds bodies and removes heads: the final bodies
    are a superset of the kept bodies, the final heads a subset of the kept
    heads.  Each head's outcome depends only on the immutable input sets,
    so the result is independent of processing order.  The pair log lists
    each head's bodies in the order of the phase's body list.
    """
    post_rank = {j: k for k, j in enumerate(bodies_post)}
    # a negative position would wrap around silently
    if len(post_rank) < len(bodies_post) or not all(0 <= j < len(bodies_pre) for j in post_rank):
        bad = [j for j, n in Counter(bodies_post).items() if n > 1 or not 0 <= j < len(bodies_pre)]
        raise ValueError(f"post-NMS body positions {bad} are not distinct positions among "
                         f"{len(bodies_pre)} pre-NMS bodies")

    # the gate against the pre-NMS bodies serves both phases; the kept
    # bodies are among its columns
    rows, cols, scores = scorer()
    # (pre-NMS column, score) of each head's gated bodies
    partners: list[list[tuple[int, float]]] = [[] for _ in heads]
    for i, j, s in zip(rows, cols, scores):
        partners[i].append((j, s))

    log: list[PairRecord] = []
    mismatched: list[tuple[int, list[tuple[int, float]]]] = []
    for i, scored in enumerate(partners):
        kept = sorted((post_rank[j], s, j) for j, s in scored if j in post_rank)
        if not kept or max(s for _, s, _ in kept) < cfg.low_threshold:
            mismatched.append((i, scored))
            # only heads that fail the first phase are audited; a clean match
            # leaves no trace so an untouched scene has an empty pair log
            log.extend(PairRecord(heads[i], bodies_pre[j], s, FIRST) for _, s, j in kept)

    final_bodies = list(bodies_post)
    present = {bodies_pre[j] for j in bodies_post}
    recalled: list[int] = []
    removed: list[int] = []
    for i, scored in mismatched:
        log.extend(PairRecord(heads[i], bodies_pre[j], s, SECOND) for j, s in scored)
        if scored:
            best_score = max(s for _, s in scored)
            if best_score > cfg.high_threshold:
                # argmax body; ties broken by ascending det id for determinism
                j = min((j for j, s in scored if s == best_score), key=bodies_pre.__getitem__)
                if bodies_pre[j] not in present:
                    final_bodies.append(j)
                    present.add(bodies_pre[j])
                    recalled.append(bodies_pre[j])
            if best_score < cfg.low_threshold:
                removed.append(i)
        else:
            removed.append(i)

    removed_set = set(removed)
    return PipelineOutput([i for i in range(len(heads)) if i not in removed_set],
                          final_bodies, recalled, [heads[i] for i in removed], log)
