"""Head-driven detection post-process.

One pass over the kept head detections: heads whose best relationship score
against the kept bodies is missing or too low are re-matched against the
pre-NMS bodies.  A confident second-round match recalls that suppressed body;
a failed second round removes the head as a false positive.  Heads landing
between the two score thresholds are left untouched and recall nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data_model import Detection
from .geometry import box_array, pairwise_ioh

# scores of the pairs (heads[k], bodies[k]) of two equal-length sequences
PairScorer = Callable[[Sequence[Detection], Sequence[Detection]], Sequence[float]]

FIRST = "first"
SECOND = "second"


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
    final_heads: list[Detection]
    final_bodies: list[Detection]
    recalled_body_ids: list[int] = field(default_factory=list)
    removed_head_ids: list[int] = field(default_factory=list)
    pair_log: list[PairRecord] = field(default_factory=list)


def postprocess(heads: list[Detection], bodies_pre: list[Detection],
                bodies_post: list[Detection], scorer: PairScorer,
                cfg: PostProcessConfig) -> PipelineOutput:
    """Run the full post-process for one scene.

    Only ever adds bodies and removes heads: the final bodies are a superset
    of the kept bodies, the final heads a subset of the kept heads.  Each
    head's outcome depends only on the immutable input sets, so the result is
    independent of processing order.  The scorer is called at most once, with
    every IoH-gated (head, pre-NMS body) pair in head order, each head's
    bodies in pre-NMS order; phase one reads the kept-body scores, phase two
    all of them.  The pair log lists each head's bodies in the order of the
    phase's body list.
    """
    pre_col = {d.det_id: j for j, d in enumerate(bodies_pre)}
    missing = [d.det_id for d in bodies_post
               if d.det_id not in pre_col or bodies_pre[pre_col[d.det_id]] != d]
    if missing:
        raise ValueError(f"post-NMS bodies {missing} missing from the pre-NMS set")

    # one IoH gate against the pre-NMS bodies serves both phases; the kept
    # bodies are a subset of its columns
    gate = pairwise_ioh(box_array(h.box for h in heads),
                        box_array(b.box for b in bodies_pre)) > cfg.ioh_threshold
    head_idx, body_idx = np.nonzero(gate)
    rows, cols = head_idx.tolist(), body_idx.tolist()
    scores = np.asarray(scorer([heads[i] for i in rows], [bodies_pre[j] for j in cols]),
                        dtype=np.float64).tolist() if rows else []
    # (pre-NMS column, score) of each head's gated bodies
    partners: list[list[tuple[int, float]]] = [[] for _ in heads]
    for i, j, s in zip(rows, cols, scores):
        partners[i].append((j, s))
    post_rank = {pre_col[d.det_id]: k for k, d in enumerate(bodies_post)}

    log: list[PairRecord] = []
    mismatched: list[tuple[Detection, list[tuple[int, float]]]] = []
    for head, scored_cols in zip(heads, partners):
        kept = sorted((post_rank[j], s) for j, s in scored_cols if j in post_rank)
        if not kept or max(s for _, s in kept) < cfg.low_threshold:
            mismatched.append((head, scored_cols))
            # only heads that fail the first phase are audited; a clean match
            # leaves no trace so an untouched scene has an empty pair log
            log.extend(PairRecord(head.det_id, bodies_post[k].det_id, s, FIRST)
                       for k, s in kept)

    final_bodies = list(bodies_post)
    present_body_ids = {d.det_id for d in bodies_post}
    recalled: list[int] = []
    removed: list[int] = []
    for head, scored_cols in mismatched:
        scored = [(bodies_pre[j], s) for j, s in scored_cols]
        log.extend(PairRecord(head.det_id, b.det_id, s, SECOND) for b, s in scored)
        if scored:
            best_score = max(s for _, s in scored)
            if best_score > cfg.high_threshold:
                # argmax body; ties broken by ascending det id for determinism
                best = min((b for b, s in scored if s == best_score),
                           key=lambda d: d.det_id)
                if best.det_id not in present_body_ids:
                    final_bodies.append(best)
                    present_body_ids.add(best.det_id)
                    recalled.append(best.det_id)
            if best_score < cfg.low_threshold:
                removed.append(head.det_id)
        else:
            removed.append(head.det_id)

    removed_set = set(removed)
    final_heads = [h for h in heads if h.det_id not in removed_set]
    return PipelineOutput(final_heads=final_heads, final_bodies=final_bodies,
                         recalled_body_ids=recalled, removed_head_ids=removed,
                         pair_log=log)
