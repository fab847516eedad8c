"""Head-driven detection post-process.

One pass over the kept head detections: heads whose best relationship score
against the kept bodies is missing or too low are re-matched against the
pre-NMS bodies.  A confident second-round match recalls that suppressed body;
a failed second round removes the head as a false positive.  Heads landing
between the two score thresholds are left untouched and recall nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .data_model import Detection
from .geometry import ioh

PairScorer = Callable[[Detection, Detection], float]

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
            raise ValueError(f"need 0 <= low < high <= 1, got "
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


def match_pairs(heads: list[Detection], bodies: list[Detection],
                ioh_threshold: float) -> list[tuple[Detection, Detection]]:
    """Every (head, body) pair whose IoH clears the gate; heads may pair with
    several bodies, the max relationship score decides later."""
    return [(h, b) for h in heads for b in bodies
            if ioh(h.box, b.box) > ioh_threshold]


def _scored_partners(head: Detection, bodies: list[Detection], scorer: PairScorer,
                     cfg: PostProcessConfig, phase: str,
                     log: list[PairRecord] | None) -> list[tuple[Detection, float]]:
    scored = []
    for body in bodies:
        if ioh(head.box, body.box) <= cfg.ioh_threshold:
            continue
        s = scorer(head, body)
        if log is not None:
            log.append(PairRecord(head.det_id, body.det_id, s, phase))
        scored.append((body, s))
    return scored


def find_mismatched_heads(heads: list[Detection], bodies_post: list[Detection],
                          scorer: PairScorer, cfg: PostProcessConfig) -> list[Detection]:
    """Heads with no kept-body partner above the IoH gate, or whose best
    partner scores below the low threshold."""
    mismatched = []
    for head in heads:
        scored = _scored_partners(head, bodies_post, scorer, cfg, FIRST, None)
        if not scored or max(s for _, s in scored) < cfg.low_threshold:
            mismatched.append(head)
    return mismatched


def postprocess(heads: list[Detection], bodies_pre: list[Detection],
                bodies_post: list[Detection], scorer: PairScorer,
                cfg: PostProcessConfig) -> PipelineOutput:
    """Run the full post-process for one scene.

    Only ever adds bodies and removes heads: the final bodies are a superset
    of the kept bodies, the final heads a subset of the kept heads.  Each
    head's outcome depends only on the immutable input sets, so the result is
    independent of processing order.
    """
    pre_ids = {d.det_id for d in bodies_pre}
    missing = [d.det_id for d in bodies_post if d.det_id not in pre_ids]
    if missing:
        raise ValueError(f"post-NMS bodies {missing} missing from the pre-NMS set")

    log: list[PairRecord] = []
    mismatched = []
    for head in heads:
        # only heads that fail the first phase are audited; a clean match
        # leaves no trace so an untouched scene has an empty pair log
        head_log: list[PairRecord] = []
        scored = _scored_partners(head, bodies_post, scorer, cfg, FIRST, head_log)
        if not scored or max(s for _, s in scored) < cfg.low_threshold:
            mismatched.append(head)
            log.extend(head_log)

    final_bodies = list(bodies_post)
    present_body_ids = {d.det_id for d in bodies_post}
    recalled: list[int] = []
    removed: list[int] = []
    for head in mismatched:
        scored = _scored_partners(head, bodies_pre, scorer, cfg, SECOND, log)
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
