"""Statistical head-to-body box transform.

A four-parameter affine map: the body box is alpha_w x alpha_h times the head
size, with its center offset from the head center by (delta_x, delta_y) head
units.  Estimated from annotated pairs by the per-parameter median, which keeps
crouching/truncated outliers from skewing the fit; the pairs are the rows of
two (n, 4) box arrays, as `read_scenes` returns them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data_model import SceneColumns
from .fileio import atomic_write_text, logger


@dataclass(frozen=True)
class HeadBodyRatio:
    alpha_w: float
    alpha_h: float
    delta_x: float
    delta_y: float

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        for name in ("alpha_w", "alpha_h"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        for name in ("delta_x", "delta_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def estimate_ratio(heads: np.ndarray, bodies: np.ndarray) -> HeadBodyRatio:
    """Fit the transform by per-parameter median from paired head and body
    boxes, row k of the (n, 4) arrays `heads` and `bodies` being one person.

    Pairs with a degenerate head box are skipped (counted in a warning);
    an empty or all-degenerate input raises ValueError.
    """
    head_wh = heads[:, 2:] - heads[:, :2]
    usable = (head_wh > 0.0).all(axis=1)
    skipped = len(usable) - int(usable.sum())
    if skipped:
        logger(__name__).warning("estimate_ratio skipped %d pair(s) with zero-area heads",
                                 skipped)
    if skipped == len(usable):
        raise ValueError("no usable head-body pairs to estimate from")
    heads, bodies, head_wh = heads[usable], bodies[usable], head_wh[usable]
    body_wh = bodies[:, 2:] - bodies[:, :2]
    offset = (bodies[:, :2] + bodies[:, 2:]) / 2.0 - (heads[:, :2] + heads[:, 2:]) / 2.0
    per_pair = np.hstack([body_wh / head_wh, offset / head_wh])
    return HeadBodyRatio(*_median(per_pair).tolist())


def _median(values: np.ndarray) -> np.ndarray:
    """`np.median(values, axis=0)` bit for bit, taken as numpy takes it (one
    partition, the mean of the middle one or two, summed from 0.0, NaN where
    a column holds one), without `np.median`, which imports `numpy.ma`."""
    n = len(values)
    part = np.partition(values, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1], axis=0)
    middle = (0.0 + part[n // 2 - 1] + part[n // 2]) / 2.0 if n % 2 == 0 else 0.0 + part[n // 2]
    return np.where(np.isnan(part[-1]), np.nan, middle)


def scene_pairs(scenes: SceneColumns) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4) head and body boxes of every annotated person of a split."""
    return scenes.heads, scenes.bodies


def save_ratio(ratio: HeadBodyRatio, path) -> None:
    obj = {"alpha_w": ratio.alpha_w, "alpha_h": ratio.alpha_h,
           "delta_x": ratio.delta_x, "delta_y": ratio.delta_y}
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")

