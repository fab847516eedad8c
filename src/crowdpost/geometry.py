"""Axis-aligned bounding-box arithmetic: areas, overlaps, IoU and IoH.

The scalar `intersection_area`/`iou`/`ioh` are the reference definitions.
`pairwise_intersection`, `pairwise_iou` and `pairwise_ioh` evaluate the same
arithmetic in the same order over (n, 4) float64 arrays, so every matrix
entry is bit-identical to the scalar value for finite input;
`greedy_match` is the one greedy assignment over such a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

_COORDINATES = ("x_min", "y_min", "x_max", "y_max")
_isfinite = math.isfinite


@dataclass(frozen=True, slots=True)
class BBox:
    """Rectangle in pixel coordinates, corner form (x_min, y_min, x_max, y_max).

    Zero-area boxes are allowed; negative extents and non-finite coordinates
    are rejected at construction.  Coordinates are stored as Python floats.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.x_min, self.y_min, self.x_max, self.y_max
        if not (type(x1) is float and type(y1) is float
                and type(x2) is float and type(y2) is float
                and _isfinite(x1) and _isfinite(y1) and _isfinite(x2) and _isfinite(y2)):
            # convert and check in field order, so the first bad coordinate is named
            for name in _COORDINATES:
                value = float(getattr(self, name))
                if not _isfinite(value):
                    raise ValueError(f"non-finite box coordinate {name}={value}")
                object.__setattr__(self, name, value)
            x1, y1, x2, y2 = self.x_min, self.y_min, self.x_max, self.y_max
        if x2 < x1 or y2 < y1:
            raise ValueError(f"box has negative extent: ({x1}, {y1}, {x2}, {y2})")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    @classmethod
    def from_center_size(cls, cx: float, cy: float, w: float, h: float) -> "BBox":
        return cls(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def area(b: BBox) -> float:
    return b.width * b.height


def intersection_area(a: BBox, b: BBox) -> float:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when both boxes are degenerate."""
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def ioh(head: BBox, body: BBox) -> float:
    """Overlap area normalized by the head-box area.

    Asymmetric: equals 1 exactly when the head lies inside the body box.
    Raises ValueError for a zero-area head (degenerate detection).
    """
    head_area = area(head)
    if head_area <= 0.0:
        raise ValueError(f"zero-area head box: {head}")
    return intersection_area(head, body) / head_area


# ---------------------------------------------------------------------------
# array kernels

def box_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Stack boxes into an (n, 4) float64 array in corner form."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _areas(boxes: np.ndarray) -> np.ndarray:
    wh = boxes[:, 2:] - boxes[:, :2]
    return wh[:, 0] * wh[:, 1]


def pairwise_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) matrix whose [i, j] entry equals `intersection_area` of boxes
    a[i] and b[j]."""
    # clamping the extents at 0 gives the scalar path's 0 for every disjoint
    # or touching pair (up to the sign of zero)
    wh = np.minimum(a[:, None, 2:], b[:, 2:]) - np.maximum(a[:, None, :2], b[:, :2])
    np.maximum(wh, 0.0, out=wh)
    return wh[..., 0] * wh[..., 1]


# The union of two boxes is never below either area, so it is 0 only for two
# zero-area boxes, whose intersection is 0 too.  Flooring the union at the
# smallest positive double therefore turns 0/0 into the scalar path's 0 and
# leaves every other quotient unchanged.
_UNION_FLOOR = float(np.nextafter(0.0, 1.0))


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) matrix whose [i, j] entry equals `iou` of boxes a[i] and b[j]."""
    area_a = _areas(a)
    area_b = area_a if b is a else _areas(b)
    inter = pairwise_intersection(a, b)
    return inter / np.maximum(area_a[:, None] + area_b - inter, _UNION_FLOOR)


def pairwise_ioh(heads: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """(n, m) matrix whose [i, j] entry equals `ioh` of heads[i] in bodies[j].

    Raises ValueError for a zero-area head exactly when the scalar path
    would: whenever there is at least one body to compare it with.
    """
    head_area = _areas(heads)
    if len(bodies):
        degenerate = np.flatnonzero(head_area <= 0.0)
        if len(degenerate):
            raise ValueError(f"zero-area head box: {BBox(*heads[degenerate[0]])}")
    return pairwise_intersection(heads, bodies) / head_area[:, None]


def greedy_match(ious: np.ndarray, threshold: float) -> list[int]:
    """One-to-one greedy assignment of rows to columns, rows in order.

    Each row takes the still-free column of maximal value when that value
    reaches `threshold`, the lowest such column on ties.  Returns the column
    per row, -1 for rows left unmatched.
    """
    rows, cols = np.nonzero(ious >= threshold)
    values = ious.tolist()
    candidates: list[list[tuple[float, int]]] = [[] for _ in values]
    for i, j in zip(rows.tolist(), cols.tolist()):
        candidates[i].append((values[i][j], j))
    match = [-1] * len(ious)
    taken: set[int] = set()
    for i, cands in enumerate(candidates):
        free = [c for c in cands if c[1] not in taken]
        if free:
            # max() keeps the first maximal entry, the lowest column
            match[i] = max(free, key=lambda c: c[0])[1]
            taken.add(match[i])
    return match
