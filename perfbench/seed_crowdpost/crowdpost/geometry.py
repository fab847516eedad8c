"""Axis-aligned bounding-box arithmetic: areas, overlaps, IoU and IoH."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BBox:
    """Rectangle in pixel coordinates, corner form (x_min, y_min, x_max, y_max).

    Zero-area boxes are allowed; negative extents are rejected at construction.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"box has negative extent: ({self.x_min}, {self.y_min}, "
                             f"{self.x_max}, {self.y_max})")

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

    def clipped(self, width: float, height: float) -> "BBox":
        """Clip into the image rectangle [0, width] x [0, height]."""
        clamp = lambda v, hi: min(max(v, 0.0), hi)
        return BBox(clamp(self.x_min, width), clamp(self.y_min, height),
                    clamp(self.x_max, width), clamp(self.y_max, height))

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
