"""Axis-aligned bounding-box arithmetic on arrays: areas, overlaps, IoU and IoH.

Boxes are the rows of float64 arrays in corner form (x_min, y_min, x_max,
y_max); the box record `BBox` lives in `records`, with the other records.
`pairwise_intersection`, `pairwise_iou` and `pairwise_ioh` compute the
overlaps of every pair of boxes from two (n, 4) float64 arrays.  Each entry
is bit-identical, for finite input and up to the sign of zero, to the
one-pair references `intersection_area`, `iou` and `ioh` in
`tests/oracles.py`: intersection 0 for disjoint or touching boxes, IoU 0 for
two zero-area boxes, and IoH (the overlap over the head's area) an error for
a zero-area head.
`greedy_match` is the one greedy assignment over such a matrix.

The kernels and `greedy_match` also take leading batch axes: (..., n, 4)
and (..., m, 4) stacks give (..., n, m) matrices whose every slice is
bit-identical to the 2-D call on that slice, and the matcher assigns each
slice on its own.  Scenes of different sizes share one stack by padding
with the zero box (0, 0, 0, 0): its intersection with any box is 0, so its
IoU and its IoH with a head are 0 and it never passes a positive threshold.
`padded_batches` groups the scenes of a split, size-sorted, into such
stacks under a bound on their padded pairs, and `padded_stack` fills one;
the evaluator, NMS and the post-process's one IoH gate, which
`pipeline.scene_scorers` runs over a whole split, all batch through them.
"""

from __future__ import annotations

import math

import numpy as np


def areas(boxes: np.ndarray) -> np.ndarray:
    """The area of each box of a (..., 4) array, width times height."""
    wh = boxes[..., 2:] - boxes[..., :2]
    return wh[..., 0] * wh[..., 1]


def pairwise_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., n, m) matrix of the intersection areas of boxes a[..., i] and
    b[..., j]."""
    # clamping the extents at 0 gives 0 for every disjoint or touching pair
    # (up to the sign of zero)
    a, b = a[..., :, None, :], b[..., None, :, :]
    wh = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    np.maximum(wh, 0.0, out=wh)
    return wh[..., 0] * wh[..., 1]


# The union of two boxes is never below either area, so it is 0 only for two
# zero-area boxes, whose intersection is 0 too.  Flooring the union at the
# smallest positive double therefore turns 0/0 into an IoU of 0 and
# leaves every other quotient unchanged.
_UNION_FLOOR = float(np.nextafter(0.0, 1.0))


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., n, m) matrix of the IoU of boxes a[..., i] and b[..., j]; 0 for
    two zero-area boxes."""
    area_a = areas(a)
    area_b = area_a if b is a else areas(b)
    inter = pairwise_intersection(a, b)
    return inter / np.maximum(area_a[..., :, None] + area_b[..., None, :] - inter,
                              _UNION_FLOOR)


def pairwise_ioh(heads: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """(..., n, m) matrix of the overlap of heads[..., i] and bodies[..., j]
    over the area of heads[..., i]: 1 exactly when the head lies inside the
    body.

    Raises ValueError for a zero-area head whenever there is at least one
    body to compare it with.
    """
    head_area = areas(heads)
    if bodies.shape[-2]:
        degenerate = np.argwhere(head_area <= 0.0)
        if len(degenerate):
            from .records import BBox  # the message shows the head as a record
            raise ValueError(f"zero-area head box: {BBox(*heads[tuple(degenerate[0])])}")
    return pairwise_intersection(heads, bodies) / head_area[..., :, None]


# padded pairs per stack that `padded_batches` forms
PAIR_BUDGET = 4096


def ragged(starts: np.ndarray, counts: np.ndarray):
    """The indices of the runs `starts[r]` .. `starts[r] + counts[r] - 1`,
    one after the other, with each index's run and its position in the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    pos = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[run] + pos, run, pos


def padded_batches(rows: np.ndarray, *cols: np.ndarray):
    """Batches of the items i that have pairs (`rows[i]` times the sum of
    the `cols[c][i]` is positive), as arrays of item indices sorted by size,
    so that items of like size share a batch, each with its largest `rows`
    entry and its largest entry of each `cols`.  A batch's zero-padded
    stack, its item count times the largest rows times the sum of the
    largest cols, stays within `PAIR_BUDGET` pairs; an item larger than that
    forms a batch alone."""
    items = np.flatnonzero(rows * sum(cols))
    items = items[np.lexsort(tuple(c[items] for c in reversed((rows, *cols))))]
    batch: list[int] = []
    shape: tuple = ()
    for i, *sizes in zip(items.tolist(), rows[items].tolist(),
                         *(c[items].tolist() for c in cols)):
        grown = tuple(map(max, shape or sizes, sizes))
        if batch and (len(batch) + 1) * grown[0] * sum(grown[1:]) > PAIR_BUDGET:
            yield np.array(batch), shape
            batch, grown = [], tuple(sizes)
        batch.append(i)
        shape = grown
    if batch:
        yield np.array(batch), shape


def padded_stack(boxes: np.ndarray, starts: np.ndarray, counts: np.ndarray, width: int,
                 pad=(0.0, 0.0, 0.0, 0.0)):
    """A (runs, width, 4) stack whose row r holds the boxes
    `boxes[starts[r]:starts[r] + counts[r]]` and then copies of `pad`; with
    it, `ragged(starts, counts)`, which places each index of `boxes` in the
    stack."""
    stack = np.empty((len(counts), width, 4))
    stack[...] = pad
    index, run, pos = placed = ragged(starts, counts)
    stack[run, pos] = boxes[index]
    return stack, placed


def greedy_match(ious: np.ndarray, threshold: float) -> list:
    """One-to-one greedy assignment of rows to columns, rows in order.

    Each row takes the still-free column of maximal value when that value
    reaches `threshold`, the lowest such column on ties.  Returns the column
    per row, -1 for rows left unmatched.  An (..., n, m) stack is matched
    slice by slice and gives the per-slice lists nested as its leading axes.
    """
    *lead, n, m = ious.shape
    flat = ious.reshape(math.prod(lead), n, m)
    hits = flat >= threshold
    slices, rows, cols = np.nonzero(hits)
    # one key per (slice, row) and per (slice, column), so every slice has
    # its own rows and its own taken columns
    row_keys = (slices * n + rows).tolist()
    col_keys = (slices * m + cols).tolist()
    match = [-1] * (len(flat) * n)
    taken: set[int] = set()
    # candidates come row by row, columns ascending; a row's pick is fixed
    # once the next row starts
    row, best, best_value = -1, -1, 0.0
    for r, c, k, v in zip(row_keys, cols.tolist(), col_keys, flat[hits].tolist()):
        if r != row:
            if best >= 0:
                match[row] = best
                taken.add(row // n * m + best)
            row, best = r, -1
        # strictly greater keeps the first maximal entry, the lowest column
        if k not in taken and (best < 0 or v > best_value):
            best, best_value = c, v
    if best >= 0:
        match[row] = best
    if not lead:
        return match
    return np.array(match, dtype=np.int64).reshape(ious.shape[:-1]).tolist()
