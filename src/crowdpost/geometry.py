"""Axis-aligned bounding-box arithmetic on arrays: areas, overlaps, IoU and IoH.

Boxes are the rows of float64 arrays in corner form (x_min, y_min, x_max,
y_max).
`pairwise_intersection`, `pairwise_iou` and `pairwise_ioh` compute the
overlaps of every pair of boxes from two (n, 4) float64 arrays.  Each entry
is bit-identical, for finite input and up to the sign of zero, to the
one-pair references `intersection_area`, `iou` and `ioh` in
`tests/oracles.py`: intersection 0 for disjoint or touching boxes, IoU 0 for
two zero-area boxes, and IoH (the overlap over the head's area) an error for
a zero-area head.
The kernels also take leading batch axes: (..., n, 4) and (..., m, 4)
stacks give (..., n, m) matrices whose every slice is bit-identical to the
2-D call on that slice.  `greedy_match`, the one greedy assignment, takes a
(b, n, m) stack of such matrices, matches each slice on its own and
returns the (b, n) array of the columns taken.  Scenes of different sizes
share one stack by padding with the zero box (0, 0, 0, 0): its
intersection with any box is 0, so its IoU and its IoH with a head are 0
and it never passes a positive threshold.
`padded_batches` groups the scenes of a split, size-sorted, into such
stacks under a bound on their padded pairs, and `padded_stack` fills one;
the evaluator's matcher, NMS and the one IoH gate, `pipeline.gate`, which
`run` and `train-rdm` run over a whole split, all batch through them.
"""

from __future__ import annotations

import numpy as np


def areas(boxes: np.ndarray) -> np.ndarray:
    """The area of each box of a (..., 4) array, width times height."""
    wh = boxes[..., 2:] - boxes[..., :2]
    return wh[..., 0] * wh[..., 1]


def pairwise_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., n, m) matrix of the intersection areas of boxes a[..., i] and
    b[..., j]."""
    # clamping the extents at 0 gives 0 for every disjoint or touching pair
    # (up to the sign of zero).  The x and the y extents are separate
    # (..., n, m) planes: with a trailing axis of 2, each ufunc's inner loop
    # would handle two values per call.
    a, b = a[..., :, None, :], b[..., None, :, :]
    w = np.minimum(a[..., 2], b[..., 2])
    w -= np.maximum(a[..., 0], b[..., 0])
    np.maximum(w, 0.0, out=w)
    h = np.minimum(a[..., 3], b[..., 3])
    h -= np.maximum(a[..., 1], b[..., 1])
    np.maximum(h, 0.0, out=h)
    w *= h
    return w


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
    union = area_a[..., :, None] + area_b[..., None, :]
    union -= inter
    np.maximum(union, _UNION_FLOOR, out=union)
    inter /= union
    return inter


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
            raise ValueError(f"zero-area head box: {tuple(heads[tuple(degenerate[0])].tolist())}")
    inter = pairwise_intersection(heads, bodies)
    inter /= head_area[..., :, None]
    return inter


# padded pairs per stack that `padded_batches` forms
PAIR_BUDGET = 4096


def ragged(starts: np.ndarray, counts: np.ndarray):
    """The indices of the runs `starts[r]` .. `starts[r] + counts[r] - 1`,
    one after the other, with each index's run and its position in the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    pos = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[run] + pos, run, pos


def padded_batches(rows: np.ndarray, cols: np.ndarray):
    """Batches of the items i that have pairs (`rows[i] * cols[i]` is
    positive), as arrays of item indices sorted by size, so that items of
    like size share a batch, each with its largest `rows` and its largest
    `cols` entry.  A batch's zero-padded stack, its item count times those
    two, stays within `PAIR_BUDGET` pairs; an item larger than that forms a
    batch alone."""
    items = np.flatnonzero(rows * cols)
    items = items[np.lexsort((cols[items], rows[items]))]
    batch: list[int] = []
    shape = (0, 0)
    for i, n, m in zip(items.tolist(), rows[items].tolist(), cols[items].tolist()):
        grown = (max(shape[0], n), max(shape[1], m))
        if batch and (len(batch) + 1) * grown[0] * grown[1] > PAIR_BUDGET:
            yield np.array(batch), shape
            batch, grown = [], (n, m)
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


def greedy_match(ious: np.ndarray, threshold: float) -> np.ndarray:
    """One-to-one greedy assignment of rows to columns, rows in order, in
    each slice of a (b, n, m) stack.  Each row takes the still-free column
    of maximal value when that value reaches `threshold`, the lowest such
    column on ties.  Returns the (b, n) column per row, -1 for none."""
    b, n, m = ious.shape
    hits = ious >= threshold
    slices, rows, cols = np.nonzero(hits)
    # one key per (slice, row) and per (slice, column), so every slice has
    # its own rows and its own taken columns
    row_keys = (slices * n + rows).tolist()
    col_keys = (slices * m + cols).tolist()
    match = [-1] * (b * n)
    taken: set[int] = set()
    # candidates come row by row, columns ascending; a row's pick is fixed
    # once the next row starts
    row, best, best_value = -1, -1, 0.0
    for r, c, k, v in zip(row_keys, cols.tolist(), col_keys, ious[hits].tolist()):
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
    return np.array(match, dtype=np.intp).reshape(b, n)
