import numpy as np
import pytest

from crowdpost.geometry import (areas, greedy_match, pairwise_intersection, pairwise_ioh,
                                pairwise_iou)
from crowdpost.data_model import _parse_box
from crowdpost.simulator import _center, _center_box

from helpers import box, box_array
from oracles import area, intersection_area, ioh, iou, raster_iou, raster_ioh


def _one(kernel, a, b):
    """A kernel's value for one pair of boxes, from a 1 x 1 call."""
    return kernel(box_array([a]), box_array([b]))[0, 0]


def _read_box(*corners):
    """A box as the per-field parser reads a file's box field: the rules
    of a box are checked there, and its corners become floats."""
    return _parse_box(list(corners), "", "box")


def test_bbox_rejects_negative_extent():
    with pytest.raises(ValueError):
        _read_box(10, 0, 5, 10)
    with pytest.raises(ValueError):
        _read_box(0, 10, 10, 5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bbox_rejects_non_finite(bad):
    for i in range(4):
        coords = [0.0, 0.0, 10.0, 10.0]
        coords[i] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _read_box(*coords)


def test_bbox_zero_area_allowed():
    b = _read_box(3, 4, 3, 10)
    assert area(b) == 0.0
    assert b[2] - b[0] == 0.0


def test_bbox_accessors():
    b = _read_box(1, 2, 5, 10)
    assert b == (1, 2, 5, 10)
    assert [type(v) for v in b] == [float] * 4


def test_from_center_size_round_trip():
    # the simulator's boxes, made from a center and a size
    b = _center_box(12.5, 40.0, 5.0, 16.0)
    assert _center(b) == (12.5, 40.0)
    assert b[2] - b[0] == 5.0
    assert b[3] - b[1] == 16.0


def test_area_examples():
    assert areas(np.array([(0, 0, 10, 10), (0, 0, 0, 10), (1.5, 2.0, 4.0, 6.0)],
                          dtype=np.float64)).tolist() == [100.0, 0.0, 10.0]


def test_intersection_examples():
    a = box(0, 0, 10, 10)
    assert _one(pairwise_intersection, a, box(0, 0, 10, 10)) == 100.0
    assert _one(pairwise_intersection, a, box(20, 20, 30, 30)) == 0.0
    assert _one(pairwise_intersection, a, box(5, 0, 100, 100)) == 50.0


def test_intersection_bounded_by_min_area():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(0, 50, size=8)
        a = box(min(x[0], x[1]), min(x[2], x[3]), max(x[0], x[1]), max(x[2], x[3]))
        b = box(min(x[4], x[5]), min(x[6], x[7]), max(x[4], x[5]), max(x[6], x[7]))
        assert _one(pairwise_intersection, a, b) <= min(area(a), area(b)) + 1e-12


def test_iou_examples():
    a = box(0, 0, 10, 10)
    assert _one(pairwise_iou, a, a) == 1.0
    assert _one(pairwise_iou, a, box(20, 20, 30, 30)) == 0.0
    assert _one(pairwise_iou, a, box(5, 0, 100, 100)) == 50.0 / 9550.0


def test_iou_both_zero_area():
    z = box(5, 5, 5, 5)
    assert _one(pairwise_iou, z, z) == 0.0
    assert iou(z, z) == 0.0


def test_iou_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = rng.integers(0, 40, size=8)
        a = box(min(c[0], c[1]), min(c[2], c[3]), max(c[0], c[1]) + 1, max(c[2], c[3]) + 1)
        b = box(min(c[4], c[5]), min(c[6], c[7]), max(c[4], c[5]) + 1, max(c[6], c[7]) + 1)
        assert _one(pairwise_iou, a, b) == _one(pairwise_iou, b, a)


def test_ioh_worked_example():
    assert _one(pairwise_ioh, box(0, 0, 10, 10), box(5, 0, 100, 100)) == 0.5


def test_ioh_containment_and_disjoint():
    body = box(0, 0, 50, 120)
    assert _one(pairwise_ioh, box(10, 5, 20, 15), body) == 1.0
    assert _one(pairwise_ioh, box(200, 200, 210, 210), body) == 0.0


def test_ioh_is_one_iff_contained():
    inside = box(1, 1, 9, 9)
    assert _one(pairwise_ioh, inside, box(0, 0, 10, 10)) == 1.0
    sticking_out = box(1, 1, 11, 9)
    assert _one(pairwise_ioh, sticking_out, box(0, 0, 10, 10)) < 1.0


def test_ioh_asymmetric_pair():
    # regression: IoH must not be symmetric
    small = box(0, 0, 10, 10)
    big = box(0, 0, 100, 100)
    assert _one(pairwise_ioh, small, big) == 1.0
    assert _one(pairwise_ioh, big, small) == 0.01


def test_ioh_zero_area_head_rejected():
    with pytest.raises(ValueError, match="zero-area head"):
        _one(pairwise_ioh, box(5, 5, 5, 5), box(0, 0, 10, 10))
    with pytest.raises(ValueError, match="zero-area head"):
        ioh((5, 5, 5, 5), (0, 0, 10, 10))


def _random_int_box(rng, lo=0, hi=60):
    x = sorted(rng.integers(lo, hi, size=2).tolist())
    y = sorted(rng.integers(lo, hi, size=2).tolist())
    return box(x[0], y[0], x[1] + 1, y[1] + 1)


def test_agreement_with_raster_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a = _random_int_box(rng)
        b = _random_int_box(rng)
        assert abs(_one(pairwise_iou, a, b) - raster_iou(a, b)) < 1e-9
        assert abs(_one(pairwise_ioh, a, b) - raster_ioh(a, b)) < 1e-9
        assert abs(iou(a, b) - raster_iou(a, b)) < 1e-9
        assert abs(ioh(a, b) - raster_ioh(a, b)) < 1e-9


# ---------------------------------------------------------------------------
# array kernels: every entry must equal the one-pair oracle exactly

def _kernel_cases():
    rng = np.random.default_rng(99)
    boxes = []
    for _ in range(40):
        x = np.sort(rng.uniform(-20, 80, size=2))
        y = np.sort(rng.uniform(-20, 80, size=2))
        boxes.append(box(x[0], y[0], x[1], y[1]))
    boxes += [
        box(0, 0, 10, 10), box(0, 0, 10, 10),      # identical
        box(10, 0, 20, 10), box(0, 10, 10, 20),    # shared edges
        box(2, 3, 7, 8), box(-5, -5, 30, 30),      # containment both ways
        box(4, 0, 4, 10), box(4, 0, 4, 10),        # zero width, identical
        box(0, 5, 10, 5),                           # zero height
        box(0.1, 0.2, 0.7, 0.9), box(0.3, 0.1, 1.1, 0.6),
    ]
    return boxes


def test_pairwise_iou_equals_scalar():
    boxes = _kernel_cases()
    a_arr, b_arr = box_array(boxes), box_array(boxes[::-1])
    for kernel, scalar in ((pairwise_intersection, intersection_area), (pairwise_iou, iou)):
        matrix = kernel(a_arr, b_arr)
        assert matrix.shape == (len(boxes), len(boxes))
        for i, a in enumerate(boxes):
            for j, b in enumerate(boxes[::-1]):
                assert matrix[i, j] == scalar(a, b)


def test_pairwise_ioh_equals_scalar():
    boxes = _kernel_cases()
    heads = [b for b in boxes if area(b) > 0.0]
    matrix = pairwise_ioh(box_array(heads), box_array(boxes))
    for i, h in enumerate(heads):
        for j, b in enumerate(boxes):
            assert matrix[i, j] == ioh(h, b)


def test_pairwise_empty_shapes():
    none = box_array([])
    some = box_array([box(0, 0, 1, 1), box(0, 0, 2, 2)])
    assert pairwise_intersection(none, some).shape == (0, 2)
    assert pairwise_intersection(some, none).shape == (2, 0)
    assert pairwise_iou(none, some).shape == (0, 2)
    assert pairwise_iou(some, none).shape == (2, 0)
    assert pairwise_ioh(some, none).shape == (2, 0)
    assert pairwise_ioh(none, some).shape == (0, 2)


def test_pairwise_ioh_zero_area_head_needs_bodies_to_raise():
    heads = box_array([box(0, 0, 4, 4), box(5, 5, 5, 9)])
    with pytest.raises(ValueError, match="zero-area head"):
        pairwise_ioh(heads, box_array([box(0, 0, 10, 10)]))
    assert pairwise_ioh(heads, box_array([])).shape == (2, 0)


def _greedy_match_reference(ious, threshold):
    # the per-row loop both matchers used before the matrix kernel
    taken, match = set(), []
    for row in ious:
        best, best_v = -1, threshold
        for j, v in enumerate(row):
            if j in taken:
                continue
            if v > best_v or (best < 0 and v == best_v):
                best, best_v = j, v
        if best >= 0:
            taken.add(best)
        match.append(best)
    return match


def test_greedy_match_examples():
    ious = np.array([[0.5, 0.9, 0.9],    # tie: lowest column
                     [0.4, 0.9, 0.6],    # column 1 taken: next best
                     [0.5, 0.2, 0.2],    # exactly at threshold
                     [0.7, 0.7, 0.7]])   # everything taken
    assert greedy_match(ious[None], 0.5)[0].tolist() == [1, 2, 0, -1]
    assert greedy_match(np.zeros((1, 3, 0)), 0.5)[0].tolist() == [-1, -1, -1]
    assert greedy_match(np.zeros((1, 0, 3)), 0.5)[0].tolist() == []


def test_greedy_match_agrees_with_loop_reference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = rng.integers(0, 8, size=2)
        # coarse values make ties and exact-threshold hits common
        ious = rng.integers(0, 5, size=(n, m)) / 4.0
        assert greedy_match(ious[None], 0.5)[0].tolist() == _greedy_match_reference(ious, 0.5)


def _padded_stack(rng, boxes, slices, size):
    """(slices, size, 4) stack of random picks from `boxes`, each slice holding
    0..size of them and zero-padded after."""
    stack = np.zeros((slices, size, 4))
    for s in range(slices):
        k = int(rng.integers(0, size + 1))
        stack[s, :k] = box_array(boxes[i] for i in rng.integers(0, len(boxes), size=k))
    return stack


def test_pairwise_batched_equals_per_slice_bit_for_bit():
    boxes = _kernel_cases()
    rng = np.random.default_rng(17)
    a, b = _padded_stack(rng, boxes, 12, 9), _padded_stack(rng, boxes, 12, 7)
    for kernel in (pairwise_intersection, pairwise_iou):
        batched = kernel(a, b)
        assert batched.shape == (12, 9, 7)
        for s in range(12):
            # padding rows and columns included; bytes also compare the sign of zero
            assert batched[s].tobytes() == kernel(a[s], b[s]).tobytes()
        # any number of leading axes
        deep = kernel(a.reshape(3, 4, 9, 4), b.reshape(3, 4, 7, 4))
        assert deep.tobytes() == batched.tobytes()
    assert pairwise_iou(a[:, :0], b).shape == (12, 0, 7)
    assert pairwise_iou(a, b[:, :0]).shape == (12, 9, 0)


def test_zero_box_padding_never_overlaps():
    boxes = box_array(_kernel_cases())
    zero = np.zeros((1, 4))
    assert not pairwise_intersection(zero, boxes).any()
    assert not pairwise_iou(boxes, zero).any()


def test_batched_greedy_match_equals_per_slice():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s, n, m = rng.integers(0, 6, size=3)
        ious = rng.integers(0, 5, size=(s, n, m)) / 4.0
        assert greedy_match(ious, 0.5).tolist() == [greedy_match(x[None], 0.5)[0].tolist()
                                                    for x in ious]
    ious = rng.integers(0, 5, size=(2, 3, 4, 5)) / 4.0
    assert (greedy_match(ious.reshape(6, 4, 5), 0.5).reshape(2, 3, 4).tolist()
            == [[greedy_match(x[None], 0.5)[0].tolist() for x in row] for row in ious])
