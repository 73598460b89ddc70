import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjamr import equations as eqs
from adjamr.amr import (AmrContext, DifferenceFlagging,
                        EverywhereFlagging, RefinementRegion,
                        SurfaceFlagging, advance_hierarchy, buffer_flags,
                        cluster, flag_cells, make_patch, new_level, regrid,
                        restrict_fine_to_coarse)
from adjamr.geometry import Patch, PatchHierarchy, enforce_nesting
from adjamr.solver import (BoundarySpec, fill_ghost_from_coarse, fill_ghost_physical,
                           sample_patch_material, step_patch)


def const_ac2d(K=1.0, rho=1.0):
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.full_like(x, K), lambda x, y: np.full_like(x, rho)))


def basic_ctx(eq, **kw):
    return AmrContext(equation=eq, boundary=BoundarySpec(),
                      strategy=kw.pop("strategy", EverywhereFlagging()), **kw)


def ff(mask):
    return np.asarray(mask, dtype=bool)


# ---------------------------------------------------------------------------
# flag_cells


def patch_2d(eq, nx=10, ny=10, xlim=(0.0, 10.0), ylim=(0.0, 10.0)):
    h = PatchHierarchy(xlim=xlim, ylim=ylim, base_shape=(nx, ny), ratios=[2])
    p = Patch(h.make_spec(1, (0, 0), (nx - 1, ny - 1)), eq.m)
    sample_patch_material(p, eq, BoundarySpec(), (nx, ny))
    return h, p


def test_difference_flagging_constant_state_empty():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    p.state[...] = 3.0
    out = flag_cells(p, DifferenceFlagging(0.1))
    assert not out.any()


def test_difference_flagging_spike_flags_neighbors():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    p.state[...] = 0.0
    g = p.spec.ghost_width
    p.state[0, g + 5, g + 5] = 1.0
    out = flag_cells(p, DifferenceFlagging(0.1))
    want = np.zeros((10, 10), dtype=bool)
    want[5, 5] = True
    want[4, 5] = want[6, 5] = want[5, 4] = want[5, 6] = True
    assert np.array_equal(out, want)


def test_difference_flag_monotone_in_tolerance():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    rng = np.random.default_rng(2)
    p.state[...] = rng.normal(size=p.state.shape)
    loose = flag_cells(p, DifferenceFlagging(0.5))
    tight = flag_cells(p, DifferenceFlagging(0.1))
    assert np.all(tight | ~loose)       # lowering tol never shrinks the set


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_flagging_refuses_a_tolerance_that_is_not_positive_and_finite(tolerance):
    # nan <= 0 is False: a NaN tolerance would construct and then flag nothing
    with pytest.raises(ValueError, match=f"tolerance must be finite and positive, got {tolerance}"):
        DifferenceFlagging(tolerance)


def test_surface_flagging_wet_only():
    def bathy(x, y):
        return np.where(np.asarray(x) < 5.0, -10.0, 5.0)    # right half dry
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy))
    _, p = patch_2d(eq)
    p.interior()[0] = 1.0          # big surface perturbation everywhere
    out = flag_cells(p, SurfaceFlagging(0.1))
    xs = p.spec.cell_centers()[0]
    assert out[xs < 5.0].all()
    assert not out[xs > 5.0].any()


def test_region_require_and_forbid_idempotent():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    p.state[...] = 0.0
    require = RefinementRegion(min_level=2, max_level=3, t1=0.0, t2=1.0,
                               rect=(0.0, 3.0, 0.0, 3.0))
    forbid = RefinementRegion(min_level=1, max_level=1, t1=0.0, t2=1.0,
                              rect=(7.0, 10.0, 7.0, 10.0))
    strat = EverywhereFlagging()
    once = flag_cells(p, strat, (require, forbid))
    assert once[0, 0]                       # required corner set
    assert not once[9, 9]                   # forbidden corner cleared
    twice = flag_cells(p, strat, (require, forbid, require, forbid))
    assert np.array_equal(once, twice)


def test_region_outside_time_window_ignored():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    p.layout.time = 5.0
    forbid = RefinementRegion(min_level=1, max_level=1, t1=0.0, t2=1.0,
                              rect=(0.0, 10.0, 0.0, 10.0))
    out = flag_cells(p, EverywhereFlagging(), (forbid,))
    assert out.all()


# ---------------------------------------------------------------------------
# buffer_flags


def test_buffer_empty_stays_empty():
    out = buffer_flags(ff(np.zeros((8, 8))), 2)
    assert not out.any()


def test_buffer_single_cell_becomes_block():
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    out = buffer_flags(ff(mask), 2)
    want = np.zeros((9, 9), dtype=bool)
    want[2:7, 2:7] = True
    assert np.array_equal(out, want)


def test_buffer_merges_nearby_cells():
    mask = np.zeros((12,), dtype=bool)
    mask[3] = mask[6] = True
    out = buffer_flags(ff(mask), 2)
    # brute-force dilation oracle
    want = np.zeros((12,), dtype=bool)
    for k in np.nonzero(mask)[0]:
        want[max(0, k - 2):k + 3] = True
    assert np.array_equal(out, want)
    assert out[3:9].all()


@given(st.integers(0, 3), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_buffer_matches_bruteforce_dilation(buf, n):
    rng = np.random.default_rng(n)
    mask = rng.random((n, max(1, n // 2))) < 0.2
    out = buffer_flags(ff(mask), buf)
    want = np.zeros_like(mask)
    for i, j in zip(*np.nonzero(mask)):
        want[max(0, i - buf):i + buf + 1, max(0, j - buf):j + buf + 1] = True
    assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# cluster


def coverage_ok(mask, boxes, threshold):
    cov = np.zeros(mask.shape, dtype=int)
    for b in boxes:
        sl = tuple(slice(l, h + 1) for l, h in zip(b.lo, b.hi))
        cov[sl] += 1
        assert b.efficiency >= threshold or b.shape == (1,) * mask.ndim
    assert np.all(cov[mask] == 1)
    assert np.all(cov <= 1)


def test_cluster_empty():
    assert cluster(np.zeros((6, 6), dtype=bool), 0.7) == []


def test_cluster_full_rectangle_single_box():
    boxes = cluster(np.ones((7, 4), dtype=bool), 0.7)
    assert len(boxes) == 1
    assert boxes[0].efficiency == 1.0
    assert boxes[0].lo == (0, 0) and boxes[0].hi == (6, 3)


def test_cluster_l_shape():
    mask = np.ones((10, 10), dtype=bool)
    mask[5:, 5:] = False
    boxes = cluster(mask, 0.7)
    assert len(boxes) >= 2
    coverage_ok(mask, boxes, 0.7)


def test_cluster_respects_max_edge():
    boxes = cluster(np.ones((100, 20), dtype=bool), 0.7, max_edge=30)
    assert all(max(b.shape) <= 30 for b in boxes)
    coverage_ok(np.ones((100, 20), dtype=bool), boxes, 0.7)


def test_cluster_offset_flagfield():
    mask = np.zeros((6, 6), dtype=bool)
    mask[1:3, 2:5] = True
    boxes = cluster(ff(mask), 0.7)
    assert boxes[0].lo == (1, 2) and boxes[0].hi == (2, 4)


@given(st.integers(1, 32), st.integers(1, 32), st.floats(0.05, 0.95),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_cluster_random_properties(nx, ny, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nx, ny)) < density
    boxes = cluster(mask, 0.7, max_edge=16)
    if mask.any():
        assert boxes
    coverage_ok(mask, boxes, 0.7)
    assert all(max(b.shape) <= 16 for b in boxes)


# Boxes `cluster` picked on its split table, captured before it ran on prefix
# sums; ties must go the same way.  A row is (shape, density, seed,
# threshold, max_edge, boxes) for the mask `default_rng(seed).random(shape) <
# density`, and each box is (lo, hi, efficiency).
SPLIT_TABLE = [
    ((40,), 0.9, 0, 0.5, None,
     [((39,), (39,), 1.0), ((28,), (37,), 1.0), ((0,), (25,), 0.9230769230769231)]),
    ((17, 5), 0.21, 1, 0.7, None,
     [((14, 0), (15, 0), 1.0), ((12, 1), (12, 1), 1.0), ((11, 0), (11, 0), 1.0),
      ((10, 4), (10, 4), 1.0), ((9, 3), (9, 3), 1.0), ((10, 2), (10, 2), 1.0),
      ((7, 4), (7, 4), 1.0), ((5, 3), (5, 3), 1.0), ((6, 1), (7, 1), 1.0),
      ((3, 3), (3, 3), 1.0), ((3, 1), (3, 1), 1.0), ((1, 4), (1, 4), 1.0),
      ((0, 2), (0, 2), 1.0)]),
    ((13,), 0.36, 2, 1.0, None,
     [((11,), (11,), 1.0), ((6,), (8,), 1.0), ((3,), (3,), 1.0), ((0,), (1,), 1.0)]),
    ((10, 31), 0.65, 3, 0.5, 16,
     [((0, 15), (9, 30), 0.63125), ((0, 0), (9, 14), 0.6333333333333333)]),
    ((43,), 0.86, 4, 0.7, 16,
     [((36,), (42,), 1.0), ((33,), (34,), 1.0), ((28,), (31,), 1.0), ((22,), (26,), 1.0),
      ((18,), (20,), 1.0), ((15,), (15,), 1.0), ((11,), (13,), 1.0), ((9,), (9,), 1.0),
      ((3,), (7,), 1.0), ((1,), (1,), 1.0)]),
    ((8, 20), 0.05, 5, 1.0, 16,
     [((7, 16), (7, 16), 1.0), ((6, 14), (6, 14), 1.0), ((5, 12), (5, 12), 1.0),
      ((6, 9), (6, 10), 1.0), ((4, 8), (4, 8), 1.0), ((1, 11), (1, 11), 1.0),
      ((2, 8), (2, 8), 1.0), ((1, 9), (1, 9), 1.0), ((0, 7), (0, 8), 1.0)]),
    ((55,), 0.54, 6, 0.5, 30,
     [((28,), (54,), 0.5555555555555556), ((25,), (26,), 1.0), ((21,), (23,), 1.0),
      ((19,), (19,), 1.0), ((16,), (17,), 1.0), ((12,), (12,), 1.0), ((9,), (10,), 1.0),
      ((7,), (7,), 1.0), ((0,), (3,), 1.0)]),
    ((7, 30), 0.28, 7, 0.7, 30,
     [((5, 29), (6, 29), 1.0), ((2, 29), (2, 29), 1.0), ((6, 25), (6, 25), 1.0),
      ((4, 26), (4, 26), 1.0), ((6, 23), (6, 23), 1.0), ((5, 23), (5, 24), 1.0),
      ((3, 27), (3, 27), 1.0), ((3, 24), (3, 24), 1.0), ((2, 23), (2, 23), 1.0),
      ((3, 22), (3, 22), 1.0), ((2, 19), (2, 20), 1.0), ((1, 25), (1, 25), 1.0),
      ((0, 24), (0, 24), 1.0), ((0, 23), (0, 23), 1.0), ((1, 22), (1, 22), 1.0),
      ((0, 21), (0, 21), 1.0), ((0, 20), (0, 20), 1.0), ((6, 16), (6, 16), 1.0),
      ((1, 16), (1, 16), 1.0), ((6, 14), (6, 14), 1.0), ((5, 13), (5, 13), 1.0),
      ((6, 12), (6, 12), 1.0), ((5, 8), (6, 10), 1.0), ((6, 5), (6, 7), 1.0),
      ((4, 13), (4, 13), 1.0), ((2, 14), (2, 14), 1.0), ((0, 11), (0, 12), 1.0),
      ((1, 10), (1, 10), 1.0), ((4, 8), (4, 8), 1.0), ((3, 8), (3, 9), 1.0),
      ((1, 9), (2, 9), 1.0), ((1, 7), (2, 7), 1.0), ((4, 5), (4, 6), 1.0),
      ((3, 6), (3, 6), 1.0), ((2, 5), (2, 5), 1.0), ((1, 5), (1, 5), 1.0),
      ((0, 6), (0, 6), 1.0), ((2, 3), (2, 3), 1.0), ((3, 0), (5, 0), 1.0),
      ((1, 2), (1, 3), 1.0), ((0, 3), (0, 3), 1.0), ((1, 1), (1, 1), 1.0)]),
    ((23,), 0.46, 8, 1.0, 30,
     [((21,), (22,), 1.0), ((15,), (16,), 1.0), ((10,), (13,), 1.0), ((5,), (8,), 1.0),
      ((2,), (2,), 1.0), ((0,), (0,), 1.0)]),
    ((27, 11), 0.88, 9, 0.5, None,
     [((0, 0), (26, 10), 0.8787878787878788)]),
    ((30,), 0.28, 10, 0.7, None,
     [((20,), (20,), 1.0), ((18,), (18,), 1.0), ((16,), (16,), 1.0), ((5,), (5,), 1.0),
      ((3,), (3,), 1.0), ((1,), (1,), 1.0)]),
    ((4, 36), 0.65, 11, 1.0, None,
     [((3, 34), (3, 34), 1.0), ((2, 34), (2, 35), 1.0), ((3, 32), (3, 33), 1.0),
      ((2, 33), (2, 33), 1.0), ((3, 29), (3, 29), 1.0), ((2, 28), (2, 29), 1.0),
      ((2, 26), (2, 27), 1.0), ((3, 23), (3, 25), 1.0), ((3, 20), (3, 21), 1.0),
      ((2, 21), (2, 21), 1.0), ((3, 19), (3, 19), 1.0), ((2, 16), (3, 18), 1.0),
      ((3, 14), (3, 15), 1.0), ((2, 15), (2, 15), 1.0), ((2, 11), (3, 13), 1.0),
      ((3, 9), (3, 10), 1.0), ((2, 6), (3, 8), 1.0), ((3, 3), (3, 4), 1.0),
      ((2, 4), (2, 4), 1.0), ((2, 1), (3, 2), 1.0), ((2, 0), (2, 0), 1.0),
      ((1, 35), (1, 35), 1.0), ((0, 34), (0, 35), 1.0), ((1, 33), (1, 33), 1.0),
      ((0, 32), (0, 32), 1.0), ((0, 29), (1, 31), 1.0), ((1, 26), (1, 27), 1.0),
      ((0, 26), (0, 26), 1.0), ((1, 24), (1, 24), 1.0), ((0, 24), (0, 25), 1.0),
      ((0, 23), (1, 23), 1.0), ((0, 21), (1, 22), 1.0), ((1, 19), (1, 20), 1.0),
      ((0, 19), (0, 19), 1.0), ((1, 16), (1, 17), 1.0), ((0, 17), (0, 17), 1.0),
      ((1, 14), (1, 14), 1.0), ((0, 13), (0, 14), 1.0), ((1, 12), (1, 12), 1.0),
      ((0, 10), (1, 11), 1.0), ((0, 9), (0, 9), 1.0), ((0, 6), (1, 7), 1.0),
      ((1, 5), (1, 5), 1.0), ((0, 3), (1, 4), 1.0), ((0, 2), (0, 2), 1.0),
      ((1, 1), (1, 1), 1.0), ((0, 0), (0, 1), 1.0)]),
    ((44,), 0.88, 12, 0.5, 16,
     [((38,), (43,), 1.0), ((34,), (36,), 1.0), ((26,), (33,), 1.0), ((24,), (24,), 1.0),
      ((18,), (20,), 1.0), ((10,), (16,), 1.0), ((9,), (9,), 1.0), ((2,), (7,), 1.0),
      ((0,), (0,), 1.0)]),
    ((61, 5), 0.11, 13, 0.7, 16,
     [((60, 4), (60, 4), 1.0), ((59, 2), (59, 2), 1.0), ((55, 2), (55, 3), 1.0),
      ((50, 3), (50, 4), 1.0), ((49, 1), (49, 1), 1.0), ((43, 4), (43, 4), 1.0),
      ((36, 3), (36, 3), 1.0), ((42, 0), (42, 0), 1.0), ((32, 1), (32, 1), 1.0),
      ((31, 2), (31, 2), 1.0), ((30, 2), (30, 3), 1.0), ((29, 0), (29, 0), 1.0),
      ((26, 2), (26, 2), 1.0), ((27, 0), (27, 0), 1.0), ((15, 4), (15, 4), 1.0),
      ((15, 0), (15, 0), 1.0), ((12, 3), (12, 3), 1.0), ((11, 4), (11, 4), 1.0),
      ((7, 3), (7, 3), 1.0), ((7, 0), (7, 0), 1.0), ((5, 1), (5, 1), 1.0),
      ((0, 4), (0, 4), 1.0), ((1, 2), (2, 2), 1.0)]),
    ((57,), 0.89, 14, 1.0, 16,
     [((50,), (56,), 1.0), ((35,), (48,), 1.0), ((33,), (33,), 1.0), ((31,), (31,), 1.0),
      ((22,), (29,), 1.0), ((19,), (20,), 1.0), ((9,), (17,), 1.0), ((0,), (8,), 1.0)]),
    ((14, 22), 0.83, 15, 0.5, 30,
     [((0, 0), (13, 21), 0.814935064935065)]),
    ((55,), 0.25, 16, 0.7, 30,
     [((48,), (48,), 1.0), ((45,), (45,), 1.0), ((41,), (41,), 1.0), ((34,), (34,), 1.0),
      ((30,), (30,), 1.0), ((24,), (24,), 1.0), ((17,), (17,), 1.0), ((12,), (12,), 1.0),
      ((10,), (10,), 1.0), ((8,), (8,), 1.0), ((5,), (5,), 1.0), ((2,), (2,), 1.0)]),
    ((27, 5), 0.65, 17, 1.0, 30,
     [((26, 4), (26, 4), 1.0), ((25, 3), (25, 4), 1.0), ((25, 2), (26, 2), 1.0),
      ((25, 0), (26, 1), 1.0), ((24, 1), (24, 1), 1.0), ((22, 3), (23, 4), 1.0),
      ((21, 3), (21, 3), 1.0), ((20, 3), (20, 4), 1.0), ((19, 3), (19, 3), 1.0),
      ((18, 4), (18, 4), 1.0), ((15, 3), (17, 4), 1.0), ((23, 1), (23, 2), 1.0),
      ((22, 1), (22, 1), 1.0), ((23, 0), (23, 0), 1.0), ((21, 2), (21, 2), 1.0),
      ((20, 1), (20, 1), 1.0), ((19, 0), (19, 0), 1.0), ((18, 1), (18, 2), 1.0),
      ((17, 1), (17, 1), 1.0), ((17, 0), (17, 0), 1.0), ((15, 0), (16, 2), 1.0),
      ((14, 2), (14, 2), 1.0), ((14, 0), (14, 0), 1.0), ((13, 3), (13, 4), 1.0),
      ((12, 3), (12, 3), 1.0), ((12, 2), (13, 2), 1.0), ((12, 0), (13, 1), 1.0),
      ((10, 3), (11, 4), 1.0), ((11, 2), (11, 2), 1.0), ((11, 0), (11, 1), 1.0),
      ((10, 1), (10, 1), 1.0), ((9, 3), (9, 4), 1.0), ((8, 4), (8, 4), 1.0),
      ((7, 3), (7, 4), 1.0), ((6, 3), (6, 3), 1.0), ((5, 3), (5, 3), 1.0),
      ((4, 3), (4, 3), 1.0), ((3, 3), (3, 4), 1.0), ((1, 4), (1, 4), 1.0),
      ((0, 3), (0, 4), 1.0), ((8, 1), (9, 2), 1.0), ((9, 0), (9, 0), 1.0),
      ((7, 1), (7, 2), 1.0), ((6, 2), (6, 2), 1.0), ((5, 1), (5, 2), 1.0),
      ((6, 0), (6, 0), 1.0), ((2, 0), (4, 2), 1.0), ((0, 1), (1, 2), 1.0),
      ((1, 0), (1, 0), 1.0)]),
    ((51,), 0.75, 18, 0.5, None,
     [((0,), (50,), 0.8235294117647058)]),
    ((6, 46), 0.17, 19, 0.7, None,
     [((4, 45), (4, 45), 1.0), ((3, 44), (3, 44), 1.0), ((3, 40), (3, 42), 1.0),
      ((2, 43), (2, 43), 1.0), ((0, 45), (0, 45), 1.0), ((1, 41), (1, 41), 1.0),
      ((0, 40), (0, 40), 1.0), ((3, 38), (3, 38), 1.0), ((4, 36), (4, 36), 1.0),
      ((4, 34), (4, 34), 1.0), ((2, 35), (2, 35), 1.0), ((5, 30), (5, 30), 1.0),
      ((4, 28), (4, 28), 1.0), ((3, 29), (3, 29), 1.0), ((0, 31), (0, 32), 1.0),
      ((5, 21), (5, 21), 1.0), ((4, 22), (4, 22), 1.0), ((3, 21), (3, 21), 1.0),
      ((2, 23), (2, 23), 1.0), ((1, 22), (1, 22), 1.0), ((0, 20), (0, 21), 1.0),
      ((2, 19), (2, 19), 1.0), ((1, 18), (1, 18), 1.0), ((2, 17), (2, 17), 1.0),
      ((2, 15), (2, 15), 1.0), ((4, 11), (5, 11), 1.0), ((3, 12), (3, 12), 1.0),
      ((2, 11), (2, 12), 1.0), ((5, 8), (5, 8), 1.0), ((5, 6), (5, 6), 1.0),
      ((5, 0), (5, 0), 1.0), ((3, 7), (3, 9), 1.0), ((3, 4), (3, 5), 1.0),
      ((2, 2), (2, 2), 1.0), ((3, 0), (3, 0), 1.0), ((1, 12), (1, 14), 1.0),
      ((1, 9), (1, 10), 1.0), ((1, 4), (1, 4), 1.0), ((0, 3), (0, 3), 1.0),
      ((1, 1), (1, 2), 1.0)]),
    ((26,), 0.07, 20, 1.0, None,
     [((17,), (17,), 1.0), ((14,), (14,), 1.0)]),
    ((49, 6), 0.17, 21, 0.5, 16,
     [((47, 4), (47, 5), 1.0), ((45, 5), (45, 5), 1.0), ((44, 3), (44, 3), 1.0),
      ((47, 0), (47, 0), 1.0), ((45, 0), (45, 0), 1.0), ((43, 1), (43, 1), 1.0),
      ((37, 2), (39, 5), 0.5833333333333334), ((34, 0), (34, 0), 1.0),
      ((30, 0), (31, 2), 0.5), ((27, 5), (27, 5), 1.0), ((27, 0), (28, 2), 0.5),
      ((25, 3), (25, 3), 1.0), ((24, 0), (25, 0), 1.0), ((22, 1), (23, 1), 1.0),
      ((19, 4), (19, 4), 1.0), ((17, 4), (17, 4), 1.0), ((14, 5), (14, 5), 1.0),
      ((12, 5), (12, 5), 1.0), ((19, 1), (19, 1), 1.0), ((16, 1), (17, 1), 1.0),
      ((13, 1), (13, 2), 1.0), ((10, 4), (10, 4), 1.0), ((9, 4), (9, 5), 1.0),
      ((9, 3), (9, 3), 1.0), ((8, 5), (8, 5), 1.0), ((8, 1), (8, 1), 1.0),
      ((6, 4), (6, 4), 1.0), ((6, 1), (6, 1), 1.0), ((3, 5), (3, 5), 1.0),
      ((0, 3), (0, 3), 1.0), ((1, 1), (1, 1), 1.0)]),
    ((61,), 0.59, 22, 0.7, 16,
     [((59,), (60,), 1.0), ((56,), (56,), 1.0), ((53,), (53,), 1.0), ((47,), (48,), 1.0),
      ((41,), (41,), 1.0), ((36,), (39,), 1.0), ((31,), (32,), 1.0),
      ((16,), (29,), 0.7142857142857143), ((11,), (14,), 1.0), ((8,), (9,), 1.0),
      ((4,), (4,), 1.0), ((0,), (2,), 1.0)]),
    ((27, 1), 0.34, 23, 1.0, 16,
     [((25, 0), (25, 0), 1.0), ((20, 0), (20, 0), 1.0), ((14, 0), (14, 0), 1.0),
      ((12, 0), (12, 0), 1.0), ((6, 0), (7, 0), 1.0), ((2, 0), (3, 0), 1.0)]),
    ((41,), 0.75, 24, 0.5, 30,
     [((20,), (40,), 0.8571428571428571), ((0,), (19,), 0.8)]),
    ((11, 29), 0.71, 25, 0.7, 30,
     [((6, 27), (10, 28), 0.8), ((9, 25), (10, 26), 1.0), ((7, 25), (7, 25), 1.0),
      ((10, 23), (10, 24), 1.0), ((6, 23), (8, 24), 0.8333333333333334),
      ((7, 21), (10, 22), 0.75), ((10, 19), (10, 19), 1.0), ((9, 20), (9, 20), 1.0),
      ((9, 18), (10, 18), 1.0), ((8, 19), (8, 20), 1.0), ((6, 18), (6, 18), 1.0),
      ((10, 16), (10, 16), 1.0), ((9, 17), (9, 17), 1.0), ((9, 15), (10, 15), 1.0),
      ((8, 16), (8, 17), 1.0), ((6, 15), (7, 16), 1.0),
      ((8, 10), (10, 14), 0.7333333333333333), ((10, 8), (10, 8), 1.0),
      ((8, 7), (8, 8), 1.0), ((9, 6), (10, 6), 1.0), ((8, 5), (8, 5), 1.0),
      ((8, 0), (10, 4), 0.7333333333333333), ((6, 7), (7, 14), 0.75),
      ((6, 0), (7, 5), 0.8333333333333334), ((0, 0), (5, 28), 0.7471264367816092)]),
    ((59,), 0.59, 26, 1.0, 30,
     [((57,), (58,), 1.0), ((51,), (52,), 1.0), ((48,), (48,), 1.0), ((44,), (45,), 1.0),
      ((39,), (42,), 1.0), ((37,), (37,), 1.0), ((29,), (32,), 1.0), ((27,), (27,), 1.0),
      ((25,), (25,), 1.0), ((20,), (20,), 1.0), ((18,), (18,), 1.0), ((13,), (16,), 1.0),
      ((7,), (11,), 1.0), ((5,), (5,), 1.0), ((0,), (2,), 1.0)]),
    ((9, 35), 0.53, 27, 0.5, None,
     [((6, 28), (8, 34), 0.5238095238095238), ((7, 25), (8, 25), 1.0),
      ((7, 22), (7, 22), 1.0), ((7, 20), (8, 20), 1.0), ((6, 21), (6, 21), 1.0),
      ((8, 18), (8, 19), 1.0), ((7, 17), (8, 17), 1.0), ((6, 18), (6, 18), 1.0),
      ((6, 13), (7, 16), 0.5), ((7, 11), (7, 12), 1.0), ((8, 9), (8, 10), 1.0),
      ((6, 0), (8, 7), 0.5416666666666666), ((0, 22), (5, 34), 0.5384615384615384),
      ((0, 5), (5, 20), 0.5104166666666666), ((5, 3), (5, 3), 1.0), ((3, 0), (3, 0), 1.0),
      ((0, 0), (1, 3), 0.875)]),
    ((35,), 0.87, 28, 0.7, None,
     [((32,), (34,), 1.0), ((15,), (27,), 1.0), ((8,), (13,), 1.0), ((2,), (5,), 1.0),
      ((0,), (0,), 1.0)]),
    ((36, 4), 0.25, 29, 1.0, None,
     [((31, 3), (32, 3), 1.0), ((30, 2), (30, 3), 1.0), ((29, 3), (29, 3), 1.0),
      ((28, 3), (28, 3), 1.0), ((29, 1), (29, 1), 1.0), ((28, 0), (28, 0), 1.0),
      ((25, 2), (25, 3), 1.0), ((24, 2), (24, 2), 1.0), ((24, 0), (24, 1), 1.0),
      ((23, 0), (23, 0), 1.0), ((17, 2), (17, 3), 1.0), ((16, 3), (16, 3), 1.0),
      ((15, 2), (15, 2), 1.0), ((18, 0), (18, 1), 1.0), ((15, 1), (16, 1), 1.0),
      ((13, 1), (13, 1), 1.0), ((12, 1), (12, 2), 1.0), ((12, 0), (12, 0), 1.0),
      ((9, 2), (10, 2), 1.0), ((9, 0), (10, 0), 1.0), ((8, 1), (8, 1), 1.0),
      ((7, 0), (7, 0), 1.0), ((4, 2), (4, 2), 1.0), ((3, 3), (3, 3), 1.0),
      ((1, 0), (2, 1), 1.0), ((0, 0), (0, 0), 1.0)]),
    ((19,), 0.9, 30, 0.5, 16,
     [((13,), (18,), 1.0), ((9,), (11,), 1.0), ((0,), (8,), 1.0)]),
    ((5, 63), 0.48, 31, 0.7, 16,
     [((4, 60), (4, 61), 1.0), ((3, 61), (3, 61), 1.0), ((2, 61), (2, 61), 1.0),
      ((3, 58), (4, 59), 1.0), ((4, 57), (4, 57), 1.0), ((2, 57), (2, 57), 1.0),
      ((1, 59), (1, 61), 1.0), ((1, 58), (1, 58), 1.0), ((0, 57), (0, 57), 1.0),
      ((2, 55), (2, 56), 1.0), ((1, 55), (1, 55), 1.0), ((0, 55), (0, 55), 1.0),
      ((4, 53), (4, 53), 1.0), ((3, 53), (3, 54), 1.0), ((3, 52), (3, 52), 1.0),
      ((2, 51), (2, 51), 1.0), ((4, 50), (4, 50), 1.0), ((2, 49), (2, 50), 1.0),
      ((0, 52), (0, 53), 1.0), ((1, 51), (1, 51), 1.0), ((1, 49), (1, 49), 1.0),
      ((0, 49), (0, 50), 1.0), ((4, 48), (4, 48), 1.0), ((3, 47), (3, 47), 1.0),
      ((2, 48), (2, 48), 1.0), ((1, 47), (1, 48), 1.0), ((0, 48), (0, 48), 1.0),
      ((4, 45), (4, 45), 1.0), ((3, 43), (3, 43), 1.0), ((2, 44), (2, 44), 1.0),
      ((4, 42), (4, 42), 1.0), ((3, 41), (3, 42), 1.0), ((2, 42), (2, 42), 1.0),
      ((4, 39), (4, 40), 1.0), ((3, 40), (3, 40), 1.0), ((3, 38), (3, 38), 1.0),
      ((2, 40), (2, 40), 1.0), ((4, 37), (4, 37), 1.0), ((3, 36), (3, 36), 1.0),
      ((2, 36), (2, 36), 1.0), ((4, 34), (4, 35), 1.0), ((3, 34), (3, 34), 1.0),
      ((4, 33), (4, 33), 1.0), ((2, 33), (2, 33), 1.0),
      ((2, 30), (4, 31), 0.8333333333333334), ((4, 28), (4, 29), 1.0),
      ((3, 28), (3, 28), 1.0), ((4, 27), (4, 27), 1.0), ((1, 44), (1, 45), 1.0),
      ((0, 45), (0, 45), 1.0), ((0, 42), (0, 43), 1.0), ((0, 40), (1, 41), 1.0),
      ((1, 37), (1, 39), 1.0), ((1, 35), (1, 35), 1.0), ((0, 34), (0, 34), 1.0),
      ((1, 33), (1, 33), 1.0), ((0, 32), (0, 33), 1.0), ((1, 28), (1, 29), 1.0),
      ((0, 27), (1, 27), 1.0), ((4, 25), (4, 25), 1.0), ((4, 22), (4, 22), 1.0),
      ((2, 23), (2, 24), 1.0), ((1, 24), (1, 24), 1.0),
      ((2, 19), (4, 21), 0.7777777777777778), ((3, 17), (3, 17), 1.0),
      ((4, 15), (4, 15), 1.0), ((3, 14), (3, 14), 1.0), ((4, 13), (4, 13), 1.0),
      ((2, 12), (2, 13), 1.0), ((4, 10), (4, 10), 1.0), ((3, 9), (3, 10), 1.0),
      ((2, 8), (2, 8), 1.0), ((4, 6), (4, 6), 1.0), ((3, 7), (3, 7), 1.0),
      ((4, 5), (4, 5), 1.0), ((2, 5), (2, 5), 1.0), ((4, 3), (4, 3), 1.0),
      ((3, 2), (3, 2), 1.0), ((2, 2), (2, 2), 1.0), ((4, 0), (4, 1), 1.0),
      ((1, 21), (1, 21), 1.0), ((0, 16), (1, 18), 0.8333333333333334),
      ((0, 14), (0, 15), 1.0), ((1, 12), (1, 13), 1.0), ((0, 13), (0, 13), 1.0),
      ((1, 11), (1, 11), 1.0), ((0, 6), (1, 9), 0.75), ((1, 4), (1, 4), 1.0),
      ((0, 5), (0, 5), 1.0), ((0, 3), (0, 3), 1.0), ((0, 1), (1, 1), 1.0)]),
    ((8,), 0.72, 32, 1.0, 16,
     [((7,), (7,), 1.0), ((0,), (4,), 1.0)]),
    ((52, 6), 0.12, 33, 0.5, 30,
     [((51, 2), (51, 2), 1.0), ((48, 5), (48, 5), 1.0), ((47, 2), (47, 2), 1.0),
      ((44, 5), (44, 5), 1.0), ((42, 3), (42, 3), 1.0), ((42, 0), (42, 0), 1.0),
      ((41, 1), (41, 1), 1.0), ((39, 2), (40, 2), 1.0), ((40, 0), (40, 0), 1.0),
      ((37, 5), (37, 5), 1.0), ((35, 4), (35, 4), 1.0), ((35, 2), (35, 2), 1.0),
      ((35, 0), (35, 0), 1.0), ((33, 0), (33, 0), 1.0), ((30, 4), (30, 4), 1.0),
      ((29, 3), (29, 3), 1.0), ((25, 3), (25, 3), 1.0), ((24, 4), (24, 4), 1.0),
      ((22, 4), (22, 4), 1.0), ((21, 1), (21, 1), 1.0), ((19, 3), (19, 3), 1.0),
      ((16, 5), (16, 5), 1.0), ((15, 2), (15, 2), 1.0), ((16, 0), (16, 0), 1.0),
      ((12, 5), (12, 5), 1.0), ((12, 2), (12, 2), 1.0), ((12, 0), (12, 0), 1.0),
      ((8, 0), (8, 1), 1.0), ((1, 5), (2, 5), 1.0), ((3, 3), (3, 3), 1.0),
      ((2, 2), (2, 2), 1.0), ((2, 0), (2, 0), 1.0)]),
    ((61,), 0.86, 34, 0.7, 30,
     [((60,), (60,), 1.0), ((51,), (58,), 1.0), ((45,), (49,), 1.0),
      ((30,), (44,), 0.8666666666666667), ((0,), (29,), 0.7)]),
    ((3, 44), 0.45, 35, 1.0, 30,
     [((2, 42), (2, 42), 1.0), ((1, 42), (1, 43), 1.0), ((0, 42), (0, 42), 1.0),
      ((1, 41), (1, 41), 1.0), ((0, 40), (0, 40), 1.0), ((0, 39), (0, 39), 1.0),
      ((2, 37), (2, 38), 1.0), ((0, 38), (0, 38), 1.0), ((1, 34), (2, 35), 1.0),
      ((0, 34), (0, 34), 1.0), ((2, 32), (2, 32), 1.0), ((1, 32), (1, 33), 1.0),
      ((1, 31), (2, 31), 1.0), ((0, 33), (0, 33), 1.0), ((0, 31), (0, 31), 1.0),
      ((2, 30), (2, 30), 1.0), ((1, 29), (1, 29), 1.0), ((2, 28), (2, 28), 1.0),
      ((0, 28), (0, 29), 1.0), ((2, 26), (2, 26), 1.0), ((1, 26), (1, 27), 1.0),
      ((1, 24), (2, 24), 1.0), ((0, 25), (0, 25), 1.0), ((0, 22), (2, 23), 1.0),
      ((2, 20), (2, 21), 1.0), ((0, 21), (0, 21), 1.0), ((1, 18), (2, 18), 1.0),
      ((0, 19), (0, 19), 1.0), ((0, 15), (0, 16), 1.0), ((0, 14), (1, 14), 1.0),
      ((1, 12), (1, 12), 1.0), ((0, 13), (0, 13), 1.0), ((0, 11), (1, 11), 1.0),
      ((2, 8), (2, 8), 1.0), ((1, 9), (1, 9), 1.0), ((1, 7), (1, 7), 1.0),
      ((2, 6), (2, 6), 1.0), ((1, 5), (1, 6), 1.0), ((2, 4), (2, 4), 1.0),
      ((0, 4), (0, 5), 1.0), ((2, 2), (2, 3), 1.0), ((1, 1), (2, 1), 1.0),
      ((0, 0), (0, 0), 1.0)]),
    ((62,), 0.6, 36, 0.5, None,
     [((32,), (61,), 0.7333333333333333), ((22,), (30,), 1.0), ((14,), (18,), 1.0),
      ((0,), (11,), 0.75)]),
    ((44, 7), 0.31, 37, 0.7, None,
     [((43, 6), (43, 6), 1.0), ((42, 5), (42, 6), 1.0), ((43, 4), (43, 4), 1.0),
      ((42, 1), (43, 1), 1.0), ((40, 5), (40, 6), 1.0), ((39, 5), (39, 5), 1.0),
      ((38, 5), (38, 5), 1.0), ((40, 1), (40, 2), 1.0), ((41, 0), (41, 0), 1.0),
      ((39, 2), (39, 4), 1.0), ((39, 0), (39, 1), 1.0), ((38, 0), (38, 0), 1.0),
      ((35, 6), (35, 6), 1.0), ((34, 5), (34, 5), 1.0), ((36, 4), (36, 4), 1.0),
      ((34, 3), (34, 3), 1.0), ((36, 2), (36, 2), 1.0), ((35, 1), (35, 1), 1.0),
      ((36, 0), (36, 0), 1.0), ((34, 2), (34, 2), 1.0), ((32, 6), (32, 6), 1.0),
      ((30, 4), (30, 5), 1.0), ((29, 5), (29, 5), 1.0), ((28, 5), (28, 5), 1.0),
      ((26, 6), (26, 6), 1.0), ((24, 4), (24, 6), 1.0), ((22, 6), (22, 6), 1.0),
      ((22, 4), (22, 4), 1.0), ((20, 6), (20, 6), 1.0), ((19, 5), (19, 5), 1.0),
      ((20, 4), (20, 4), 1.0), ((16, 6), (16, 6), 1.0), ((16, 4), (16, 4), 1.0),
      ((32, 2), (32, 2), 1.0), ((31, 3), (31, 3), 1.0), ((30, 0), (31, 0), 1.0),
      ((27, 3), (27, 3), 1.0), ((26, 2), (26, 2), 1.0), ((28, 0), (28, 0), 1.0),
      ((27, 0), (27, 1), 1.0), ((25, 2), (25, 3), 1.0), ((23, 2), (23, 2), 1.0),
      ((25, 1), (25, 1), 1.0), ((24, 0), (24, 0), 1.0), ((23, 0), (23, 0), 1.0),
      ((18, 3), (19, 3), 1.0), ((16, 2), (17, 3), 1.0), ((15, 2), (15, 2), 1.0),
      ((14, 3), (14, 3), 1.0), ((13, 2), (13, 3), 1.0), ((12, 3), (12, 3), 1.0),
      ((11, 3), (11, 3), 1.0), ((20, 0), (21, 0), 1.0), ((17, 0), (18, 1), 1.0),
      ((15, 0), (15, 0), 1.0), ((14, 1), (14, 1), 1.0), ((11, 1), (12, 1), 1.0),
      ((10, 5), (10, 5), 1.0), ((9, 4), (9, 5), 1.0), ((10, 3), (10, 3), 1.0),
      ((8, 5), (8, 5), 1.0), ((7, 6), (7, 6), 1.0), ((7, 3), (7, 4), 1.0),
      ((4, 5), (4, 6), 1.0), ((5, 4), (5, 4), 1.0), ((3, 6), (3, 6), 1.0),
      ((3, 4), (3, 4), 1.0), ((2, 5), (2, 5), 1.0), ((1, 5), (1, 6), 1.0),
      ((2, 4), (2, 4), 1.0), ((10, 0), (10, 2), 1.0), ((8, 1), (8, 1), 1.0),
      ((7, 2), (7, 2), 1.0), ((6, 1), (6, 2), 1.0), ((4, 1), (4, 1), 1.0),
      ((1, 1), (2, 2), 1.0), ((1, 0), (1, 0), 1.0), ((0, 2), (0, 2), 1.0)]),
    ((28,), 0.88, 38, 1.0, None,
     [((5,), (27,), 1.0), ((0,), (3,), 1.0)]),
    ((6, 51), 0.14, 39, 0.5, 16,
     [((4, 50), (4, 50), 1.0), ((3, 47), (3, 47), 1.0), ((0, 46), (0, 47), 1.0),
      ((0, 43), (0, 43), 1.0), ((2, 38), (2, 38), 1.0), ((1, 39), (1, 39), 1.0),
      ((0, 34), (4, 36), 0.5333333333333333), ((3, 32), (4, 32), 1.0),
      ((5, 30), (5, 30), 1.0), ((5, 28), (5, 28), 1.0), ((2, 30), (2, 30), 1.0),
      ((3, 28), (3, 28), 1.0), ((1, 29), (1, 29), 1.0), ((2, 26), (2, 26), 1.0),
      ((2, 18), (2, 18), 1.0), ((0, 19), (0, 19), 1.0), ((5, 15), (5, 15), 1.0),
      ((3, 15), (3, 16), 1.0), ((5, 11), (5, 11), 1.0), ((3, 11), (3, 12), 1.0),
      ((1, 11), (1, 11), 1.0), ((3, 8), (3, 9), 1.0), ((2, 9), (2, 9), 1.0),
      ((2, 7), (2, 7), 1.0), ((1, 8), (1, 8), 1.0), ((3, 4), (5, 5), 0.5),
      ((4, 2), (4, 2), 1.0), ((2, 2), (2, 2), 1.0), ((0, 2), (0, 2), 1.0)]),
]
SPLIT_TIES = {
    "holes_on_both_axes":
        [((4, 6), (8, 8), 1.0), ((4, 0), (8, 4), 1.0), ((0, 6), (2, 8), 1.0),
         ((0, 0), (2, 4), 1.0)],
    "holes_on_one_axis":
        [((5, 0), (6, 2), 1.0), ((3, 0), (3, 2), 1.0), ((0, 1), (0, 2), 1.0),
         ((0, 0), (1, 0), 1.0)],
    "plus_inflections":
        [((5, 3), (7, 4), 1.0), ((3, 0), (4, 7), 1.0), ((0, 3), (2, 4), 1.0)],
    "l_shape":
        [((4, 0), (7, 3), 1.0), ((0, 0), (3, 7), 1.0)],
}


def tie_masks():
    """Masks whose first split is a tie: a hole as far from the centre on
    both axes, two holes as far from it on one axis, Laplacian inflections
    of equal strength and distance on both axes (the plus), and the L-shape
    that takes a speculative split."""
    holes = np.ones((9, 9), dtype=bool)
    holes[3] = False
    holes[:, 5] = False
    rows = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1],
                     [1, 1, 1]], dtype=bool)
    plus = np.zeros((8, 8), dtype=bool)
    plus[3:5] = True
    plus[:, 3:5] = True
    ell = np.zeros((8, 8), dtype=bool)
    ell[:4] = True
    ell[:, :4] = True
    return {"holes_on_both_axes": (holes, 0.5), "holes_on_one_axis": (rows, 0.5),
            "plus_inflections": (plus, 0.5), "l_shape": (ell, 0.7)}


def boxes_of(boxes):
    return [(b.lo, b.hi, b.efficiency) for b in boxes]


def test_cluster_reproduces_the_split_table():
    for shape, density, seed, threshold, max_edge, want in SPLIT_TABLE:
        mask = np.random.default_rng(seed).random(shape) < density
        assert boxes_of(cluster(mask, threshold, max_edge)) == want, (shape, seed)


@pytest.mark.parametrize("name", sorted(SPLIT_TIES))
def test_cluster_breaks_ties_as_the_split_table(name):
    mask, threshold = tie_masks()[name]
    assert boxes_of(cluster(mask, threshold)) == SPLIT_TIES[name]


# ---------------------------------------------------------------------------
# restriction


def make_two_level(eq, nx=8, ratio=2, ctx=None):
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                       base_shape=(nx, nx), ratios=[ratio])
    ctx = ctx or basic_ctx(eq)
    coarse = make_patch(h, 1, (0, 0), (nx - 1, nx - 1), ctx, 0.0)
    h.levels = [[coarse]]
    fine = make_patch(h, 2, (0, 0), (2 * nx - 1, 2 * nx - 1), ctx, 0.0)
    h.levels.append([fine])
    return h, coarse, fine


def test_restrict_constant_and_checkerboard():
    eq = const_ac2d()
    h, coarse, fine = make_two_level(eq)
    fine.interior()[0] = 7.5
    restrict_fine_to_coarse(h, 1)
    assert np.allclose(coarse.interior()[0], 7.5)

    ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    fine.interior()[0] = np.where((ii + jj) % 2 == 0, 1.0, -1.0)
    restrict_fine_to_coarse(h, 1)
    assert np.allclose(coarse.interior()[0], 0.0)


def test_restrict_exact_for_linear_fields():
    eq = const_ac2d()
    h, coarse, fine = make_two_level(eq)
    xs, ys = fine.spec.cell_centers()
    fine.interior()[0] = 3.0 * xs[:, None] - 2.0 * ys[None, :] + 1.0
    restrict_fine_to_coarse(h, 1)
    cxs, cys = coarse.spec.cell_centers()
    want = 3.0 * cxs[:, None] - 2.0 * cys[None, :] + 1.0
    assert np.allclose(coarse.interior()[0], want, atol=1e-13)


def test_restrict_1d_takes_the_mean_of_each_coarse_cells_children():
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(x), lambda x: np.ones_like(x)))
    ctx = basic_ctx(eq)
    rng = np.random.default_rng(7)
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=None, base_shape=(8,), ratios=[2])
    h.levels = [new_level(h, 1, [((0,), (4,)), ((5,), (7,))], ctx, 0.0),
                new_level(h, 2, [((2,), (7,)), ((10,), (13,))], ctx, 0.0)]
    for p in h.patches(1) + h.patches(2):
        p.state[...] = rng.normal(size=p.state.shape)
    coarse = np.concatenate([p.interior() for p in h.patches(1)], axis=1)
    fine = np.zeros((eq.m, 16))
    covered = np.zeros(8, dtype=bool)
    for p in h.patches(2):
        fine[:, p.spec.lo[0]:p.spec.hi[0] + 1] = p.interior()
        covered[p.spec.lo[0] // 2:p.spec.hi[0] // 2 + 1] = True
    want = coarse.copy()
    for i in np.nonzero(covered)[0]:
        want[:, i] = (fine[:, 2 * i] + fine[:, 2 * i + 1]) / 2.0
    restrict_fine_to_coarse(h, 1)
    got = np.concatenate([p.interior() for p in h.patches(1)], axis=1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ratio", [2, 4])
def test_restrict_does_not_depend_on_coarse_cuts(ratio):
    # the same fine data restricted onto 8x8 coarse cells held by one patch,
    # then by two cut at y = 7 (a strip one coarse cell wide), must give
    # bitwise-equal coarse cells
    eq = const_ac2d()
    ctx = basic_ctx(eq)
    data = np.random.default_rng(11).normal(size=(eq.m, 8 * ratio, 8 * ratio))
    got = []
    for cuts in ([((0, 0), (7, 7))], [((0, 0), (7, 6)), ((0, 7), (7, 7))]):
        h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                           base_shape=(8, 8), ratios=[ratio])
        fine = make_patch(h, 2, (0, 0), (8 * ratio - 1, 8 * ratio - 1), ctx, 0.0)
        fine.interior()[...] = data
        h.levels = [new_level(h, 1, cuts, ctx, 0.0), [fine]]
        restrict_fine_to_coarse(h, 1)
        coarse = np.zeros((eq.m, 8, 8))
        for p in h.patches(1):
            coarse[:, p.spec.lo[0]:p.spec.hi[0] + 1, p.spec.lo[1]:p.spec.hi[1] + 1] = p.interior()
        got.append(coarse)
    assert np.array_equal(got[0], got[1])


def test_restrict_swe_averages_wet_children_into_wet_coarse_cells():
    # coarse cells of width 1: x in [2, 3) is wet with one dry child column
    # (y > 4 only), x in [4, 5) is dry with wet children, x in [6, 7) is dry
    # with dry children, x in [7, 8) is wet with only dry children
    def bathy(x, y):
        land = (((x > 2.6) & (x < 3.0) & (y > 4.0)) | (np.abs(x - 4.5) < 0.1)
                | ((x > 6.0) & (x < 7.0)) | (np.abs(x - 7.25) < 0.1)
                | (np.abs(x - 7.75) < 0.1))
        return np.where(land, 1.0, -1.0)
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy, sea_level=0.0, gravity=9.81))
    ctx = basic_ctx(eq)
    rng = np.random.default_rng(8)
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                       base_shape=(8, 8), ratios=[2])
    h.levels = [new_level(h, 1, [((0, 0), (3, 7)), ((4, 0), (7, 7))], ctx, 0.0),
                new_level(h, 2, [((2, 2), (11, 15)), ((12, 0), (15, 9))], ctx, 0.0)]
    for p in h.patches(1) + h.patches(2):
        p.state[...] = rng.normal(size=p.state.shape)

    def gather(level, n, key):
        out = np.zeros((eq.m, n, n)) if key == "state" else np.zeros((n, n), bool)
        cov = np.zeros((n, n), dtype=bool)
        for p in h.patches(level):
            sl = (slice(p.spec.lo[0], p.spec.hi[0] + 1),
                  slice(p.spec.lo[1], p.spec.hi[1] + 1))
            if key == "state":
                out[(slice(None), *sl)] = p.interior()
            else:
                out[sl] = eqs.wet(p.aux)[p.spec.interior_slices()]
            cov[sl] = True
        return out, cov

    coarse, _ = gather(1, 8, "state")
    wet_c, _ = gather(1, 8, "wet")
    fine, covered_f = gather(2, 16, "state")
    wet_f, _ = gather(2, 16, "wet")
    assert wet_c[2, 6] and not wet_f[5, 12] and wet_f[4, 12]
    assert not wet_c[4, 3] and wet_f[8:10, 6:8].all()
    assert wet_c[7, 1] and not wet_f[14:16, 2:4].any()
    want = coarse.copy()
    take = np.zeros((8, 8), dtype=bool)
    for i in range(8):
        for j in range(8):
            kids = (slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2))
            w = wet_f[kids]
            take[i, j] = covered_f[kids].all() and wet_c[i, j] and w.any()
            if take[i, j]:
                want[:, i, j] = fine[(slice(None), *kids)][:, w].sum(axis=1) / w.sum()
    assert take[2, 6] and not take[4, 3] and not take[7, 1] and not take[0, 0]
    restrict_fine_to_coarse(h, 1)
    got, _ = gather(1, 8, "state")
    assert np.allclose(got[:, take], want[:, take], rtol=1e-14, atol=1e-15)
    assert np.array_equal(got[:, ~take], coarse[:, ~take])


# ---------------------------------------------------------------------------
# regrid


def test_regrid_no_flags_removes_level():
    eq = const_ac2d()
    ctx = basic_ctx(eq, strategy=DifferenceFlagging(0.1))
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                       base_shape=(8, 8), ratios=[2])
    base = make_patch(h, 1, (0, 0), (7, 7), ctx, 0.0)
    h.levels = [[base]]                      # constant zero state -> no flags
    regrid(h, 2, ctx)
    assert h.patches(2) == []


def test_regrid_everywhere_tiles_domain_and_nests():
    eq = const_ac2d()
    ctx = basic_ctx(eq, max_patch_edge=8)
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                       base_shape=(8, 8), ratios=[2])
    base = make_patch(h, 1, (0, 0), (7, 7), ctx, 0.0)
    h.levels = [[base]]
    regrid(h, 2, ctx)
    cover = np.zeros((16, 16), dtype=int)
    for p in h.patches(2):
        sl = tuple(slice(l, hh + 1) for l, hh in zip(p.spec.lo, p.spec.hi))
        cover[sl] += 1
    assert np.all(cover == 1)
    assert enforce_nesting(h) == []


def test_regrid_identical_flags_copies_old_state():
    eq = const_ac2d()
    ctx = basic_ctx(eq)
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                       base_shape=(8, 8), ratios=[2])
    base = make_patch(h, 1, (0, 0), (7, 7), ctx, 0.0)
    h.levels = [[base]]
    regrid(h, 2, ctx)
    rng = np.random.default_rng(0)
    for p in h.patches(2):
        p.interior()[...] = rng.normal(size=p.interior().shape)
    before = {p.spec.lo: p.interior().copy() for p in h.patches(2)}
    regrid(h, 2, ctx)       # same flags -> new patches copy the old data
    after = {p.spec.lo: p.interior().copy() for p in h.patches(2)}
    assert before.keys() == after.keys()
    for k in before:
        assert np.array_equal(before[k], after[k])


def test_regrid_always_properly_nested_random_states():
    eq = const_ac2d()
    ctx = basic_ctx(eq, strategy=DifferenceFlagging(0.3))
    rng = np.random.default_rng(9)
    for trial in range(5):
        h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                           base_shape=(16, 16), ratios=[2, 2])
        base = make_patch(h, 1, (0, 0), (15, 15), ctx, 0.0)
        base.state[...] = rng.normal(size=base.state.shape)
        h.levels = [[base]]
        regrid(h, 2, ctx)
        for p in h.patches(2):
            p.state[...] = rng.normal(size=p.state.shape)
        regrid(h, 3, ctx)
        assert enforce_nesting(h) == [], f"trial {trial}"


def test_coarse_ghost_fill_never_uses_a_stale_plan():
    # level 3 keeps its patch while level 2 is replaced under it; the next
    # fill must read the new level-2 patches exactly as a fresh patch would
    eq = const_ac2d()
    ctx = basic_ctx(eq)
    rng = np.random.default_rng(4)
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                       base_shape=(8, 8), ratios=[2, 2])
    h.levels = [[make_patch(h, 1, (0, 0), (7, 7), ctx, 0.0)],
                [make_patch(h, 2, (4, 4), (11, 11), ctx, 0.0)]]

    def fill_level_2(patches, t_old, t_new):
        lay = patches[0].layout
        lay.state[...] = rng.normal(size=lay.state.shape)
        lay.time = t_old
        lay.save_old()
        lay.state[...] = rng.normal(size=lay.state.shape)
        lay.time = t_new
        h.levels[1] = patches

    fill_level_2(h.patches(2), 0.0, 0.5)
    fine = make_patch(h, 3, (12, 12), (19, 19), ctx, 0.25)
    h.levels.append([fine])
    fill_ghost_from_coarse(fine, h, 0.25)

    replacements = (
        new_level(h, 2, [((4, 4), (11, 11))], ctx, 0.0),               # same box
        new_level(h, 2, [((4, 4), (7, 11)), ((8, 4), (11, 11))], ctx, 0.0),    # split box
    )
    for patches in replacements:
        fill_level_2(patches, 0.5, 1.0)
        fresh = make_patch(h, 3, (12, 12), (19, 19), ctx, 0.75)
        fresh.state[...] = fine.state
        fill_ghost_from_coarse(fine, h, 0.75)
        fill_ghost_from_coarse(fresh, h, 0.75)
        assert np.array_equal(fine.state, fresh.state)


def test_no_level_rebuilt_twice_at_one_parent_time(monkeypatch):
    from adjamr import amr, driver
    from adjamr.config import parse_config
    text = open("configs/2d-walls-timepoint.cfg").read()
    cfg = parse_config(text.replace("t_final = 1.5", "t_final = 0.5")
                       .replace("t_start = 1.5", "t_start = 0.5"))
    rebuilds = []

    def recording_regrid(h, level, ctx, deepest=None):
        t = h.patches(level - 1)[0].time
        last = deepest if deepest is not None else h.max_levels
        rebuilds.extend((lev, t) for lev in range(level, last + 1))
        return regrid(h, level, ctx, deepest)

    monkeypatch.setattr(amr, "regrid", recording_regrid)
    monkeypatch.setattr(driver, "regrid", recording_regrid)
    driver.run_forward(cfg, strategy_name="difference")
    assert sum(1 for lev, _ in rebuilds if lev == 3) >= 5
    assert len(rebuilds) == len(set(rebuilds))


def test_rebuilds_every_other_step_at_regrid_interval_2(monkeypatch):
    # the (level, parent time) of every rebuild and the cell steps, recorded
    # when a level remembered the parent time of its last rebuild instead of
    # restarting its step count: level 1 rebuilds 2 and 3 every other step,
    # and level 2 rebuilds 3 on its own steps in between
    from adjamr import amr, driver
    from adjamr.config import parse_config
    text = open("configs/2d-walls-timepoint.cfg").read()
    cfg = parse_config(text.replace("t_final = 1.5", "t_final = 0.5")
                       .replace("t_start = 1.5", "t_start = 0.5")
                       .replace("[amr]\n", "[amr]\nregrid_interval = 2\n"))
    rebuilds = []

    def recording_regrid(h, level, ctx, deepest=None):
        t = h.patches(level - 1)[0].time
        last = deepest if deepest is not None else h.max_levels
        rebuilds.extend((lev, t.hex()) for lev in range(level, last + 1))
        return regrid(h, level, ctx, deepest)

    monkeypatch.setattr(amr, "regrid", recording_regrid)
    monkeypatch.setattr(driver, "regrid", recording_regrid)
    res = driver.run_forward(cfg, strategy_name="difference")
    assert rebuilds == [
        (2, "0x0.0p+0"), (3, "0x0.0p+0"), (3, "0x1.5555555555555p-4"),
        (2, "0x1.5555555555555p-3"), (3, "0x1.5555555555555p-3"),
        (3, "0x1.0000000000000p-2"),
        (2, "0x1.5555555555555p-2"), (3, "0x1.5555555555555p-2"),
        (3, "0x1.aaaaaaaaaaaaap-2")]
    assert res.timing.cell_steps == {1: 15000, 2: 12800, 3: 67136}


# fill_level_ghosts calls per level on 2d-walls-timepoint under difference
# flagging: when advance_hierarchy filled a level's ghosts again after the
# regrid of its children had filled them at the same time, and now
FILLS_BEFORE = {1: 54, 2: 108, 3: 72}
FILLS = {1: 37, 2: 90, 3: 72}


def test_a_regrid_saves_its_levels_second_ghost_fill(monkeypatch):
    from collections import Counter
    from adjamr import amr, driver
    from adjamr.config import parse_config
    cfg = parse_config(open("configs/2d-walls-timepoint.cfg").read())
    fills, regrids = Counter(), Counter()
    fill = amr.fill_level_ghosts

    def counting_fill(h, level, t, ctx):
        fills[level] += 1
        return fill(h, level, t, ctx)

    def counting_regrid(h, level, ctx, deepest=None):
        regrids[level - 1] += 1         # the level whose ghosts it fills first
        return regrid(h, level, ctx, deepest)

    monkeypatch.setattr(amr, "fill_level_ghosts", counting_fill)
    monkeypatch.setattr(amr, "regrid", counting_regrid)     # advance_hierarchy's calls only
    res = driver.run_forward(cfg, strategy_name="difference")
    assert res.timing.cell_steps == {1: 45000, 2: 82592, 3: 495992}
    assert fills == FILLS
    assert regrids == {1: 17, 2: 18}
    assert all(FILLS_BEFORE[lev] - fills[lev] == regrids[lev] for lev in FILLS)


# ---------------------------------------------------------------------------
# advance: equivalence and subcycling


def test_advance_two_levels_subcycles():
    eq = const_ac2d(K=4.0)
    ctx = basic_ctx(eq)
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0),
                       base_shape=(8, 8), ratios=[2])
    base = make_patch(h, 1, (0, 0), (7, 7), ctx, 0.0)
    h.levels = [[base]]
    regrid(h, 2, ctx)
    dt = 0.9 * 0.25 / 2.0
    advance_hierarchy(h, 1, dt, ctx)
    assert ctx.step_counts[1] == 1
    assert ctx.step_counts[2] == 2          # exactly ratio fine steps
    assert h.patches(2)[0].time == pytest.approx(dt)


def test_courant_violation_names_level_box_and_time():
    from adjamr.solver import CflViolationError
    eq = const_ac2d()                       # c = 1 on cells of width 1
    h, coarse, fine = make_two_level(eq)
    with pytest.raises(CflViolationError,
                       match=r"level=1, lo=\(0, 0\), hi=\(7, 7\), t=0\b"):
        advance_hierarchy(h, 1, 1.5, basic_ctx(eq))


def run_amr_everywhere(eq, ic, nx, nsteps, dt, max_edge=24):
    ctx = basic_ctx(eq, max_patch_edge=max_edge)
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0),
                       base_shape=(nx, nx), ratios=[2])
    base = make_patch(h, 1, (0, 0), (nx - 1, nx - 1), ctx, 0.0)
    h.levels = [[base]]
    xs, ys = base.spec.cell_centers()
    base.interior()[...] = ic(xs[:, None], ys[None, :])
    regrid(h, 2, ctx)
    for p in h.patches(2):
        xs, ys = p.spec.cell_centers()
        p.interior()[...] = ic(xs[:, None], ys[None, :])
    for _ in range(nsteps):
        advance_hierarchy(h, 1, dt, ctx)
    return h


def test_amr_equivalence_acoustics_2d():
    eq = const_ac2d(K=4.0)

    def ic(X, Y):
        out = np.zeros((3, *np.broadcast_shapes(X.shape, Y.shape)))
        out[0] = np.exp(-8.0 * ((X - 1.0) ** 2 + (Y - 1.0) ** 2))
        return out

    nx, dt, nsteps = 24, 0.9 * (2.0 / 24) / 2.0, 5
    h = run_amr_everywhere(eq, ic, nx, nsteps, dt)

    hu = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0),
                        base_shape=(2 * nx, 2 * nx), ratios=[])
    up = Patch(hu.make_spec(1, (0, 0), (2 * nx - 1, 2 * nx - 1)), 3)
    sample_patch_material(up, eq, BoundarySpec(), (2 * nx, 2 * nx))
    xs, ys = up.spec.cell_centers()
    up.interior()[...] = ic(xs[:, None], ys[None, :])
    for _ in range(2 * nsteps):
        fill_ghost_physical(up, BoundarySpec(), eq, (2 * nx, 2 * nx))
        step_patch(up, dt / 2.0, eq, "MC")

    worst = 0.0
    for p in h.patches(2):
        sl = tuple(slice(l, hh + 1) for l, hh in zip(p.spec.lo, p.spec.hi))
        worst = max(worst, float(np.max(np.abs(
            p.interior() - up.interior()[(slice(None), *sl)]))))
    assert worst <= 1e-12


def test_amr_equivalence_swe():
    def bathy(x, y):
        return np.full_like(np.asarray(x, float), -50.0)
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy))

    def ic(X, Y):
        out = np.zeros((3, *np.broadcast_shapes(X.shape, Y.shape)))
        out[0] = np.exp(-30.0 * ((X - 1.0) ** 2 + (Y - 1.0) ** 2))
        return out

    c = np.sqrt(9.81 * 50.0)
    nx = 16
    dt = 0.9 * (2.0 / nx) / c
    h = run_amr_everywhere(eq, ic, nx, 4, dt)

    hu = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0),
                        base_shape=(2 * nx, 2 * nx), ratios=[])
    up = Patch(hu.make_spec(1, (0, 0), (2 * nx - 1, 2 * nx - 1)), 3)
    sample_patch_material(up, eq, BoundarySpec(), (2 * nx, 2 * nx))
    xs, ys = up.spec.cell_centers()
    up.interior()[...] = ic(xs[:, None], ys[None, :])
    for _ in range(8):
        fill_ghost_physical(up, BoundarySpec(), eq, (2 * nx, 2 * nx))
        step_patch(up, dt / 2.0, eq, "MC")
    worst = 0.0
    for p in h.patches(2):
        sl = tuple(slice(l, hh + 1) for l, hh in zip(p.spec.lo, p.spec.hi))
        worst = max(worst, float(np.max(np.abs(
            p.interior() - up.interior()[(slice(None), *sl)]))))
    assert worst <= 1e-12


def test_partial_refinement_tracks_1d_pulse():
    # difference flagging follows a travelling pulse with a genuinely partial
    # level 2, exercising coarse-to-fine ghost interpolation in 1D
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(x), lambda x: np.ones_like(x)))
    ctx = basic_ctx(eq, strategy=DifferenceFlagging(0.02))
    nx = 100
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=None, base_shape=(nx,), ratios=[2])
    base = make_patch(h, 1, (0,), (nx - 1,), ctx, 0.0)
    h.levels = [[base]]

    def ic(x):
        out = np.zeros((2, *np.shape(x)))
        out[0] = np.exp(-200.0 * (np.asarray(x) - 0.5) ** 2)
        out[1] = out[0]                      # right-going
        return out

    xs, = base.spec.cell_centers()
    base.interior()[...] = ic(xs)
    regrid(h, 2, ctx)
    for p in h.patches(2):
        fx, = p.spec.cell_centers()
        p.interior()[...] = ic(fx)
    assert h.patches(2), "pulse must be refined initially"
    total = 2 * nx
    covered0 = sum(p.spec.shape[0] for p in h.patches(2))
    assert covered0 < total, "refinement must be partial"

    dt = 0.9 * (2.0 / nx)
    t_end = 0.8
    while h.patches(1)[0].time < t_end - 1e-12:
        advance_hierarchy(h, 1, dt, ctx)
        assert enforce_nesting(h) == []
    t = h.patches(1)[0].time

    # the coarse grid (with fine data restricted onto it) should carry the
    # pulse at x = 0.5 + t with only mild amplitude loss
    q = h.patches(1)[0].interior()[0]
    peak_x = xs[np.argmax(q)]
    assert abs(peak_x - (0.5 + t)) < 0.05
    assert q.max() > 0.9
    # and the refined region moved with it
    lo = min(p.spec.lo[0] for p in h.patches(2)) / (2 * nx) * 2.0
    hi = max(p.spec.hi[0] for p in h.patches(2)) / (2 * nx) * 2.0
    assert lo <= 0.5 + t <= hi
