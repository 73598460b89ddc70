import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjamr import equations as eqs
from adjamr.amr import (AmrContext, DifferenceFlagging,
                        EverywhereFlagging, FlagField, RefinementRegion,
                        SurfaceFlagging, advance_hierarchy, buffer_flags,
                        cluster, flag_cells, make_patch, regrid,
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


def ff(mask, lo=None, level=1):
    mask = np.asarray(mask, dtype=bool)
    return FlagField(flags=mask, lo=lo or (0,) * mask.ndim, level=level)


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
    assert not out.flags.any()


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
    assert np.array_equal(out.flags, want)


def test_difference_flag_monotone_in_tolerance():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    rng = np.random.default_rng(2)
    p.state[...] = rng.normal(size=p.state.shape)
    loose = flag_cells(p, DifferenceFlagging(0.5)).flags
    tight = flag_cells(p, DifferenceFlagging(0.1)).flags
    assert np.all(tight | ~loose)       # lowering tol never shrinks the set


def test_surface_flagging_wet_only():
    def bathy(x, y):
        return np.where(np.asarray(x) < 5.0, -10.0, 5.0)    # right half dry
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy))
    _, p = patch_2d(eq)
    p.interior()[0] = 1.0          # big surface perturbation everywhere
    out = flag_cells(p, SurfaceFlagging(0.1))
    xs = p.spec.cell_centers()[0]
    assert out.flags[xs < 5.0].all()
    assert not out.flags[xs > 5.0].any()


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
    assert once.flags[0, 0]                 # required corner set
    assert not once.flags[9, 9]             # forbidden corner cleared
    twice = flag_cells(p, strat, (require, forbid, require, forbid))
    assert np.array_equal(once.flags, twice.flags)


def test_region_outside_time_window_ignored():
    eq = const_ac2d()
    _, p = patch_2d(eq)
    p.time = 5.0
    forbid = RefinementRegion(min_level=1, max_level=1, t1=0.0, t2=1.0,
                              rect=(0.0, 10.0, 0.0, 10.0))
    out = flag_cells(p, EverywhereFlagging(), (forbid,))
    assert out.flags.all()


# ---------------------------------------------------------------------------
# buffer_flags


def test_buffer_empty_stays_empty():
    out = buffer_flags(ff(np.zeros((8, 8))), 2)
    assert not out.flags.any()


def test_buffer_single_cell_becomes_block():
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    out = buffer_flags(ff(mask), 2)
    want = np.zeros((9, 9), dtype=bool)
    want[2:7, 2:7] = True
    assert np.array_equal(out.flags, want)


def test_buffer_merges_nearby_cells():
    mask = np.zeros((12,), dtype=bool)
    mask[3] = mask[6] = True
    out = buffer_flags(ff(mask), 2)
    # brute-force dilation oracle
    want = np.zeros((12,), dtype=bool)
    for k in np.nonzero(mask)[0]:
        want[max(0, k - 2):k + 3] = True
    assert np.array_equal(out.flags, want)
    assert out.flags[3:9].all()


@given(st.integers(0, 3), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_buffer_matches_bruteforce_dilation(buf, n):
    rng = np.random.default_rng(n)
    mask = rng.random((n, max(1, n // 2))) < 0.2
    out = buffer_flags(ff(mask), buf).flags
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
    boxes = cluster(ff(mask, lo=(10, 20)), 0.7)
    assert boxes[0].lo == (11, 22) and boxes[0].hi == (12, 24)


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
    h.levels = [[make_patch(h, 1, (0,), (4,), ctx, 0.0),
                 make_patch(h, 1, (5,), (7,), ctx, 0.0)],
                [make_patch(h, 2, (2,), (7,), ctx, 0.0),
                 make_patch(h, 2, (10,), (13,), ctx, 0.0)]]
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
        h.levels = [[make_patch(h, 1, lo, hi, ctx, 0.0) for lo, hi in cuts], [fine]]
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
    h.levels = [[make_patch(h, 1, (0, 0), (3, 7), ctx, 0.0),
                 make_patch(h, 1, (4, 0), (7, 7), ctx, 0.0)],
                [make_patch(h, 2, (2, 2), (11, 15), ctx, 0.0),
                 make_patch(h, 2, (12, 0), (15, 9), ctx, 0.0)]]
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
                out[sl] = p.aux.wet[p.spec.interior_slices()]
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
        for p in patches:
            p.state[...] = rng.normal(size=p.state.shape)
            p.time = t_old
            p.save_old()
            p.state[...] = rng.normal(size=p.state.shape)
            p.time = t_new
        h.levels[1] = patches

    fill_level_2(h.patches(2), 0.0, 0.5)
    fine = make_patch(h, 3, (12, 12), (19, 19), ctx, 0.25)
    h.levels.append([fine])
    fill_ghost_from_coarse(fine, h, 0.25)

    replacements = (
        [make_patch(h, 2, (4, 4), (11, 11), ctx, 0.0)],                # same box
        [make_patch(h, 2, (4, 4), (7, 11), ctx, 0.0),
         make_patch(h, 2, (8, 4), (11, 11), ctx, 0.0)],                # split box
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
