"""Regrid a level at a time: flags and restriction on the packed level.

The references are the per-patch paths: `inner_product_field(...) > tol` and
`flag_cells` on each patch, and restriction one fine patch at a time with
its children summed as (m, n0, r[, n1, r]) blocks.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjamr import adjoint as adjoint_module
from adjamr import equations as eqs
from adjamr.adjoint import (AdjointFlagging, AdjointSnapshotStore, TimeWindow,
                            inner_product_field)
from adjamr.amr import (AmrContext, DifferenceFlagging, EverywhereFlagging,
                        RefinementRegion, SurfaceFlagging, flag_cells, level_flags,
                        new_level, restrict_fine_to_coarse)
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import BoundarySpec, level_layout, sample_patch_material

BC = BoundarySpec(left="wall", right="outflow", bottom="outflow", top="wall")


def _tiles(rng, shape, keep=0.7):
    """Disjoint boxes (lo, hi): a random grid of cuts, a random subset kept."""
    cuts = [np.unique(np.concatenate(([0, n], rng.integers(1, n, size=3)))) for n in shape]
    spans = [list(zip(c[:-1].tolist(), (c[1:] - 1).tolist())) for c in cuts]
    boxes = [tuple(zip(*combo)) for combo in itertools.product(*spans)]
    chosen = [b for b in boxes if rng.random() < keep]
    return chosen or [boxes[rng.integers(len(boxes))]]


def _equation(rng, ndim, swe):
    if ndim == 1:
        k, z = rng.uniform(0.5, 2.0, 2)
        return eqs.Acoustics1D(eqs.AcousticsMaterialModel(
            lambda x: np.full_like(x, k), lambda x: np.where(x < 0.1, 1.0, z)))
    if swe:
        a, b = rng.uniform(0.3, 0.8, 2)
        return eqs.SweLinear2D(eqs.SweMaterialModel(
            lambda x, y: -1.0 + a * (x + 1.0) + b * y, sea_level=0.0, gravity=1.0))
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 1.0 + 0.5 * x * x, lambda x, y: np.where(y < 0.7, 1.0, 2.0)))


def _ctx(eq):
    return AmrContext(equation=eq, boundary=BC, strategy=EverywhereFlagging())


def _adjoint_case(seed):
    """A packed multi-patch level with random state, a random store whose
    grid is the base grid or not, and a time inside or before the window."""
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 3))
    swe = ndim == 2 and rng.random() < 0.5
    eq = _equation(rng, ndim, swe)
    base = tuple(int(n) for n in rng.integers(6, 14, size=ndim))
    h = PatchHierarchy(xlim=(-1.0, 1.0), ylim=None if ndim == 1 else (0.0, 1.5),
                       base_shape=base, ratios=[2])
    level = int(rng.integers(1, 3))
    patches = new_level(h, level, _tiles(rng, h.level_shape(level)), _ctx(eq), 0.0)
    lay = patches[0].layout
    lay.state[...] = rng.normal(size=lay.state.shape) * (rng.random(lay.state.shape) < 0.6)

    shape = base if rng.random() < 0.5 else tuple(int(n) for n in rng.integers(3, 17, size=ndim))
    origin, widths = h.origin, [(hi - lo) / n for (lo, hi), n in zip((h.xlim, h.ylim), shape)]
    times = np.linspace(0.0, 1.0, int(rng.integers(2, 12)))
    flat_store = rng.random() < 0.3           # spatially constant snapshots: tight bounds
    values = rng.normal(size=(len(times), eq.m, *((1,) * ndim if flat_store else shape)))
    values = np.broadcast_to(values, (len(times), eq.m, *shape)) * (
        rng.random((len(times), eq.m, 1 if flat_store else shape[0], *shape[1:])) < 0.8)
    wet = None
    if swe:
        xs, ys = (o + (np.arange(n) + 0.5) * w for o, n, w in zip(origin, shape, widths))
        wet = eqs.wet(eq.sample_material(*np.meshgrid(xs, ys, indexing="ij")))
    t_start = float(rng.uniform(0.0, 1.0))
    window = TimeWindow(t_start, 1.0)
    store = AdjointSnapshotStore(times=times, stack=values, origin=origin,
                                 widths=(widths[0], widths[1] if ndim == 2 else 0.0),
                                 window=window, wet=wet)
    t = float(rng.uniform(0.0, t_start) if rng.random() < 0.4 else rng.uniform(t_start, 1.0))
    return h, patches, lay, store, window, t, rng


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_bounded_level_adjoint_flags_equal_per_patch_inner_products(seed):
    h, patches, lay, store, window, t, rng = _adjoint_case(seed)
    level_shape = h.level_shape(lay.level)
    vals = [inner_product_field(p, t, store, window) for p in patches]
    positive = np.concatenate([v.ravel() for v in vals])
    positive = positive[positive > 0]
    tols = [0.5, 1e-3]
    if len(positive):
        v = float(rng.choice(positive))     # a tolerance sitting on a cell value
        tols += [v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, np.inf)),
                 float(np.quantile(positive, 0.9))]
    for tol in tols:
        want = np.zeros(level_shape, dtype=bool)
        for p, v in zip(patches, vals):
            want[tuple(slice(l, hi + 1) for l, hi in zip(p.spec.lo, p.spec.hi))] = v > tol
        got = np.zeros(level_shape, dtype=bool)
        got[lay.interior_cells[1]] = AdjointFlagging(store, window, tol).evaluate(lay, t)
        assert np.array_equal(got, want), (tol, np.argwhere(got != want)[:5])


@pytest.mark.parametrize("budget", [1, 1009])
@pytest.mark.parametrize("seed", range(8))
def test_level_adjoint_flags_do_not_depend_on_the_gather_budget(seed, budget, monkeypatch):
    # 1: slabs of one snapshot; 1009 is no multiple of m × cells.  The
    # inner products at the default budget are the reference
    h, patches, lay, store, window, t, _ = _adjoint_case(seed)
    vals = [inner_product_field(p, t, store, window) for p in patches]
    monkeypatch.setattr(adjoint_module, "GATHER_VALUES", budget)
    for p, v in zip(patches, vals):
        assert np.array_equal(inner_product_field(p, t, store, window), v)
    for tol in (0.5, 1e-3):
        want = np.zeros(h.level_shape(lay.level), dtype=bool)
        for p, v in zip(patches, vals):
            want[tuple(slice(l, hi + 1) for l, hi in zip(p.spec.lo, p.spec.hi))] = v > tol
        got = np.zeros_like(want)
        got[lay.interior_cells[1]] = AdjointFlagging(store, window, tol).evaluate(lay, t)
        assert np.array_equal(got, want), tol


def test_levels_flagged_at_one_t_share_one_envelope():
    # the envelope depends on the window only: level 2, flagged at level 1's
    # t, reuses level 1's, and each level flags as a fresh strategy does
    rng = np.random.default_rng(5)
    eq = _equation(rng, 1, False)
    h = PatchHierarchy(xlim=(-1.0, 1.0), ylim=None, base_shape=(12,), ratios=[2])
    levels = []
    for level, boxes in ((1, [((0,), (11,))]), (2, [((2,), (9,)), ((14,), (21,))])):
        lay = new_level(h, level, boxes, _ctx(eq), 0.0)[0].layout
        lay.state[...] = rng.normal(size=lay.state.shape)
        levels.append(lay)
    times = np.linspace(0.0, 1.0, 9)
    stack = np.stack([rng.normal(size=(eq.m, 10)) for _ in times])
    store = AdjointSnapshotStore(times=times, stack=stack, origin=h.origin, widths=(0.2, 0.0),
                                 window=TimeWindow(0.5, 1.0))
    strategy = AdjointFlagging(store, store.window, 0.5)
    built = []
    for t in (0.3, 0.55):
        for lay in levels:
            flags = strategy.evaluate(lay, t)
            assert flags.any()
            assert np.array_equal(flags, AdjointFlagging(store, store.window, 0.5).evaluate(lay, t))
            built.append(strategy._envelope)
    assert built[0] is built[1] and built[2] is built[3] and built[1] is not built[2]


def _three_patch_level(eq, seed=0):
    """Level 2 of three patches over level 1, each meeting a wall or an
    outflow side, ghosts filled from the coarse level at t = 0.05."""
    rng = np.random.default_rng(seed)
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(8, 6), ratios=[2])
    ctx = _ctx(eq)
    coarse, = new_level(h, 1, [((0, 0), (7, 5))], ctx, 0.0)
    coarse.state[...] = rng.normal(size=coarse.state.shape)
    coarse.layout.save_old()
    coarse.state[...] = rng.normal(size=coarse.state.shape)
    coarse.layout.time = 0.1
    boxes = (((0, 0), (5, 4)), ((6, 0), (15, 3)), ((10, 6), (15, 11)))
    h.levels = [[coarse], new_level(h, 2, boxes, ctx, 0.05)]
    lay = level_layout(h, 2)
    lay.state[...] = rng.normal(size=lay.state.shape) * 0.3
    lay.fill_ghosts(h, 0.05, BC, eq)
    return h, lay


def _copy(h, eq, p):
    """A free patch holding a copy of a level's patch, its one-patch level."""
    c = Patch(p.spec, eq.m, time=p.time)
    sample_patch_material(c, eq, BC, h.level_shape(p.spec.level))
    c.state[...] = p.state
    return c


def _difference_reference(p, tol):
    """Undivided neighbour differences on one patch's ghosted state."""
    g, n = p.spec.ghost_width, p.spec.shape
    big = np.zeros(n)
    for axis in range(p.spec.ndim):
        fwd = np.abs(np.diff(p.state, axis=1 + axis))
        for shift in (g - 1, g):
            sl = [slice(g, g + k) for k in n]
            sl[axis] = slice(shift, shift + n[axis])
            big = np.maximum(big, np.max(fwd[(slice(None), *sl)], axis=0))
    return big > tol


REGIONS = (RefinementRegion(min_level=3, max_level=3, t1=0.0, t2=1.0, rect=(0.2, 0.9, 0.1, 0.6)),
           RefinementRegion(min_level=1, max_level=2, t1=0.0, t2=1.0, rect=(1.1, 2.0, 0.0, 0.5)),
           RefinementRegion(min_level=1, max_level=1, t1=0.5, t2=1.0, rect=(0.0, 2.0, 0.0, 1.5)))


def _swe():
    return eqs.SweLinear2D(eqs.SweMaterialModel(
        lambda x, y: -1.0 + 0.6 * x + 0.5 * y, sea_level=0.0, gravity=1.0))


def _acoustics():
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 0.2 + 0.1 * x * y, lambda x, y: 1.0 + 0.5 * x))


@pytest.mark.parametrize("eq, strategy", [
    (_acoustics, DifferenceFlagging(0.4)), (_swe, DifferenceFlagging(0.4)),
    (_swe, SurfaceFlagging(0.25)), (_acoustics, EverywhereFlagging())])
@pytest.mark.parametrize("regions", [(), REGIONS])
def test_level_flags_equal_per_patch_flag_cells(eq, strategy, regions):
    eq = eq()
    h, lay = _three_patch_level(eq)
    patches = h.patches(2)
    flags = level_flags(lay, strategy, 0.05, regions)
    assert flags.any() and (not flags.all() or not regions)
    got = np.zeros(h.level_shape(2), dtype=bool)
    got[lay.interior_cells[1]] = flags
    for p in patches:
        sl = tuple(slice(l, hi + 1) for l, hi in zip(p.spec.lo, p.spec.hi))
        per_patch = flag_cells(_copy(h, eq, p), strategy, regions)
        assert np.array_equal(got[sl], per_patch), p
        if isinstance(strategy, DifferenceFlagging) and not regions:
            assert np.array_equal(per_patch, _difference_reference(p, 0.4))


def _restrict_reference(h, level):
    """The coarse interiors after restricting one fine patch at a time."""
    r, nd = h.ratio_to_finer(level), h.ndim
    coarse = {p.spec.lo: p.interior().copy() for p in h.patches(level)}
    wet_c = {p.spec.lo: eqs.wet(p.aux) for p in h.patches(level)}
    for fp in h.patches(level + 1):
        sl = fp.spec.interior_slices()
        blocks = [k for n in fp.spec.shape for k in (n // r, r)]
        q = fp.state[(slice(None), *sl)].reshape(fp.num_components, *blocks)
        sums = tuple(range(2 * nd, 0, -2))
        w = eqs.wet(fp.aux)[sl].reshape(blocks).astype(float)    # all 1 for acoustics
        ws = w.sum(axis=tuple(a - 1 for a in sums))
        avg = (q * w).sum(axis=sums) / np.where(ws > 0, ws, 1.0)
        for idx in np.ndindex(*avg.shape[1:]):
            cell = tuple(l // r + i for l, i in zip(fp.spec.lo, idx))
            for cp in h.patches(level):
                local = tuple(c - l for c, l in zip(cell, cp.spec.lo))
                if not all(0 <= k < n for k, n in zip(local, cp.spec.shape)):
                    continue
                if not (ws[idx] > 0 and wet_c[cp.spec.lo][
                        tuple(k + cp.spec.ghost_width for k in local)]):
                    continue
                coarse[cp.spec.lo][(slice(None), *local)] = avg[(slice(None), *idx)]
    return coarse


@pytest.mark.parametrize("eq, ratio", [(_acoustics, 2), (_acoustics, 4), (_swe, 2)])
def test_level_restriction_equals_per_patch_restriction(eq, ratio):
    eq = eq()
    rng = np.random.default_rng(5)
    ctx = _ctx(eq)
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(8, 6), ratios=[ratio])
    r = ratio
    fine = [((r * lo[0], r * lo[1]), (r * hi[0] + r - 1, r * hi[1] + r - 1))
            for lo, hi in (((1, 1), (4, 2)), ((1, 3), (2, 4)), ((5, 1), (6, 4)))]
    h.levels = [new_level(h, 1, (((0, 0), (3, 5)), ((4, 0), (7, 2)), ((4, 3), (7, 5))), ctx, 0.0),
                new_level(h, 2, fine, ctx, 0.0)]
    for level in (1, 2):
        lay = level_layout(h, level)
        lay.state[...] = rng.normal(size=lay.state.shape)
    if eq.is_swe:
        fine_wet = np.concatenate([eqs.wet(p.aux)[p.spec.interior_slices()].ravel()
                                   for p in h.patches(2)])
        assert fine_wet.any() and not fine_wet.all()        # dry children occur
    want = _restrict_reference(h, 1)
    restrict_fine_to_coarse(h, 1)
    for p in h.patches(1):
        assert np.array_equal(p.interior(), want[p.spec.lo]), p
