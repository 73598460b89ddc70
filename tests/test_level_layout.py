"""A level stepped and ghost-filled as one packed array (`LevelLayout`).

The references are the per-patch paths: copies of the level's patches get
their ghosts filled one patch at a time (coarse interpolation, then every
overlapping same-level interior, then the domain sides one after the other,
x before y, low before high) and are stepped with `step_patch`.
"""

import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest

from adjamr import equations as eqs
from adjamr import solver
from adjamr.amr import AmrContext, EverywhereFlagging, new_level
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import (BoundarySpec, CflViolationError, LevelLayout,
                           NumericalBlowupError, fill_ghost_from_coarse, fill_ghost_physical,
                           level_layout, sample_patch_material, step_patch)

BC = BoundarySpec(left="wall", right="outflow", bottom="outflow", top="wall")
# four touching level-2 boxes of different shapes on a 16 x 12 level: each
# meets two domain sides, and D leaves gaps that only the coarse level fills
BOXES = (((0, 0), (5, 4)), ((6, 0), (15, 3)), ((0, 5), (7, 11)), ((10, 6), (15, 11)))


def _acoustics():
    # sound speed below 1 everywhere, under the unit speed of the padding
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 0.2 + 0.3 * x * y / 3.0 + 0.1 * y,
        lambda x, y: 1.0 + 0.5 * x))


def _swe():
    # the coastline 0.6 x + 0.5 y = 1 crosses boxes B, C and D
    return eqs.SweLinear2D(eqs.SweMaterialModel(
        lambda x, y: -1.0 + 0.6 * x + 0.5 * y, sea_level=0.0, gravity=1.0))


EQUATIONS = {"acoustics-2d": _acoustics, "swe-linear-2d": _swe}


def _patch(h, eq, level, lo, hi, rng):
    p = Patch(h.make_spec(level, lo, hi), eq.m)
    sample_patch_material(p, eq, BC, h.level_shape(level))
    p.state[...] = rng.uniform(-1.0, 1.0, p.state.shape)
    if eq.is_swe:
        p.state[...] *= eqs.wet(p.aux)
    return p


def _hierarchy(eq, seed=0):
    """Level 1 saved at t = 0 and stepped to 0.1; level 2 at t = 0.05."""
    rng = np.random.default_rng(seed)
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(8, 6), ratios=[2])
    coarse = _patch(h, eq, 1, (0, 0), (7, 5), rng)
    coarse.layout.save_old()
    coarse.state[...] = rng.uniform(-1.0, 1.0, coarse.state.shape)
    coarse.layout.time = 0.1
    h.levels = [[coarse], [_patch(h, eq, 2, lo, hi, rng) for lo, hi in BOXES]]
    LevelLayout.join(h.patches(2)).time = 0.05
    return h


def _copy(h, eq, p):
    c = Patch(p.spec, eq.m, time=p.time)
    sample_patch_material(c, eq, BC, h.level_shape(p.spec.level))
    c.state[...] = p.state
    return c


def _same_level_reference(p, patches):
    """Every overlapping interior of the other patches, the last one winning."""
    s, g = p.spec, p.spec.ghost_width
    for o in patches:
        if o is p:
            continue
        lo = [max(a - g, b) for a, b in zip(s.lo, o.spec.lo)]
        hi = [min(a + g, b) for a, b in zip(s.hi, o.spec.hi)]
        if any(l > u for l, u in zip(lo, hi)):
            continue
        dst = tuple(slice(l - a + g, u - a + g + 1) for l, u, a in zip(lo, hi, s.lo))
        src = tuple(slice(l - a + g, u - a + g + 1) for l, u, a in zip(lo, hi, o.spec.lo))
        p.state[(slice(None), *dst)] = o.state[(slice(None), *src)]


def _physical_reference(p, eq, shape):
    """The domain sides one after the other: x before y, low before high."""
    s, g = p.spec, p.spec.ghost_width
    for axis in range(s.ndim):
        for high in (False, True):
            if not ((s.hi[axis] == shape[axis] - 1) if high else (s.lo[axis] == 0)):
                continue
            q = np.moveaxis(p.state, 1 + axis, 1)
            n = q.shape[1]
            ghost = slice(n - g, n) if high else slice(0, g)
            if BC.side(axis, high) == "wall":
                src = slice(n - g - 1, n - 2 * g - 1, -1) if high else slice(2 * g - 1, g - 1, -1)
                q[:, ghost] = q[:, src]
                q[eq.normal_component(axis), ghost] *= -1.0
            else:
                q[:, ghost] = q[:, n - g - 1:n - g] if high else q[:, g:g + 1]


def _filled_pair(name):
    """(level layout, per-patch copies), both with every level-2 ghost filled."""
    eq = EQUATIONS[name]()
    h = _hierarchy(eq)
    copies = [_copy(h, eq, p) for p in h.patches(2)]
    for c in copies:
        fill_ghost_from_coarse(c, h, 0.05)
    for c in copies:
        _same_level_reference(c, copies)
    for c in copies:
        _physical_reference(c, eq, h.level_shape(2))
    lay = solver.level_layout(h, 2)
    lay.fill_ghosts(h, 0.05, BC, eq)
    return eq, h, lay, copies


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_level_ghost_copies_equal_the_sequential_fill(name):
    eq, h, lay, copies = _filled_pair(name)
    assert len(lay.same_level[0]) and len(lay._coarse[1])   # every kind of ghost occurs
    for p, c in zip(h.patches(2), copies):
        assert np.array_equal(p.state, c.state), p       # corner ghosts included


@pytest.mark.parametrize("band_cells", [1, solver.BAND_CELLS])
@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_level_step_equals_per_patch_steps(name, band_cells, monkeypatch):
    monkeypatch.setattr(solver, "BAND_CELLS", band_cells)   # 1: a band per shelf
    eq, h, lay, copies = _filled_pair(name)
    patches = h.patches(2)
    boxes = sum(int(np.prod(p.spec.total_shape)) for p in patches)
    assert lay.state[0].size > boxes                      # the packing has padding
    assert (len(lay.bands) > 1) == (band_cells == 1)
    if eq.is_swe:
        assert sum(eqs.wet(p.aux).any() and not eqs.wet(p.aux).all() for p in patches) >= 2
    dt = 0.8 * min(patches[0].spec.widths) / max(float(np.max(p.aux[eqs.C])) for p in patches)
    for _ in range(3):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            cfl = lay.step(dt, eq, "MC")
        want = max(step_patch(c, dt, eq, "MC") for c in copies)
        assert cfl == want and 0.5 < cfl <= 1.0
        for p, c in zip(patches, copies):
            assert np.array_equal(p.interior(), c.interior()), p
            assert p.time == c.time


def test_level_step_errors_name_the_offending_patch():
    eq, h, lay, copies = _filled_pair("acoustics-2d")
    # Courant number per unit dt of each patch; only the fastest, not the
    # first, goes above 1
    rates = [step_patch(c, 1e-3, eq, "MC") / 1e-3 for c in copies]
    k = int(np.argmax(rates))
    assert k != 0 and sorted(rates)[-2] < rates[k] / 1.02
    with pytest.raises(CflViolationError,
                       match=re.escape(f"level=2, lo={h.patches(2)[k].spec.lo}")):
        lay.step(1.01 / rates[k], eq, "MC")

    eq, h, lay, _ = _filled_pair("swe-linear-2d")
    bad = h.patches(2)[2]
    bad.interior()[0, 3, 3] = np.nan
    with pytest.raises(NumericalBlowupError) as err:
        lay.step(1e-3, eq, "MC")
    assert str(err.value).startswith(repr(bad))


def test_bad_wave_speed_names_the_patch_holding_it():
    # a NaN bulk modulus passes the material's `<= 0` check; the band's step
    # rejects it naming the second patch, which holds it, not the band's first
    eq = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.where((x > 1.5) & (y > 1.0), np.nan, 1.0 + 0.5 * x),
        lambda x, y: 1.0 + 0.1 * y))
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(16, 12), ratios=[])
    rng = np.random.default_rng(0)
    patches = [_patch(h, eq, 1, lo, hi, rng) for lo, hi in (BOXES[0], BOXES[3])]
    assert np.isnan(patches[1].aux[eqs.C]).any() and not np.isnan(patches[0].aux[eqs.C]).any()
    lay = LevelLayout.join(patches)
    assert len(lay.bands) == 1
    with pytest.raises(eqs.InvalidMaterialError) as err:
        lay.step(1e-3, eq, "MC")
    assert str(err.value).startswith(repr(patches[1]) + ": wave speeds must be positive")


# ---------------------------------------------------------------------------
# One owner per level


def _new_level(eq, h, level, boxes, t=0.0):
    return new_level(h, level, boxes, AmrContext(equation=eq, boundary=BC,
                                                 strategy=EverywhereFlagging()), t)


def test_a_patch_is_a_read_only_view_of_its_level():
    eq = _acoustics()
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(16, 12), ratios=[])
    patches = _new_level(eq, h, 1, BOXES, 0.25)
    lay = patches[0].layout
    lay.save_old()
    for k, p in enumerate(patches):
        assert p.layout is lay and p.index == k and p.time == p.time_old == 0.25
        for name in ("state", "state_old", "aux"):
            assert getattr(p, name).base is getattr(lay, name)
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(p, name).copy())
    lay.step(1e-3, eq, "MC")
    assert all(p.time == 0.25 + 1e-3 and p.time_old == 0.25 for p in patches)


def test_one_patch_entry_points_refuse_a_patch_that_shares_its_level():
    # they ran on a copy of the patch alone and left it detached from its level
    eq = _acoustics()
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(16, 12), ratios=[])
    h.levels = [_new_level(eq, h, 1, BOXES[:3])]
    lay = level_layout(h, 1)
    state, p = lay.state, h.patches(1)[1]
    with pytest.raises(ValueError, match="shares its level with 2 others"):
        step_patch(p, 1e-3, eq, "MC")
    with pytest.raises(ValueError, match="shares its level"):
        fill_ghost_physical(p, BC, eq, h.level_shape(1))
    assert level_layout(h, 1) is lay and lay.state is state and lay.time == 0.0
    assert p.layout is lay and p.state.base is state


def test_a_level_of_patches_built_apart_needs_a_join():
    eq = _acoustics()
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(16, 12), ratios=[])
    rng = np.random.default_rng(1)
    h.levels = [[_patch(h, eq, 1, lo, hi, rng) for lo, hi in BOXES]]
    with pytest.raises(ValueError, match="level 1"):
        level_layout(h, 1)
    values = [p.state.copy() for p in h.patches(1)]
    lay = LevelLayout.join(h.patches(1))
    assert level_layout(h, 1) is lay
    for p, v in zip(h.patches(1), values):
        assert p.state.base is lay.state and np.array_equal(p.state, v)
    h.levels[0] = h.levels[0][::-1]           # the same patches out of order
    with pytest.raises(ValueError, match="level 1"):
        level_layout(h, 1)


def test_a_replaced_level_is_freed_without_the_cycle_collector():
    # the layout keeps specs, not patches: no reference cycle holds a level
    eq = _acoustics()
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(8, 6), ratios=[2])
    gc.disable()
    try:
        h.levels = [_new_level(eq, h, 1, [((0, 0), (7, 5))]), _new_level(eq, h, 2, BOXES)]
        lay = level_layout(h, 2)
        lay.fill_ghosts(h, 0.0, BC, eq)          # its fill and step plans built
        lay.step(1e-3, eq, "MC")
        state = weakref.ref(lay.state)
        del lay
        h.levels[1] = _new_level(eq, h, 2, BOXES[:2])
        assert state() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The physical-boundary plan and the shelf packing


def _ghost_maps(spec, boundary, level_shape, start):
    """Per axis, the packed index each position of a patch's padded box reads
    and whether that read is reflected: the per-patch rule the level-wide
    plan replaced.  Low sides go before high ones."""
    g = spec.ghost_width
    maps, flips = [], []
    for a, n in enumerate(spec.total_shape):
        idx, flip = np.arange(start[a], start[a] + n), np.zeros(n, dtype=bool)
        for high in (False, True):
            if (spec.hi[a] == level_shape[a] - 1) if high else (spec.lo[a] == 0):
                ghost = slice(n - g, n) if high else slice(0, g)
                if boundary.side(a, high) == "wall":
                    src = (slice(n - g - 1, n - 2 * g - 1, -1) if high
                           else slice(2 * g - 1, g - 1, -1))
                    idx[ghost], flip[ghost] = idx[src], ~flip[src]
                else:
                    src = slice(n - g - 1, n - g) if high else slice(g, g + 1)
                    idx[ghost], flip[ghost] = idx[src], flip[src]
        maps.append(idx)
        flips.append(flip)
    return maps, flips


def _per_patch_plan(lay, boundary, eq, level_shape):
    """{(dst, src, signs)} of the per-patch physical plan."""
    m, *shape = lay.state.shape
    out = set()
    for spec, off in zip(lay.specs, lay.offsets):
        maps, flips = _ghost_maps(spec, boundary, level_shape, off)
        own = np.meshgrid(*(np.arange(o, o + n) for o, n in zip(off, spec.total_shape)),
                          indexing="ij")
        mapped = np.meshgrid(*maps, indexing="ij")
        moved = np.any([i != j for i, j in zip(own, mapped)], axis=0)
        s = np.ones((m, *spec.total_shape))
        for a, f in enumerate(flips):
            s[eq.normal_component(a)] *= np.where(f, -1.0, 1.0).reshape(
                [-1 if b == a else 1 for b in range(len(shape))])
        dst = np.ravel_multi_index(tuple(i[moved] for i in own), shape)
        src = np.ravel_multi_index(tuple(i[moved] for i in mapped), shape)
        out |= set(zip(dst.tolist(), src.tolist(), map(tuple, s[:, moved].T.tolist())))
    return out


def _random_level(rng, ndim):
    """Level-2 patches on a random ratio-2 grid of tiles: every tile on a
    domain side and a random half of the rest, so each side is met."""
    base = tuple(int(n) for n in rng.integers(3, 9, size=ndim))
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=(0.0, 1.0) if ndim == 2 else None,
                       base_shape=base, ratios=[2])
    cuts = [np.unique(np.concatenate(([0, n], rng.integers(1, n, size=2)))) * 2 for n in base]
    tiles = [list(zip(c[:-1].tolist(), (c[1:] - 1).tolist())) for c in cuts]
    boxes = [(tuple(t[0] for t in b), tuple(t[1] for t in b))
             for b in itertools.product(*tiles)]
    keep = [b for b in boxes if any(l == 0 or h == 2 * n - 1 for l, h, n in zip(*b, base))
            or rng.random() < 0.5]
    order = rng.permutation(len(keep))
    return h, [Patch(h.make_spec(2, *keep[k]), 3 if ndim == 2 else 2) for k in order]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ndim", [1, 2])
def test_physical_plan_equals_the_per_patch_maps(ndim, seed):
    rng = np.random.default_rng(seed)
    h, patches = _random_level(rng, ndim)
    eq = _acoustics() if ndim == 2 else eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.full_like(x, 2.0), lambda x: np.full_like(x, 1.0)))
    lay = LevelLayout.join(patches)
    shape = h.level_shape(2)
    for sides in itertools.product(("wall", "outflow"), repeat=2 * ndim):
        bc = BoundarySpec(*sides, *("wall",) * (4 - len(sides)))
        _, dst, src, sign = lay._physical_plan(bc, eq, shape)
        got = set(zip(dst.tolist(), src.tolist(), map(tuple, sign.T.tolist())))
        assert len(got) == len(dst) and got == _per_patch_plan(lay, bc, eq, shape), sides


def _one_width_pack(boxes):
    """(packed area, cells of the largest shelf) under the one-width rule:
    shelves ceil(sqrt(total area)) wide (at least the widest box)."""
    if len(boxes[0]) == 1:
        return sum(b[0] for b in boxes), max(b[0] for b in boxes)
    width = max(max(b[1] for b in boxes), int(np.ceil(np.sqrt(sum(np.prod(b) for b in boxes)))))
    x, y, thick, ny = 0, width, 0, 1
    for b in sorted(boxes, key=lambda b: -b[0]):
        if y + b[1] > width:
            x, y, thick = x + thick, 0, b[0]
        y += b[1]
        ny = max(ny, y)
    return (x + thick) * ny, max(b[0] for b in boxes) * ny


@pytest.mark.parametrize("band_cells", [64, 2048, solver.BAND_CELLS])
@pytest.mark.parametrize("ndim", [1, 2])
def test_shelf_pack_is_disjoint_banded_and_no_larger(ndim, band_cells, monkeypatch):
    monkeypatch.setattr(solver, "BAND_CELLS", band_cells)
    rng = np.random.default_rng(ndim * 100 + band_cells)
    for _ in range(40):
        boxes = [tuple(int(e) for e in rng.integers(5, 70, size=ndim))
                 for _ in range(rng.integers(1, 25))]
        offsets, shape, bands = solver._shelf_pack(boxes)
        taken = np.zeros(shape, dtype=int)
        for off, b in zip(offsets, boxes):
            assert all(o >= 0 and o + e <= n for o, e, n in zip(off, b, shape))
            taken[tuple(slice(o, o + e) for o, e in zip(off, b))] += 1
        assert taken.max() == 1 and taken.sum() == sum(np.prod(b) for b in boxes)
        area, shelf = _one_width_pack(boxes)
        assert math.prod(shape) <= area
        assert bands[0][0] == 0 and bands[-1][1] == shape[0]
        assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
        for lo, hi in bands:
            inside = [off[0] for off, b in zip(offsets, boxes) if lo <= off[0] < hi]
            assert all(off[0] + b[0] <= hi for off, b in zip(offsets, boxes)
                       if lo <= off[0] < hi)                     # whole shelves
            ny = shape[1] if ndim == 2 else 1
            assert (hi - lo) * ny <= band_cells or len(set(inside)) == 1
            assert (hi - lo) * ny <= max(band_cells, shelf)        # no wider than before
