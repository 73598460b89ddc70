"""A level stepped and ghost-filled as one packed array (`LevelLayout`).

The references are the per-patch paths: copies of the level's patches get
their ghosts filled one patch at a time (coarse interpolation, then every
overlapping same-level interior, then the domain sides one after the other,
x before y, low before high) and are stepped with `step_patch`.
"""

import re

import numpy as np
import pytest

from adjamr import equations as eqs
from adjamr import solver
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import (BoundarySpec, CflViolationError, LevelLayout,
                           NumericalBlowupError, fill_ghost_from_coarse,
                           sample_patch_material, step_patch)

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
        p.state *= p.aux.wet
    return p


def _hierarchy(eq, seed=0):
    """Level 1 saved at t = 0 and stepped to 0.1; level 2 at t = 0.05."""
    rng = np.random.default_rng(seed)
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 1.5), base_shape=(8, 6), ratios=[2])
    coarse = _patch(h, eq, 1, (0, 0), (7, 5), rng)
    coarse.save_old()
    coarse.state[...] = rng.uniform(-1.0, 1.0, coarse.state.shape)
    coarse.time = 0.1
    h.levels = [[coarse], [_patch(h, eq, 2, lo, hi, rng) for lo, hi in BOXES]]
    for p in h.patches(2):
        p.time = 0.05
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
    lay = LevelLayout(h.patches(2))
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
        assert sum(p.aux.wet.any() and not p.aux.wet.all() for p in patches) >= 2
    dt = 0.8 * min(patches[0].spec.widths) / max(float(np.max(p.aux.c)) for p in patches)
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
