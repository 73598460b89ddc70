from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adjamr.geometry import (OutOfRangeError, Patch, PatchHierarchy,
                             PatchSpec, UniformField, apply_stencil, enforce_nesting,
                             interpolate_patch, interpolate_uniform)


def spec_1d(nx=10, lo=0, level=1, dx=1.0, origin=0.0):
    return PatchSpec(level=level, lo=(lo,), hi=(lo + nx - 1,), dx=dx, dy=0.0,
                     origin=(origin,))


def ghost_centers(spec):
    """Cell centers of the patch's cells and ghost cells."""
    g = spec.ghost_width
    return replace(spec, lo=tuple(i - g for i in spec.lo),
                   hi=tuple(i + g for i in spec.hi)).cell_centers()


def center(spec, i):
    """Center of cell i (interior or ghost) from the ghost-inclusive centers."""
    xs, = ghost_centers(spec)
    return (xs[i - spec.lo[0] + spec.ghost_width],)


def test_cell_center_half_offset():
    s = spec_1d(dx=1.0, origin=0.0)
    assert center(s, 0) == (0.5,)


def test_cell_center_fine_grid_arithmetic():
    s = spec_1d(nx=1000, dx=0.008, origin=-5.0)
    x, = center(s, 0)
    assert x == pytest.approx(-4.996, abs=1e-12)


def test_cell_center_level2_first_fine_center():
    fine = PatchSpec(level=2, lo=(0,), hi=(19,), dx=0.5, dy=0.0, origin=(0.0,))
    assert center(fine, 0) == (0.25,)


def test_cell_center_out_of_range():
    s = spec_1d(nx=4)
    xs, = ghost_centers(s)
    # cells lo - ghost_width .. hi + ghost_width: 6 and -3 have no center
    assert xs.tolist() == [-1.5, -0.5, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5]


def test_cell_centers_spacing():
    s = spec_1d(nx=57, dx=0.013, origin=-2.0)
    xs, = s.cell_centers()
    assert np.allclose(np.diff(xs), 0.013, rtol=0, atol=1e-14)
    assert np.all(np.diff(xs) > 0)


def field_2d(nx=4, ny=4, dx=1.0, dy=1.0, m=1):
    vals = np.zeros((m, nx, ny))
    return UniformField(values=vals, origin=(0.0, 0.0), dx=dx, dy=dy)


def at(field, point):
    """`interpolate_uniform` at one point, an (m,) vector."""
    return interpolate_uniform(field, *(np.array([p]) for p in point))[:, 0]


def test_bilinear_constant_field():
    f = field_2d()
    f.values[...] = 7.25
    for pt in [(0.1, 0.1), (2.0, 3.3), (3.99, 0.02)]:
        assert at(f, pt)[0] == pytest.approx(7.25, abs=1e-14)


def test_bilinear_nodal_exactness():
    f = field_2d()
    rng = np.random.default_rng(0)
    f.values[0] = rng.normal(size=(4, 4))
    assert at(f, (1.5, 2.5))[0] == pytest.approx(
        f.values[0, 1, 2], abs=1e-14)


def test_bilinear_midpoint_average():
    # field f(x,y) = x sampled at centers; midway between two centers in x
    f = field_2d()
    xs, ys = f.centers()
    f.values[0] = xs[:, None] + 0.0 * ys[None, :]
    got = at(f, (1.0, 1.5))[0]
    assert got == pytest.approx(0.5 * (f.values[0, 0, 1] + f.values[0, 1, 1]), abs=1e-14)


def test_bilinear_out_of_domain_raises():
    f = field_2d()
    with pytest.raises(OutOfRangeError):
        at(f, (-0.5, 1.0))


def test_bilinear_edge_clamps():
    f = field_2d()
    xs, ys = f.centers()
    f.values[0] = xs[:, None] + 0.0 * ys[None, :]
    # inside the domain but outside the outermost centers: clamp to edge value
    assert at(f, (0.1, 2.0))[0] == pytest.approx(0.5, abs=1e-14)


@given(st.floats(0.01, 3.99), st.floats(0.01, 3.99),
       st.floats(-3, 3), st.floats(-3, 3))
def test_bilinear_linear_in_field(x, y, a, b):
    f = field_2d()
    g = field_2d()
    rng = np.random.default_rng(42)
    f.values[0] = rng.normal(size=(4, 4))
    g.values[0] = rng.normal(size=(4, 4))
    combo = field_2d()
    combo.values[0] = a * f.values[0] + b * g.values[0]
    lhs = at(combo, (x, y))[0]
    rhs = a * at(f, (x, y))[0] + b * at(g, (x, y))[0]
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("clamped", [False, True])
def test_patch_interpolation_is_uniform_interpolation_of_its_data(ndim, clamped):
    # one kernel: sampling a patch, or its level's packed arrays with ghosts
    # or clamped to the interior, equals sampling a copy of the array it reads
    rng = np.random.default_rng(5)
    h = PatchHierarchy(xlim=(-1.0, 9.0), ylim=(2.0, 7.0) if ndim == 2 else None,
                       base_shape=(10, 10)[:ndim], ratios=[2])
    spec = h.make_spec(2, (3, 5)[:ndim], (11, 8)[:ndim])
    assert spec.widths == (0.5, 0.25)[:ndim]
    p = Patch(spec, 3)
    p.state[...] = rng.normal(size=p.state.shape)
    g = spec.ghost_width if clamped else 0
    data = p.state[(slice(None), *(slice(g, n - g) for n in spec.total_shape))]
    f = UniformField(values=data.copy(), dx=spec.dx, dy=spec.dy,
                     origin=tuple(spec.origin[a] + (spec.lo[a] - spec.ghost_width + g)
                                  * spec.widths[a] for a in range(ndim)))
    hi = f.domain_hi()
    pts = [rng.uniform(f.origin[a], hi[a], size=50) for a in range(ndim)]
    if not clamped:
        assert np.array_equal(interpolate_patch(p, *pts), interpolate_uniform(f, *pts))
    lay = p.layout
    pos, stencil = lay.stencil(h, pts, ghosts=not clamped)
    inside = np.all([(c >= o + l * w) & (c < o + (l + n) * w) for c, o, l, n, w
                     in zip(pts, spec.origin, spec.lo, spec.shape, spec.widths)], axis=0)
    assert np.array_equal(pos, np.flatnonzero(inside))
    assert len(pos) == 50 if clamped else 0 < len(pos) < 50     # ghosts: held by none
    assert np.array_equal(apply_stencil(stencil, lay.state),
                          interpolate_uniform(f, *(c[pos] for c in pts)))


def make_hierarchy_2d(nx=8, ny=8, ratios=(2,)):
    return PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0),
                          base_shape=(nx, ny), ratios=list(ratios))


def add_patch(h, level, lo, hi, m=1):
    p = Patch(h.make_spec(level, lo, hi), m)
    while len(h.levels) < level:
        h.levels.append([])
    h.levels[level - 1].append(p)
    return p


def test_levels_below_one_have_no_patches():
    from adjamr.solver import level_layout
    h = make_hierarchy_2d()
    coarse = add_patch(h, 1, (0, 0), (7, 7))
    fine = add_patch(h, 2, (4, 4), (9, 9))
    assert h.patches(0) == [] and h.patches(-1) == [] and h.patches(3) == []
    assert h.patches(1) == [coarse] and h.patches(2) == [fine]
    assert level_layout(h, 0) is None and level_layout(h, 2) is fine.layout
    coarse.state[...] = 1.0
    coarse.layout.fill_from_coarse(h, 0.0)      # level 1 has no parent: no fill
    assert np.all(coarse.state == 1.0)


def test_nesting_single_level_empty():
    h = make_hierarchy_2d()
    add_patch(h, 1, (0, 0), (7, 7))
    assert enforce_nesting(h) == []


def test_nesting_ok_with_margin():
    h = make_hierarchy_2d()
    add_patch(h, 1, (0, 0), (7, 7))
    add_patch(h, 2, (4, 4), (9, 9))     # fine cells 4..9 -> coarse 2..4, inside
    assert enforce_nesting(h) == []


def test_nesting_violation_detected_by_brute_force():
    h = make_hierarchy_2d()
    add_patch(h, 1, (0, 0), (3, 7))        # parent covers x cells 0..3 only
    add_patch(h, 2, (4, 4), (9, 9))        # coarse footprint x 2..4; 4 is outside 0..2
    violations = enforce_nesting(h)
    assert len(violations) == 1
    v = violations[0]
    assert v.level == 2
    # brute force: coarse cells the fine patch maps onto that are not >= 1 cell
    # inside the parent union (edges exempt)
    parent = np.zeros((8, 8), bool)
    parent[0:4, 0:8] = True
    bad = []
    for ci in range(2, 5):
        for cj in range(2, 5):
            ok = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = min(max(ci + di, 0), 7), min(max(cj + dj, 0), 7)
                    ok &= parent[ii, jj]
            if not ok:
                bad.append((ci, cj))
    assert sorted(v.cells) == sorted(bad)


def test_nesting_invariant_under_reordering():
    h = make_hierarchy_2d(ratios=(2, 2))
    add_patch(h, 1, (0, 0), (7, 7))
    add_patch(h, 2, (2, 2), (9, 9))
    add_patch(h, 2, (10, 2), (13, 9))
    add_patch(h, 3, (8, 8), (15, 15))
    first = enforce_nesting(h)
    h.levels[1] = h.levels[1][::-1]
    second = enforce_nesting(h)
    assert first == second == []
