import numpy as np
import pytest

from adjamr import equations as eqs
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import (BoundarySpec, SchedulingError, fill_ghost_from_coarse,
                           fill_ghost_physical, integrate_patch, limiter_phi,
                           sample_patch_material, select_dt, step_patch)


def const_acoustics_1d(K=1.0, rho=1.0):
    return eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.full_like(np.asarray(x, float), K),
        lambda x: np.full_like(np.asarray(x, float), rho)))


def const_acoustics_2d(K=1.0, rho=1.0):
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.full_like(np.asarray(x, float) + np.asarray(y, float), K),
        lambda x, y: np.full_like(np.asarray(x, float) + np.asarray(y, float), rho)))


def uniform_patch_1d(eq, nx, xlim=(0.0, 1.0), bc=None):
    h = PatchHierarchy(xlim=xlim, ylim=None, base_shape=(nx,), ratios=[])
    spec = h.make_spec(1, (0,), (nx - 1,))
    p = Patch(spec, eq.m)
    sample_patch_material(p, eq, bc or BoundarySpec(), (nx,))
    return h, p


def uniform_patch_2d(eq, nx, ny, xlim=(0.0, 1.0), ylim=(0.0, 1.0), bc=None):
    h = PatchHierarchy(xlim=xlim, ylim=ylim, base_shape=(nx, ny), ratios=[])
    spec = h.make_spec(1, (0, 0), (nx - 1, ny - 1))
    p = Patch(spec, eq.m)
    sample_patch_material(p, eq, bc or BoundarySpec(), (nx, ny))
    return h, p


def test_limiter_properties():
    thetas = np.linspace(-3, 4, 141)
    for name in ("minmod", "MC", "superbee"):
        phi = limiter_phi(name, thetas)
        assert limiter_phi(name, np.array([1.0]))[0] == pytest.approx(1.0)
        assert np.all(phi >= 0.0) and np.all(phi <= 2.0)
    assert np.all(limiter_phi("none", thetas) == 1.0)


def test_ghost_wall_reflection_rule():
    eq = const_acoustics_1d()
    _, p = uniform_patch_1d(eq, 8)
    p.interior()[0, :] = 2.0
    p.interior()[1, :] = 3.0
    fill_ghost_physical(p, BoundarySpec(left="wall", right="wall"), eq, (8,))
    assert p.state[0, 1] == pytest.approx(2.0)
    assert p.state[1, 1] == pytest.approx(-3.0)


def test_ghost_outflow_extrapolation_rule():
    eq = const_acoustics_1d()
    _, p = uniform_patch_1d(eq, 8)
    p.interior()[0, :] = 2.0
    p.interior()[1, :] = 3.0
    fill_ghost_physical(p, BoundarySpec(left="outflow", right="outflow"), eq, (8,))
    assert p.state[0, 0] == pytest.approx(2.0)
    assert p.state[1, 0] == pytest.approx(3.0)


def test_swe_coastline_mirror_state():
    # the wall mirror used at wet/dry faces: (eta, mu, gamma) -> (eta, -mu, gamma)
    from adjamr.solver import _mirror_state
    q = np.array([[0.1], [5.0], [1.0]])
    out = _mirror_state(q, 1)
    assert np.allclose(out[:, 0], [0.1, -5.0, 1.0])


def test_constant_state_fixed_point_1d_and_2d():
    eq = const_acoustics_1d(K=2.0, rho=0.5)
    _, p = uniform_patch_1d(eq, 32)
    p.interior()[0] = 1.3
    p.interior()[1] = -0.4
    before = p.interior().copy()
    fill_ghost_physical(p, BoundarySpec(left="outflow", right="outflow"), eq, (32,))
    step_patch(p, 0.01, eq, "MC")
    assert np.allclose(p.interior(), before, atol=1e-15)

    eq2 = const_acoustics_2d(K=4.0)
    _, p2 = uniform_patch_2d(eq2, 12, 12)
    p2.interior()[0] = 0.7
    before = p2.interior().copy()
    fill_ghost_physical(p2, BoundarySpec(), eq2, (12, 12))
    step_patch(p2, 0.01, eq2, "MC")
    assert np.allclose(p2.interior(), before, atol=1e-15)


def test_constant_state_fixed_point_walls_swe():
    def bathy(x, y):
        return np.full_like(np.asarray(x, float), -10.0)
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy, sea_level=0.0, gravity=9.81))
    _, p = uniform_patch_2d(eq, 10, 10, xlim=(0, 100), ylim=(0, 100))
    p.interior()[0] = 0.25
    before = p.interior().copy()
    fill_ghost_physical(p, BoundarySpec(), eq, (10, 10))
    step_patch(p, 0.05, eq, "MC")
    assert np.allclose(p.interior(), before, atol=1e-14)


def dalembert(p0, x, t, c):
    return 0.5 * (p0(x - c * t) + p0(x + c * t))


def test_1d_pulse_splits_dalembert():
    eq = const_acoustics_1d()
    nx = 400
    h, p = uniform_patch_1d(eq, nx, xlim=(-2.0, 2.0))
    xs, = p.spec.cell_centers()

    def p0(x):
        return np.exp(-80.0 * x ** 2)

    p.interior()[0] = p0(xs)
    bc = BoundarySpec(left="outflow", right="outflow")
    T = 0.75
    integrate_patch(p, eq, bc, (nx,), T, limiter="MC")
    exact = dalembert(p0, xs, T, 1.0)
    err = np.max(np.abs(p.interior()[0] - exact))
    assert err < 0.02
    # two half-amplitude pulses at +-cT
    ileft = np.argmin(np.abs(xs + T))
    iright = np.argmin(np.abs(xs - T))
    assert p.interior()[0, ileft] == pytest.approx(0.5, abs=0.02)
    assert p.interior()[0, iright] == pytest.approx(0.5, abs=0.02)


def standing_mode_1d(K, rho, L, n, t, x):
    c = np.sqrt(K / rho)
    Z = rho * c
    k = n * np.pi / L
    p = np.cos(k * x) * np.cos(c * k * t)
    u = np.sin(k * x) * np.sin(c * k * t) / Z
    return p, u


def l1_error_1d(nx, limiter, T=0.35, n_mode=1):
    eq = const_acoustics_1d()
    h, p = uniform_patch_1d(eq, nx, xlim=(0.0, 1.0))
    xs, = p.spec.cell_centers()
    p0, u0 = standing_mode_1d(1, 1, 1.0, n_mode, 0.0, xs)
    p.interior()[0] = p0
    p.interior()[1] = u0
    integrate_patch(p, eq, BoundarySpec(), (nx,), T, limiter=limiter)
    pe, ue = standing_mode_1d(1, 1, 1.0, n_mode, T, xs)
    return np.sum(np.abs(p.interior()[0] - pe)) / nx


@pytest.mark.parametrize("limiter,order_min", [("MC", 1.8), ("none", 1.9)])
def test_convergence_second_order_1d(limiter, order_min):
    errs = [l1_error_1d(nx, limiter) for nx in (50, 100, 200)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= order_min, (errs, orders)


def test_scheme_linearity_without_limiter():
    eq = const_acoustics_1d()
    rng = np.random.default_rng(5)
    nx = 64
    bc = BoundarySpec(left="outflow", right="outflow")

    def run(q0):
        _, p = uniform_patch_1d(eq, nx)
        p.interior()[...] = q0
        fill_ghost_physical(p, bc, eq, (nx,))
        step_patch(p, 0.005, eq, "none")
        return p.interior().copy()

    q1 = rng.normal(size=(2, nx))
    q2 = rng.normal(size=(2, nx))
    a, b = 1.7, -0.6
    lhs = run(a * q1 + b * q2)
    rhs = a * run(q1) + b * run(q2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_energy_decay_wall_bounded():
    eq = const_acoustics_1d()
    nx = 1000
    h, p = uniform_patch_1d(eq, nx, xlim=(0.0, 1.0))
    xs, = p.spec.cell_centers()
    p.interior()[0] = np.exp(-300.0 * (xs - 0.5) ** 2)
    dx = p.spec.dx

    def energy():
        q = p.interior()
        return np.sum(q[0] ** 2 / 2.0 + q[1] ** 2 / 2.0) * dx

    e0 = energy()
    energies = [e0]
    integrate_patch(p, eq, BoundarySpec(), (nx,), 1.0, limiter="MC",
                    on_step=lambda _: energies.append(energy()))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * e0)            # non-increasing
    assert (e0 - energies[-1]) / e0 < 0.01        # < 1% per transit


def test_select_dt_arithmetic_and_degenerate():
    eq = const_acoustics_2d(K=4.0, rho=1.0)      # c = 2
    h, p = uniform_patch_2d(eq, 50, 50, xlim=(-4, 8), ylim=(-1, 11))
    h.levels.append([p])
    assert select_dt(h, eq, 0.9) == pytest.approx(0.9 * 0.24 / 2.0)

    def dry(x, y):
        return np.full_like(np.asarray(x, float), 5.0)   # land everywhere
    eq2 = eqs.SweLinear2D(eqs.SweMaterialModel(dry))
    h2, p2 = uniform_patch_2d(eq2, 10, 10)
    h2.levels.append([p2])
    assert select_dt(h2, eq2, 0.9, dt_max=123.0) == 123.0


def test_select_dt_governed_by_fast_side():
    # sound speed 1 on the left, 0.5 on the right
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(np.asarray(x, float)),
        lambda x: np.where(np.asarray(x) < 0, 1.0, 4.0)))
    h, p = uniform_patch_1d(eq, 100, xlim=(-5.0, 3.0))
    h.levels.append([p])
    assert select_dt(h, eq, 0.9) == pytest.approx(0.9 * 0.08 / 1.0)


def test_fill_ghost_from_coarse_rules():
    eq = const_acoustics_2d()
    h = PatchHierarchy(xlim=(0, 8), ylim=(0, 8), base_shape=(8, 8), ratios=[2])
    cspec = h.make_spec(1, (0, 0), (7, 7))
    coarse = Patch(cspec, eq.m)
    sample_patch_material(coarse, eq, BoundarySpec(), (8, 8))
    xs, ys = cspec.cell_centers(include_ghost=True)
    lin = xs[:, None] + 0.0 * ys[None, :]
    coarse.state[0] = lin                      # linear in x at told
    coarse.save_old()
    coarse.time = 1.0
    coarse.state[0] = lin + 10.0               # jumps by 10 at tnew
    h.levels = [[coarse], []]
    fspec = h.make_spec(2, (4, 4), (11, 11))
    fine = Patch(fspec, eq.m)
    h.levels[1] = [fine]

    # at the earlier time: reproduces the linear profile exactly
    fill_ghost_from_coarse(fine, h, 0.0)
    gx, gy = fspec.cell_centers(include_ghost=True)
    want = gx[:, None] + 0.0 * gy[None, :]
    got = fine.state[0]
    gmask = np.ones_like(got, dtype=bool)
    g = fspec.ghost_width
    gmask[g:-g, g:-g] = False
    assert np.allclose(got[gmask], want[gmask], atol=1e-13)

    # at the midpoint: halfway between the two coarse fields
    fill_ghost_from_coarse(fine, h, 0.5)
    assert np.allclose(fine.state[0][gmask], want[gmask] + 5.0, atol=1e-13)

    # constant coarse field at both times -> constant ghosts
    coarse.state[0][...] = 3.7
    coarse.state_old[0][...] = 3.7
    fill_ghost_from_coarse(fine, h, 0.25)
    assert np.allclose(fine.state[0][gmask], 3.7, atol=1e-14)

    with pytest.raises(SchedulingError):
        fill_ghost_from_coarse(fine, h, 2.0)


# ---------------------------------------------------------------------------
# material ghosts and the step's Courant number


def _expected_ghost_index(idx, n, low, high):
    """Where a ghost's material comes from along one axis of a level of n cells.

    Behind a wall: the mirrored interior cell; behind an outflow side: the edge
    cell; elsewhere (and in the interior): the cell itself.
    """
    out = idx.copy()
    if low == "wall":
        out = np.where(idx < 0, -1 - idx, out)
    elif low == "outflow":
        out = np.where(idx < 0, 0, out)
    if high == "wall":
        out = np.where(idx > n - 1, 2 * n - 1 - idx, out)
    elif high == "outflow":
        out = np.where(idx > n - 1, n - 1, out)
    return out


def _assert_material_ghosts(h, eq, bc, level, lo, hi):
    spec = h.make_spec(level, lo, hi)
    p = Patch(spec, eq.m)
    shape = h.level_shape(level)
    sample_patch_material(p, eq, bc, shape)
    g = spec.ghost_width
    centers = []
    for a in range(spec.ndim):
        idx = np.arange(spec.lo[a] - g, spec.hi[a] + g + 1)
        low = bc.side(a, False) if spec.lo[a] == 0 else None
        high = bc.side(a, True) if spec.hi[a] == shape[a] - 1 else None
        src = _expected_ghost_index(idx, shape[a], low, high)
        centers.append(spec.origin[a] + (src + 0.5) * spec.widths[a])
    # a corner ghost takes the x source and the y source at once: x then y
    want = eq.sample_material(*np.meshgrid(*centers, indexing="ij"))
    for name in ("bulk", "rho", "c", "z"):
        assert np.array_equal(getattr(p.aux, name), getattr(want, name)), (name, lo, hi)


def test_material_ghosts_mirror_at_walls_and_clamp_at_outflow_1d():
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: 1.0 + np.asarray(x, float),
        lambda x: 2.0 + 0.5 * np.asarray(x, float) ** 2))
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None, base_shape=(8,), ratios=[2])
    for bc in (BoundarySpec(left="wall", right="outflow"),
               BoundarySpec(left="outflow", right="wall")):
        _assert_material_ghosts(h, eq, bc, 1, (0,), (7,))
        for lo, hi in (((0,), (5,)), ((4,), (11,)), ((10,), (15,))):
            _assert_material_ghosts(h, eq, bc, 2, lo, hi)


def test_material_ghosts_mirror_at_walls_and_clamp_at_outflow_2d():
    eq = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 1.0 + x + 2.0 * y,
        lambda x, y: 1.5 + 0.25 * x * y))
    h = PatchHierarchy(xlim=(1.0, 2.0), ylim=(1.0, 3.0), base_shape=(6, 8),
                       ratios=[2])
    for bc in (BoundarySpec(left="wall", right="outflow", bottom="outflow", top="wall"),
               BoundarySpec(left="outflow", right="wall", bottom="wall", top="outflow")):
        _assert_material_ghosts(h, eq, bc, 1, (0, 0), (5, 7))
        for lo, hi in (((0, 0), (5, 5)),        # low x, low y corner
                       ((6, 10), (11, 15)),     # high x, high y corner
                       ((0, 6), (3, 15)),       # low x, high y
                       ((4, 4), (7, 9))):       # no domain side
            _assert_material_ghosts(h, eq, bc, 2, lo, hi)


def test_step_patch_returns_courant_number_over_interior_interfaces():
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: 1.0 + 3.0 * np.asarray(x, float),
        lambda x: np.ones_like(np.asarray(x, float))))
    _, p = uniform_patch_1d(eq, 16, bc=BoundarySpec(left="outflow", right="wall"))
    g, n, dt = p.spec.ghost_width, p.state.shape[1], 0.01
    cfl = step_patch(p, dt, eq, "MC")
    assert isinstance(cfl, float)
    assert cfl == float(np.max(p.aux.c[g - 1:n - g + 1])) * (dt / p.spec.dx)

    eq2 = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 1.0 + x + 2.0 * y, lambda x, y: np.ones_like(x)))
    _, p2 = uniform_patch_2d(eq2, 8, 8, ylim=(0.0, 2.0))
    nx, ny = p2.state.shape[1:]
    c = p2.aux.c
    cfl = step_patch(p2, dt, eq2, "MC")
    assert isinstance(cfl, float)
    assert cfl == max(float(np.max(c[g - 1:nx - g + 1, g:ny - g])) * (dt / p2.spec.dx),
                      float(np.max(c[g:nx - g, g - 1:ny - g + 1])) * (dt / p2.spec.dy))
