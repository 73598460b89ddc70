import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjamr import adjoint as adjoint_module
from adjamr import equations as eqs
from adjamr.adjoint import (AdjointFlagging, AdjointSnapshotStore,
                            ConfigurationError, EmptyFunctionalError,
                            FunctionalSpec, TimeWindow, build_phi, evaluate_J,
                            inner_product_field, query_window_times,
                            solve_adjoint)
from adjamr.amr import flag_cells
from adjamr.geometry import Patch, PatchHierarchy, UniformField, interpolate_uniform
from adjamr.solver import BoundarySpec, sample_patch_material


def interface_eq_1d():
    return eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(x),
        lambda x: np.where(np.asarray(x) < 0, 1.0, 4.0)))


def const_eq_1d(K=1.0, rho=1.0):
    return eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.full_like(x, K), lambda x: np.full_like(x, rho)))


# ---------------------------------------------------------------------------
# build_phi


def test_build_phi_1d_indicator():
    f = FunctionalSpec(kind="box", bounds=(1.8, 2.3), weights=(1.0, 0.0))
    # centers at 1.75 and 1.85 for dx=0.1 starting at some origin
    phi = build_phi(f, origin=(0.0,), widths=(0.1, 0.0), shape=(30,))
    xs = phi.centers()[0]
    k175 = np.argmin(np.abs(xs - 1.75))
    k185 = np.argmin(np.abs(xs - 1.85))
    assert phi.values[0, k175] == 0.0
    assert phi.values[0, k185] == 1.0
    assert np.all(phi.values[1] == 0.0)


def test_build_phi_2d_weighted_box():
    f = FunctionalSpec(kind="box", bounds=(3.32, 3.8, 0.32, 0.8),
                       weights=(2.0, 0.0, 0.0))
    phi = build_phi(f, origin=(-4.0, -1.0), widths=(0.24, 0.24), shape=(50, 50))
    inside = phi.values[0] == 2.0
    outside = phi.values[0] == 0.0
    assert inside.any()
    assert (inside | outside).all()
    xs, ys = phi.centers()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    want = ((X >= 3.32) & (X <= 3.8) & (Y >= 0.32) & (Y <= 0.8))
    assert np.array_equal(inside, want)
    assert np.all(phi.values[1:] == 0.0)


def test_build_phi_disk():
    f = FunctionalSpec(kind="disk", bounds=(235.80917, 41.74111, 1.0),
                       weights=(1.0, 0.0, 0.0))
    phi = build_phi(f, origin=(230.0, 38.0), widths=(0.25, 0.25), shape=(40, 40))
    xs, ys = phi.centers()
    ci = np.argmin(np.abs(xs - 235.80917))
    cj = np.argmin(np.abs(ys - 41.74111))
    assert phi.values[0, ci, cj] == 1.0


def test_build_phi_empty_region_raises():
    f = FunctionalSpec(kind="box", bounds=(99.0, 99.5), weights=(1.0, 0.0))
    with pytest.raises(EmptyFunctionalError):
        build_phi(f, origin=(0.0,), widths=(0.1, 0.0), shape=(30,))


# ---------------------------------------------------------------------------
# window queries


def make_store(t0=0.0, tf=20.0, dt=1.0, t_start=None):
    n = int(round((tf - t0) / dt))
    times = np.linspace(t0, tf, n + 1)
    window = TimeWindow(t_start=tf if t_start is None else t_start, t_final=tf)
    return AdjointSnapshotStore(times=times, stack=np.zeros((len(times), 2, 4)),
                                origin=(0.0,), widths=(1.0, 0.0), window=window)


def test_query_point_window_brackets():
    store = make_store()
    w = store.window
    assert query_window_times(7.4, w, store) == [7, 8]


def test_query_point_window_aligned_single():
    store = make_store()
    assert query_window_times(7.0, store.window, store) == [7]


def test_query_range_window_spec_example():
    store = make_store(t_start=18.0)
    assert query_window_times(5.0, store.window, store) == [5, 6, 7]


def test_query_range_window_bracket_below():
    store = make_store(t_start=18.0)
    assert query_window_times(19.5, store.window, store) == [19, 20]


def test_query_after_final_empty():
    store = make_store()
    assert query_window_times(20.5, store.window, store) == []


def test_window_nesting_property():
    store = make_store(t_start=18.0)
    wide = TimeWindow(t_start=15.0, t_final=20.0)
    for t in (0.0, 3.3, 7.9, 14.2, 19.7):
        narrow_set = set(query_window_times(t, store.window, store))
        wide_set = set(query_window_times(t, wide, store))
        assert narrow_set <= wide_set


def _query_window_times_scans(t, window, store):
    """The window query as three scans of the snapshot times: the oracle."""
    times = store.times
    eps = 1e-9 * max(store.dt_snap, abs(float(times[-1])), 1.0)
    if t > times[-1] + eps:
        return []
    upper = min(t + window.span, window.t_final)
    inside = np.nonzero((times >= t - eps) & (times <= upper + eps))[0]
    out = list(inside)
    if len(inside) == 0 or times[inside[0]] > t + eps:
        below = np.nonzero(times < t - eps)[0]
        if len(below):
            out.insert(0, int(below[-1]))
    if len(inside) == 0 or times[inside[-1]] < upper - eps:
        above = np.nonzero(times > upper + eps)[0]
        if len(above):
            out.append(int(above[0]))
    return [int(k) for k in out]


def test_window_query_equals_the_scans():
    # aligned and unaligned ends (within eps of a snapshot too), t before the
    # first and past the last snapshot, point windows and windows ending
    # before t (no snapshot inside)
    rng = np.random.default_rng(11)
    for t0, tf, dt in ((0.0, 20.0, 1.0), (-1.5, 2.25, 0.25), (3.0, 3.0 + 7 * 0.1, 0.1)):
        store = make_store(t0, tf, dt)
        times, eps = store.times, 1e-9 * max(dt, abs(tf), 1.0)
        ts = np.concatenate([times, times + 0.4 * eps, times - 0.4 * eps, times + 3 * eps,
                             rng.uniform(t0 - 2 * dt, tf + 2 * dt, 200)])
        for t_start in (tf, tf - 3.5 * dt, tf - 2 * dt, t0, t0 - dt):
            for t_final in (tf, tf - 2.5 * dt):
                w = TimeWindow(t_start=min(t_start, t_final), t_final=t_final)
                lo, hi = query_window_times(ts, w, store)      # the array form
                for t, a, b in zip(ts, lo, hi):
                    want = _query_window_times_scans(t, w, store)
                    assert query_window_times(t, w, store) == want, (t, w)
                    # past the window's t_final its two brackets may come
                    # descending or twice; the range spans them once
                    assert list(range(a, b)) == (sorted(set(want)) if t > t_final
                                                 else want), (t, w)


@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_window_query_bounds_hypothesis(t, span):
    store = make_store()
    w = TimeWindow(t_start=max(0.0, 20.0 - span), t_final=20.0)
    idxs = query_window_times(t, w, store)
    assert idxs == sorted(idxs)
    upper = min(t + w.span, 20.0)
    for k in idxs[1:-1]:
        assert t - 1e-9 <= store.times[k] <= upper + 1e-9


# ---------------------------------------------------------------------------
# solve_adjoint


def test_solve_adjoint_reversal_and_zero_functional():
    eq = const_eq_1d()
    bc = BoundarySpec()
    f = FunctionalSpec(kind="box", bounds=(0.4, 0.6), weights=(1.0, 0.0))
    w = TimeWindow(t_start=1.0, t_final=1.0)
    store = solve_adjoint(eq, bc, f, w, (0.0, 1.0), None, (100,), dt_snap=0.125)
    # snapshot labeled t_final is exactly phi
    phi = build_phi(f, (0.0,), (0.01, 0.0), (100,))
    assert np.array_equal(store.stack[-1], phi.values)
    assert store.times[-1] == pytest.approx(1.0)
    assert store.times[0] == pytest.approx(0.0)
    dt = np.diff(store.times)
    assert np.allclose(dt, dt[0])


def test_solve_adjoint_round_trip_reflection():
    # centered pulse, walls at both ends, c = 1: the two halves reflect off
    # their near walls and reconverge after one domain transit (method of
    # images), so the snapshot one transit before t_final reproduces phi up
    # to numerical smearing of the square edges
    eq = const_eq_1d()
    bc = BoundarySpec()
    f = FunctionalSpec(kind="box", bounds=(0.4, 0.6), weights=(1.0, 0.0))
    w = TimeWindow(t_start=2.0, t_final=2.0)
    store = solve_adjoint(eq, bc, f, w, (0.0, 1.0), None, (400,), dt_snap=0.25)
    phi = store.stack[-1]
    k = int(np.argmin(np.abs(store.times - 1.0)))   # one transit earlier
    recurred = store.fields[k].values
    assert np.sum(np.abs(recurred[0] - phi[0])) / 400 < 0.01
    assert np.abs(recurred[0]).max() > 0.9
    # conservation-form solve: the pressure integral is exactly preserved
    sums = [f.values[0].sum() for f in store.fields]
    assert np.max(np.abs(np.diff(sums))) < 1e-10 * max(abs(sums[0]), 1.0)


def test_solve_adjoint_energy_is_conserved_reasonably():
    eq = interface_eq_1d()
    bc = BoundarySpec()
    f = FunctionalSpec(kind="box", bounds=(1.8, 2.3), weights=(1.0, 0.0))
    w = TimeWindow(t_start=20.0, t_final=20.0)
    store = solve_adjoint(eq, bc, f, w, (-5.0, 3.0), None, (500,), dt_snap=2.0)
    # pulse splits and keeps propagating: field should be nonzero at the end
    assert np.max(np.abs(store.fields[0].values)) > 0.05


# ---------------------------------------------------------------------------
# inner products and evaluate_J


def patch_1d(eq, nx=100, xlim=(0.0, 1.0)):
    h = PatchHierarchy(xlim=xlim, ylim=None, base_shape=(nx,), ratios=[])
    p = Patch(h.make_spec(1, (0,), (nx - 1,)), eq.m)
    sample_patch_material(p, eq, BoundarySpec(), (nx,))
    return h, p


def adjoint_flags(p, t, store, tolerance):
    """AdjointFlagging's flags on one patch at time t."""
    p.layout.time = t
    return flag_cells(p, AdjointFlagging(store, store.window, tolerance))


def test_inner_product_zero_state_no_flags():
    eq = const_eq_1d()
    _, p = patch_1d(eq)
    store = make_store(t0=0.0, tf=1.0, dt=0.25)
    store.stack[...] = 1.0
    assert not adjoint_flags(p, 0.5, store, 0.02).any()


def test_inner_product_constant_dot():
    eq = const_eq_1d()
    _, p = patch_1d(eq)
    p.interior()[0] = 0.5
    store = make_store(t0=0.0, tf=1.0, dt=0.25)
    store.stack[:, 0] = 1.0
    vals = inner_product_field(p, 0.5, store, store.window)
    assert np.allclose(vals, 0.5)
    assert adjoint_flags(p, 0.5, store, 0.02).all()


@pytest.mark.parametrize("t", [10.5, 11.5, 12.5, 13.5])
def test_nothing_past_the_windows_end_reaches_J(t):
    # a 21-snapshot store over [0, 20] and the window [5, 10]: past t_final
    # the query lists the bracket snapshots, descending from t = 12.5 on
    eq = const_eq_1d()
    _, p = patch_1d(eq)
    p.interior()[0] = 0.5
    store, window = make_store(), TimeWindow(5.0, 10.0)
    store.stack[:, 0] = 1.0
    strategy = AdjointFlagging(store, window, 0.02)
    p.layout.time = window.t_final
    assert flag_cells(p, strategy).all()
    p.layout.time = t
    assert np.array_equal(inner_product_field(p, t, store, window), np.zeros(p.spec.shape))
    assert not flag_cells(p, strategy).any()


def test_inner_product_missing_store_errors():
    eq = const_eq_1d()
    _, p = patch_1d(eq)
    with pytest.raises(ConfigurationError):
        inner_product_field(p, 0.0, None, TimeWindow(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        AdjointFlagging(None, TimeWindow(1.0, 1.0), 0.1)


def test_inner_product_dry_forward_cell_zero():
    def bathy(x, y):
        return np.where(np.asarray(x) < 0.5, -10.0, 5.0)
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy))
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=(0.0, 1.0),
                       base_shape=(10, 10), ratios=[])
    p = Patch(h.make_spec(1, (0, 0), (9, 9)), 3)
    sample_patch_material(p, eq, BoundarySpec(), (10, 10))
    p.interior()[0] = 1.0
    times = np.linspace(0.0, 1.0, 5)
    store = AdjointSnapshotStore(times=times, stack=np.ones((5, 3, 10, 10)), origin=(0.0, 0.0),
                                 widths=(0.1, 0.1), window=TimeWindow(1.0, 1.0),
                                 wet=eqs.wet(p.aux)[p.spec.interior_slices()].copy())
    vals = inner_product_field(p, 0.5, store, store.window)
    xs = p.spec.cell_centers()[0]
    assert np.all(vals[xs > 0.5] == 0.0)      # dry forward cells masked
    assert np.all(vals[xs < 0.5] > 0.0)


def test_inner_product_adjoint_dry_location_zero():
    # forward wet everywhere; adjoint grid dry on the right half
    def wet_bathy(x, y):
        return np.full_like(np.asarray(x, float), -10.0)
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(wet_bathy))
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=(0.0, 1.0),
                       base_shape=(10, 10), ratios=[])
    p = Patch(h.make_spec(1, (0, 0), (9, 9)), 3)
    sample_patch_material(p, eq, BoundarySpec(), (10, 10))
    p.interior()[0] = 1.0
    times = np.linspace(0.0, 1.0, 5)
    adjoint_wet = np.ones((10, 10), dtype=bool)
    adjoint_wet[5:, :] = False
    store = AdjointSnapshotStore(times=times, stack=np.ones((5, 3, 10, 10)), origin=(0.0, 0.0),
                                 widths=(0.1, 0.1), window=TimeWindow(1.0, 1.0), wet=adjoint_wet)
    vals = inner_product_field(p, 0.5, store, store.window)
    xs = p.spec.cell_centers()[0]
    assert np.all(vals[xs > 0.5] == 0.0)
    assert np.all(vals[xs < 0.5] > 0.0)


def per_snapshot_inner_product(patch, t, store, window):
    """The windowed inner product as one interpolate_uniform call per snapshot."""
    spec = patch.spec
    cs = spec.cell_centers()
    if spec.ndim == 1:
        x, y = cs[0], None
    else:
        x = np.broadcast_to(cs[0][:, None], spec.shape)
        y = np.broadcast_to(cs[1][None, :], spec.shape)
    q = patch.interior()
    best = np.zeros(spec.shape)
    for n in query_window_times(t, window, store):
        qhat = interpolate_uniform(store.fields[n], *((x,) if y is None else (x, y)))
        best = np.maximum(best, np.abs(np.sum(qhat * q, axis=0)))
    best = np.where(eqs.wet(patch.aux)[spec.interior_slices()], best, 0.0)
    if store.wet is not None:
        g = store.grid
        i = np.clip(((x - g.origin[0]) / g.dx).astype(int), 0, g.shape[0] - 1)
        j = np.clip(((y - g.origin[1]) / g.dy).astype(int), 0, g.shape[1] - 1)
        best = np.where(store.wet[i, j], best, 0.0)
    return best


def random_store(rng, m, shape, origin, widths, window, wet=None):
    times = np.linspace(0.0, window.t_final, 13)
    stack = np.stack([rng.normal(size=(m, *shape)) for _ in times])
    return AdjointSnapshotStore(times=times, stack=stack, origin=origin, widths=widths,
                                window=window, wet=wet)


def refined_patch(eq, h, lo, hi, rng):
    level_shape = h.level_shape(2)
    p = Patch(h.make_spec(2, lo, hi), eq.m)
    sample_patch_material(p, eq, BoundarySpec(), level_shape)
    p.state[...] = rng.normal(size=p.state.shape)
    return p


@pytest.mark.parametrize("t", [0.0, 0.37, 0.9, 1.0])
def test_inner_product_bitwise_equals_per_snapshot_loop_1d(t):
    rng = np.random.default_rng(1)
    eq = interface_eq_1d()
    h = PatchHierarchy(xlim=(-1.0, 1.0), ylim=None, base_shape=(40,), ratios=[2])
    p = refined_patch(eq, h, (13,), (61,), rng)
    store = random_store(rng, 2, (29,), (-1.0,), (2.0 / 29, 0.0), TimeWindow(0.4, 1.0))
    got = inner_product_field(p, t, store, store.window)
    assert np.array_equal(got, per_snapshot_inner_product(p, t, store, store.window))


def _inner_product_case_2d():
    rng = np.random.default_rng(2)
    eq = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.full_like(x, 4.0), lambda x, y: np.where(x < 0.3, 1.0, 2.0)))
    h = PatchHierarchy(xlim=(-1.0, 1.0), ylim=(0.0, 3.0), base_shape=(20, 30), ratios=[2])
    p = refined_patch(eq, h, (6, 10), (33, 47), rng)
    store = random_store(rng, 3, (17, 23), (-1.0, 0.0), (2.0 / 17, 3.0 / 23),
                         TimeWindow(0.4, 1.0))
    return p, store


@pytest.mark.parametrize("t", [0.0, 0.37, 0.9])
def test_inner_product_bitwise_equals_per_snapshot_loop_2d(t):
    p, store = _inner_product_case_2d()
    got = inner_product_field(p, t, store, store.window)
    assert np.array_equal(got, per_snapshot_inner_product(p, t, store, store.window))


@pytest.mark.parametrize("per_slab", [1, 3])
def test_inner_product_gathered_in_slabs_is_bitwise_equal(per_slab, monkeypatch):
    # the window of 9 snapshots gathered one or three at a time
    p, store = _inner_product_case_2d()
    monkeypatch.setattr(adjoint_module, "GATHER_VALUES", per_slab * p.interior().size)
    assert len(query_window_times(0.37, store.window, store)) > 3
    got = inner_product_field(p, 0.37, store, store.window)
    assert np.array_equal(got, per_snapshot_inner_product(p, 0.37, store, store.window))


def test_inner_product_bitwise_equals_per_snapshot_loop_swe_dry():
    rng = np.random.default_rng(3)

    def bathy(x, y):
        return np.where(np.asarray(x) + 0.5 * np.asarray(y) < 1.2, -10.0, 5.0)
    eq = eqs.SweLinear2D(eqs.SweMaterialModel(bathy))
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0), base_shape=(20, 20), ratios=[2])
    p = refined_patch(eq, h, (4, 6), (35, 29), rng)
    xs = (np.arange(15) + 0.5) * (2.0 / 15)
    adjoint_wet = bathy(xs[:, None], xs[None, :]) < 0
    store = random_store(rng, 3, (15, 15), (0.0, 0.0), (2.0 / 15, 2.0 / 15),
                         TimeWindow(0.0, 1.0), wet=adjoint_wet)
    got = inner_product_field(p, 0.25, store, store.window)
    assert not eqs.wet(p.aux).all() and not adjoint_wet.all()
    assert (got == 0.0).any() and (got > 0.0).any()
    assert np.array_equal(got, per_snapshot_inner_product(p, 0.25, store, store.window))


def one_snapshot_store(field, t):
    """A store whose one snapshot, at t, is `field`."""
    return AdjointSnapshotStore(times=np.array([t]), stack=field.values[None],
                                origin=field.origin, widths=(field.dx, field.dy),
                                window=TimeWindow(t, t))


def test_evaluate_J_zero_and_indicator():
    f = FunctionalSpec(kind="box", bounds=(1.8, 2.3), weights=(1.0, 0.0))
    phi = one_snapshot_store(build_phi(f, origin=(-5.0,), widths=(0.008, 0.0),
                                       shape=(1000,)), 20.0)
    q = PatchHierarchy(xlim=(-5.0, 3.0), ylim=None, base_shape=(1000,), ratios=[])
    q.levels = [[Patch(q.make_spec(1, (0,), (999,)), 2)]]
    assert evaluate_J(q, phi, 20.0) == 0.0
    # q equals phi: J = sum of indicator * dx ~ interval length 0.5
    q.patches(1)[0].interior()[...] = phi.stack[0]
    assert evaluate_J(q, phi, 20.0) == pytest.approx(0.5, abs=0.01)


def test_evaluate_J_hierarchy_counts_finest_only():
    eq = const_eq_1d()
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None, base_shape=(10,), ratios=[2])
    coarse = Patch(h.make_spec(1, (0,), (9,)), 2)
    sample_patch_material(coarse, eq, BoundarySpec(), (10,))
    coarse.interior()[0] = 1.0
    fine = Patch(h.make_spec(2, (4,), (11,)), 2)
    sample_patch_material(fine, eq, BoundarySpec(), (20,))
    fine.interior()[0] = 1.0
    h.levels = [[coarse], [fine]]
    ones = one_snapshot_store(UniformField(values=np.ones((2, 10)), origin=(0.0,), dx=0.1,
                                           dy=0.0), 0.0)
    ones.stack[0, 1] = 0.0
    # J = integral of pressure = 1.0 regardless of the overlap double-count
    assert evaluate_J(h, ones, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_J_blends_the_bracketing_snapshots_linearly():
    # J is linear in q̂: between snapshots it is the blend of their Js, and
    # at a snapshot time it reads that snapshot alone
    rng = np.random.default_rng(4)
    h = PatchHierarchy(xlim=(-1.0, 1.0), ylim=(0.0, 3.0), base_shape=(20, 30), ratios=[2])
    h.levels = [[Patch(h.make_spec(1, (0, 0), (19, 29)), 3)],
                [Patch(h.make_spec(2, lo, hi), 3) for lo, hi in (((6, 10), (17, 47)),
                                                                  ((18, 10), (33, 30)))]]
    for p in (*h.patches(1), *h.patches(2)):
        p.state[...] = rng.normal(size=p.state.shape)
    store = random_store(rng, 3, (17, 23), (-1.0, 0.0), (2.0 / 17, 3.0 / 23),
                         TimeWindow(0.4, 1.0))
    times = store.times
    for n, frac in ((0, 0.25), (5, 0.5), (11, 0.9)):
        t = times[n] + frac * (times[n + 1] - times[n])
        w = (t - times[n]) / (times[n + 1] - times[n])
        want = (1 - w) * evaluate_J(h, store, times[n]) + w * evaluate_J(h, store, times[n + 1])
        assert evaluate_J(h, store, t) == pytest.approx(want, rel=1e-12, abs=0.0)
    for k in (0, 6, 12):
        alone = one_snapshot_store(store.fields[k], times[k])
        assert evaluate_J(h, store, times[k]) == evaluate_J(h, alone, times[k])
