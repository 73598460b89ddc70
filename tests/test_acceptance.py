"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from adjamr import driver, equations as eqs
from adjamr.adjoint import evaluate_J, inner_product_field
from adjamr.amr import AmrContext, EverywhereFlagging, advance_hierarchy
from adjamr.config import parse_config
from adjamr.driver import run_adjoint, run_forward, run_convergence, run_xt_map
from adjamr.equations import (acoustics_material, acoustics_rp_1d,
                              acoustics_rp_normal_2d,
                              adjoint_fwave_rp, swe_linear_rp, swe_material)
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.runio import compare_gauges
from adjamr.solver import (BoundarySpec, fill_ghost_physical, integrate_patch,
                           sample_patch_material, select_dt, step_patch)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def load_cfg(name):
    with open(os.path.join(CONFIG_DIR, name)) as f:
        return parse_config(f.read())


def report(num, name, detail):
    print(f"\n[criterion {num}] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Adjoint identity


def identity_drift(nx):
    cfg = load_cfg("1d-interface.cfg")
    cfg = replace(cfg, nx=nx, adjoint_shape=(nx,),
                  output_times=tuple(np.linspace(0.0, 20.0, 21)))
    store, _ = run_adjoint(cfg)
    Js = {}
    run_forward(cfg, strategy_name="difference",
                on_output=lambda t, h: Js.update({t: evaluate_J(h, store, t)}))
    j_final = Js[20.0]
    drifts = [abs(j - j_final) / max(abs(j_final), 1e-30) for j in Js.values()]
    return max(drifts), j_final


def test_criterion_1_adjoint_identity():
    drift_1000, j_final = identity_drift(1000)
    assert drift_1000 <= 0.05, f"max drift {drift_1000:.2%} exceeds 5%"
    drift_2000, _ = identity_drift(2000)
    ratio = drift_1000 / drift_2000
    assert ratio >= 1.5, f"refinement reduced drift only {ratio:.2f}x"
    report(1, "adjoint identity",
           f"J(t_f)={j_final:.5f}, drift {drift_1000:.2%} at 1000 cells, "
           f"{drift_2000:.2%} at 2000 ({ratio:.2f}x better)")


# ---------------------------------------------------------------------------
# 2. Interface reflection/transmission


def test_criterion_2_interface_physics():
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(x),
        lambda x: np.where(np.asarray(x) < 0, 1.0, 4.0)))
    nx = 2000
    h = PatchHierarchy(xlim=(-5.0, 3.0), ylim=None, base_shape=(nx,), ratios=[])
    p = Patch(h.make_spec(1, (0,), (nx - 1,)), 2)
    bc = BoundarySpec(left="outflow", right="outflow")
    sample_patch_material(p, eq, bc, (nx,))
    xs, = p.spec.cell_centers()
    pulse = np.exp(-50.0 * (xs + 2.0) ** 2)
    p.interior()[0] = pulse
    p.interior()[1] = pulse             # right-going in impedance-1 medium
    integrate_patch(p, eq, bc, (nx,), 3.2, limiter="MC")
    pr = p.interior()[0]
    reflected = float(np.max(np.abs(pr[xs < -0.3])))
    transmitted = float(np.max(np.abs(pr[xs > 0.3])))
    err_r = abs(reflected - 1.0 / 3.0) * 3.0
    err_t = abs(transmitted - 4.0 / 3.0) * 0.75
    assert err_r <= 0.02, f"reflected {reflected:.4f} off by {err_r:.2%}"
    assert err_t <= 0.02, f"transmitted {transmitted:.4f} off by {err_t:.2%}"
    report(2, "interface physics",
           f"reflected {reflected:.4f} (err {err_r:.2%}), "
           f"transmitted {transmitted:.4f} (err {err_t:.2%})")


# ---------------------------------------------------------------------------
# 3. AMR refine-everywhere equivalence


def amr_vs_uniform_1d():
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(x), lambda x: np.ones_like(x)))
    ctx = AmrContext(equation=eq, boundary=BoundarySpec(),
                     strategy=EverywhereFlagging(), max_patch_edge=40)
    nx = 64
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None, base_shape=(nx,), ratios=[2])
    from adjamr.amr import make_patch, regrid
    base = make_patch(h, 1, (0,), (nx - 1,), ctx, 0.0)
    h.levels = [[base]]
    xs, = base.spec.cell_centers()
    base.interior()[0] = np.exp(-200.0 * (xs - 0.5) ** 2)
    regrid(h, 2, ctx)
    for p in h.patches(2):
        fx, = p.spec.cell_centers()
        p.interior()[...] = 0.0
        p.interior()[0] = np.exp(-200.0 * (fx - 0.5) ** 2)
    dt = 0.9 * (1.0 / nx) / 2.0
    nsteps = 8
    for _ in range(nsteps):
        advance_hierarchy(h, 1, dt, ctx)

    hu = PatchHierarchy(xlim=(0.0, 1.0), ylim=None, base_shape=(2 * nx,), ratios=[])
    up = Patch(hu.make_spec(1, (0,), (2 * nx - 1,)), 2)
    sample_patch_material(up, eq, BoundarySpec(), (2 * nx,))
    fx, = up.spec.cell_centers()
    up.interior()[0] = np.exp(-200.0 * (fx - 0.5) ** 2)
    for _ in range(2 * nsteps):
        fill_ghost_physical(up, BoundarySpec(), eq, (2 * nx,))
        step_patch(up, dt / 2.0, eq, "MC")
    worst = 0.0
    for p in h.patches(2):
        sl = slice(p.spec.lo[0], p.spec.hi[0] + 1)
        worst = max(worst, float(np.max(np.abs(
            p.interior() - up.interior()[:, sl]))))
    return worst


def amr_vs_uniform_2d():
    eq = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.full_like(x, 4.0), lambda x, y: np.full_like(x, 1.0)))
    ctx = AmrContext(equation=eq, boundary=BoundarySpec(),
                     strategy=EverywhereFlagging(), max_patch_edge=24)
    nx = 24
    h = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0),
                       base_shape=(nx, nx), ratios=[2])
    from adjamr.amr import make_patch, regrid

    def ic(X, Y):
        out = np.zeros((3, *np.broadcast_shapes(X.shape, Y.shape)))
        out[0] = np.exp(-8.0 * ((X - 1.0) ** 2 + (Y - 1.0) ** 2))
        return out

    base = make_patch(h, 1, (0, 0), (nx - 1, nx - 1), ctx, 0.0)
    h.levels = [[base]]
    xs, ys = base.spec.cell_centers()
    base.interior()[...] = ic(xs[:, None], ys[None, :])
    regrid(h, 2, ctx)
    for p in h.patches(2):
        fx, fy = p.spec.cell_centers()
        p.interior()[...] = ic(fx[:, None], fy[None, :])
    dt = 0.9 * (2.0 / nx) / 2.0
    nsteps = 6
    for _ in range(nsteps):
        advance_hierarchy(h, 1, dt, ctx)

    hu = PatchHierarchy(xlim=(0.0, 2.0), ylim=(0.0, 2.0),
                        base_shape=(2 * nx, 2 * nx), ratios=[])
    up = Patch(hu.make_spec(1, (0, 0), (2 * nx - 1, 2 * nx - 1)), 3)
    sample_patch_material(up, eq, BoundarySpec(), (2 * nx, 2 * nx))
    fx, fy = up.spec.cell_centers()
    up.interior()[...] = ic(fx[:, None], fy[None, :])
    for _ in range(2 * nsteps):
        fill_ghost_physical(up, BoundarySpec(), eq, (2 * nx, 2 * nx))
        step_patch(up, dt / 2.0, eq, "MC")
    worst = 0.0
    for p in h.patches(2):
        sl = tuple(slice(l, hh + 1) for l, hh in zip(p.spec.lo, p.spec.hi))
        worst = max(worst, float(np.max(np.abs(
            p.interior() - up.interior()[(slice(None), *sl)]))))
    return worst


def test_criterion_3_amr_equivalence():
    d1 = amr_vs_uniform_1d()
    d2 = amr_vs_uniform_2d()
    assert d1 <= 1e-12, f"1D max diff {d1}"
    assert d2 <= 1e-12, f"2D max diff {d2}"
    report(3, "AMR refine-everywhere equivalence",
           f"max-abs diffs 1D {d1:.2e}, 2D {d2:.2e}")


# ---------------------------------------------------------------------------
# 4. Convergence order


CONV_1D = """
[problem]
equation = acoustics-1d
xlim = 0 1
nx = 50
t_final = 0.35
[material]
bulk = constant 1.0
density = constant 1.0
[initial]
profile = standing_mode 1
[boundary]
[output]
num_frames = 1
"""

CONV_2D = """
[problem]
equation = acoustics-2d
xlim = 0 1
ylim = 0 1
nx = 25
ny = 25
t_final = 0.3
[material]
bulk = constant 1.0
density = constant 1.0
[initial]
profile = standing_mode 1 1
[boundary]
[output]
num_frames = 1
"""


def test_criterion_4_convergence_order():
    rows1 = run_convergence(parse_config(CONV_1D), 3)
    orders1 = [r[2] for r in rows1 if r[2] is not None]
    assert min(orders1) >= 1.8, rows1
    rows2 = run_convergence(parse_config(CONV_2D), 3)
    orders2 = [r[2] for r in rows2 if r[2] is not None]
    assert min(orders2) >= 1.8, rows2
    report(4, "second-order convergence (MC)",
           f"1D orders {[f'{o:.2f}' for o in orders1]}, "
           f"2D orders {[f'{o:.2f}' for o in orders2]}")


def test_convergence_study_starting_at_t0_measures_the_elapsed_time():
    # the standing mode starts at phase 0 at t0; comparing at phase t_final
    # gave errors of 0.856 at every resolution
    rows0 = run_convergence(parse_config(CONV_1D), 3)
    rows = run_convergence(parse_config(CONV_1D.replace("t_final = 0.35",
                                                        "t0 = 0.5\nt_final = 0.85")), 3)
    assert min(r[2] for r in rows if r[2] is not None) >= 1.8, rows
    for (n, err, _), (n0, err0, _) in zip(rows, rows0, strict=True):
        assert n == n0 and err == pytest.approx(err0, rel=0.01), (rows, rows0)


# l1 errors and orders as the study gave them before it ran through run_forward
CONV_ROWS = {
    CONV_1D: [(50, "0x1.11d86dc835ddap-14", None),
              (100, "0x1.033d8ee9a1d6cp-16", "0x1.0a1efe86701bfp+1"),
              (200, "0x1.db76c49ca386cp-19", "0x1.0ffe866a6f512p+1")],
    CONV_2D: [(625, "0x1.9f2a842f5e176p-11", None),
              (2500, "0x1.a7c29de648eddp-13", "0x1.f86ec84f80a13p+0"),
              (10000, "0x1.a379e34c96ae5p-15", "0x1.01e05c8cd45b4p+1")],
}


@pytest.mark.parametrize("text", CONV_ROWS, ids=["1d", "2d"])
def test_convergence_rows_bitwise(text):
    rows = [(n, err.hex(), None if order is None else order.hex())
            for n, err, order in run_convergence(parse_config(text), 3)]
    assert rows == CONV_ROWS[text]


# ---------------------------------------------------------------------------
# 5 & 6. Flag economy and accuracy preservation on the 5.2 scenarios


@pytest.fixture(scope="module")
def timerange_economy_runs():
    cfg = load_cfg("2d-walls-timerange.cfg")
    # the stated benchmark tolerances: adjoint 0.02, difference 0.1
    cfg = replace(cfg, tolerances={"adjoint": 0.02, "difference": 0.1})
    store, _ = run_adjoint(cfg)
    adj = run_forward(cfg, strategy_name="adjoint", store=store)
    diff = run_forward(cfg, strategy_name="difference")
    return adj, diff


def test_criterion_5_flag_economy(timerange_economy_runs):
    adj, diff = timerange_economy_runs
    fine_adj = adj.timing.fine_cell_steps()
    fine_diff = diff.timing.fine_cell_steps()
    ratio = fine_adj / fine_diff
    assert ratio <= 0.60, f"adjoint fine cell-steps at {ratio:.1%} of difference"
    report(5, "flag economy (walls, time range)",
           f"fine cell-steps {fine_adj} vs {fine_diff} ({ratio:.1%} <= 60%)")


@pytest.mark.parametrize("scenario", ["2d-walls-timepoint.cfg",
                                      "2d-walls-timerange.cfg",
                                      "2d-mixed-bc.cfg"])
def test_criterion_6_accuracy_preserved(scenario):
    cfg = load_cfg(scenario)
    store, _ = run_adjoint(cfg)
    adj = run_forward(cfg, strategy_name="adjoint", store=store)
    diff = run_forward(cfg, strategy_name="difference")
    max_abs, rms = compare_gauges(diff.gauges[1], adj.gauges[1])
    assert np.all(max_abs <= 0.01), f"{scenario}: gauge max-abs {max_abs}"
    report(6, f"gauge accuracy [{scenario}]",
           "max-abs per component "
           + " ".join(f"{v:.4f}" for v in max_abs) + " <= 0.01")


# ---------------------------------------------------------------------------
# 7. Window semantics on the x-t masks


@pytest.fixture(scope="module")
def xt_masks():
    cfg = load_cfg("1d-interface.cfg")          # t_start = 18
    store, _ = run_adjoint(cfg)
    xs, times, mask_q, mask_qhat, mask_range = run_xt_map(cfg, store, 0.1)
    cfg_point = replace(cfg, t_start=20.0)
    store_p, _ = run_adjoint(cfg_point)
    _, _, _, _, mask_point = run_xt_map(cfg_point, store_p, 0.1)
    return mask_q, mask_range, mask_point


def test_criterion_7_window_strict_containment(xt_masks):
    mask_q, mask_range, mask_point = xt_masks
    assert mask_point.shape == mask_range.shape
    assert np.all(mask_range | ~mask_point), "range mask must contain point mask"
    extra = int(np.sum(mask_range & ~mask_point))
    assert extra > 0, "containment must be strict (an extra wave appears)"
    report(7, "window semantics: range strictly contains point mask",
           f"range mask = point mask + {extra} extra cells")


def test_criterion_7_window_subset_of_qnorm(xt_masks):
    # Known red: the literal same-threshold containment is not a theorem for
    # this medium.  The adjoint's dual velocity component equals Z * (dual
    # pressure), and Z = 2 for x > 0, so sup|q̂| reaches 4/3 and a thin
    # space-time sliver at the material interface has |q̂·q| >= 0.1 while
    # |q|_1 < 0.1.  The violation is resolution- and snapshot-cadence
    # independent (verified at 1000/2000 cells and dt_snap 0.0625..0.5) and
    # covers ~0.004% of the inner mask.
    mask_q, mask_range, _ = xt_masks
    stragglers = int(np.sum(mask_range & ~mask_q))
    frac = stragglers / max(int(mask_range.sum()), 1)
    assert stragglers == 0, (
        f"inner mask exceeds the q-norm mask on {stragglers} cells "
        f"({frac:.4%} of the mask); see the known-red analysis in this test")
    report(7, "window semantics: inner mask inside q-norm mask", "exact subset")


# ---------------------------------------------------------------------------
# 8. Shallow-water desk analog


def test_criterion_8_swe_desk_analog():
    cfg = load_cfg("swe-basin.cfg")
    store, _ = run_adjoint(cfg)

    dry_violations = []
    near = [0]
    far = [0]

    def on_output(t, h):
        base = h.patches(1)[0]
        sl = base.spec.interior_slices()
        wet = eqs.wet(base.aux)[sl]
        vals = inner_product_field(base, t, store, cfg.window())
        if np.any(vals[~wet] != 0.0):
            dry_violations.append(t)
        flags = vals > cfg.tolerances.get("adjoint", cfg.tolerance)
        ys = base.spec.cell_centers()[1]
        near[0] += int(flags[:, ys < 20000.0].sum())
        far[0] += int(flags[:, ys >= 20000.0].sum())

    run_forward(cfg, strategy_name="adjoint", store=store, on_output=on_output)
    assert not dry_violations, "dry cells must have exactly zero inner product"
    assert near[0] > 0
    frac = far[0] / near[0]
    assert frac <= 0.10, f"far-half flags at {frac:.1%} of near half"

    # (b) closed-basin mass conservation per step on a single level
    from adjamr.config import build_equation
    eq = build_equation(cfg)
    cfgu = replace(cfg, max_levels=1, ratios=(), output_times=(cfg.t_final,))
    masses = []

    def track(h, level, t):
        p = h.patches(1)[0]
        sl = p.spec.interior_slices()
        masses.append(float(np.sum(p.interior()[0] * eqs.wet(p.aux)[sl])
                            * p.spec.dx * p.spec.dy))

    ctx = AmrContext(equation=eq, boundary=cfg.boundary,
                     strategy=EverywhereFlagging(), limiter=cfg.limiter,
                     on_level_advanced=track)
    h = driver.init_hierarchy(cfgu, ctx)
    track(h, 1, 0.0)
    t = 0.0
    while t < cfg.t_final - 1e-9:
        dt = min(select_dt(h, cfg.courant), cfg.t_final - t)
        advance_hierarchy(h, 1, dt, ctx)
        t = h.patches(1)[0].time
    m = np.asarray(masses)
    worst = float(np.max(np.abs(np.diff(m))) / max(abs(m[0]), 1e-30))
    assert worst <= 1e-8, f"mass changed by {worst:.2e} in one step"
    report(8, "shallow-water desk analog",
           f"dry inner product exact zero, far/near flags {frac:.1%} <= 10%, "
           f"mass drift {worst:.1e}/step <= 1e-8")


# ---------------------------------------------------------------------------
# 9. Riemann reconstruction property suites (1e4 random inputs each)


def rel_err(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


def transposed_flux(system, axis, q, mat):
    """transpose(A)·q̂ from the coefficient matrix A (x) or B (y) of each
    sample's material."""
    m, mu = len(q), 1 + axis
    A = np.zeros((m, m, q.shape[1]))
    if system == "swe-linear-2d":
        A[0, mu], A[mu, 0] = 1.0, mat[eqs.GRAVITY] * mat[eqs.DEPTH]
    else:
        A[0, mu], A[mu, 0] = mat[eqs.BULK], 1.0 / mat[eqs.RHO]
    return np.einsum("ji...,j...->i...", A, q)


def test_criterion_9_riemann_property_suites():
    rng = np.random.default_rng(2024)
    n = 10_000
    worst = 0.0

    # wave form: acoustics 1D / 2D (both axes), linear SWE (both axes)
    ml = acoustics_material(rng.uniform(0.1, 10, n), rng.uniform(0.1, 10, n))
    mr = acoustics_material(rng.uniform(0.1, 10, n), rng.uniform(0.1, 10, n))
    ql = rng.normal(size=(2, n))
    qr = rng.normal(size=(2, n))
    res = acoustics_rp_1d(ql, qr, ml, mr)
    worst = max(worst, rel_err(res.waves.sum(axis=0), qr - ql))
    assert np.all(np.abs(res.speeds) <= np.maximum(ml[eqs.C], mr[eqs.C]) + 1e-13)

    for axis in (0, 1):
        ql = rng.normal(size=(3, n))
        qr = rng.normal(size=(3, n))
        res = acoustics_rp_normal_2d(axis, ql, qr, ml, mr)
        worst = max(worst, rel_err(res.waves.sum(axis=0), qr - ql))
        sl = swe_material(-rng.uniform(0.5, 300, n), 0.0, 9.81)
        sr = swe_material(-rng.uniform(0.5, 300, n), 0.0, 9.81)
        res = swe_linear_rp(axis, ql, qr, sl, sr)
        worst = max(worst, rel_err(res.waves.sum(axis=0), qr - ql))
        assert np.all(np.abs(res.speeds) <= np.maximum(sl[eqs.C], sr[eqs.C]) + 1e-13)

    # f-wave form incl. material jumps: reconstruction of the flux difference
    for system, m, mats in (("acoustics-1d", 2, (ml, mr)),
                            ("acoustics-2d", 3, (ml, mr)),
                            ("swe-linear-2d", 3, None)):
        for axis in range(1 if m == 2 else 2):
            if mats is None:
                a = swe_material(-rng.uniform(0.5, 300, n), 0.0, 9.81)
                b = swe_material(-rng.uniform(0.5, 300, n), 0.0, 9.81)
            else:
                a, b = mats
            ql = rng.normal(size=(m, n))
            qr = rng.normal(size=(m, n))
            res = adjoint_fwave_rp(system, axis, ql, qr, a, b)
            df = transposed_flux(system, axis, qr, b) - transposed_flux(system, axis, ql, a)
            worst = max(worst, rel_err(res.waves.sum(axis=0), df))
            worst = max(worst, rel_err(res.fluct_minus + res.fluct_plus, df))

    assert worst <= 1e-12, f"worst relative reconstruction error {worst:.2e}"
    report(9, "Riemann property suites",
           f"worst reconstruction error {worst:.2e} over 1e4 samples/system")
