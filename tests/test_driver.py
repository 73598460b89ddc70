import re
from dataclasses import replace

import numpy as np
import pytest

from adjamr import adjoint as adjoint_module
from adjamr.adjoint import (GATHER_VALUES, AdjointFlagging, ConfigurationError,
                            query_window_times)
from adjamr.amr import AmrContext, EverywhereFlagging
from adjamr.config import GaugeSpec, build_equation, build_initial, parse_config
from adjamr.driver import init_hierarchy, make_strategy, run_adjoint, run_forward, run_xt_map
from adjamr.geometry import UniformField, apply_stencil, field_stencil
from adjamr.runio import compare_gauges, load_store, write_snapshot
from adjamr.solver import integrate_patch

CFG_1D = open("configs/1d-interface.cfg").read()
CFG_SWE = open("configs/swe-basin.cfg").read()

# 2d-walls-timerange in small: a ring crossing to a box watched over 1 <= t <= 3
CFG_2D_WALLS = """
[problem]
equation = acoustics-2d
xlim = -2 4
ylim = -1 5
nx = 32
ny = 32
t_final = 3

[material]
bulk = constant 4.0
density = constant 1.0

[initial]
profile = cosine_hump 1.0 0.0 1.0 0.5 0.15

[boundary]
left = wall
right = wall
bottom = wall
top = wall

[amr]
max_levels = 3
ratios = 2 2
strategy = adjoint
tolerance = 0.01

[functional]
shape = box 2.0 2.5 0.0 0.5
component = 0
weight = 2.0
t_start = 1

[output]
num_frames = 3
gauge = 1 2.25 0.25
"""


def test_adjoint_pulse_splits_left_and_right():
    # the square functional pulse splits into equal left/right-going waves;
    # shortly before t_final the adjoint shows two separated pressure bumps
    cfg = parse_config(CFG_1D)
    store, _ = run_adjoint(cfg)
    k = np.argmin(np.abs(store.times - 18.5))      # reversed time 1.5
    p = store.fields[k].values[0]
    xs = store.grid.centers()[0]
    left = p[(xs > 0.0) & (xs < 1.7)]
    right = p[(xs > 2.4) & (xs < 3.0)]
    mid = p[(xs > 1.9) & (xs < 2.2)]
    assert left.max() > 0.3 and right.max() > 0.3
    assert np.abs(mid).max() < 0.2                 # bumps have separated


def test_huge_tolerance_gives_single_level_coarse_run():
    cfg = parse_config(CFG_1D)
    cfg = replace(cfg, max_levels=3, ratios=(2, 2), tolerance=1e9,
                  tolerances={}, strategy="difference", t_final=2.0,
                  output_times=(2.0,), nx=200)
    fields = {}
    res = run_forward(cfg, on_output=lambda t, h: fields.update({t: h}))
    h = fields[2.0]
    assert h.patches(2) == [] and h.patches(3) == []
    assert res.timing.cell_steps.keys() == {1}

    coarse_cfg = replace(cfg, max_levels=1, ratios=())
    ref = {}
    run_forward(coarse_cfg, on_output=lambda t, hh: ref.update({t: hh}))
    a = h.patches(1)[0].interior()
    b = ref[2.0].patches(1)[0].interior()
    assert np.array_equal(a, b)          # refinement machinery is inert


def test_swe_adjoint_flags_fewer_than_surface():
    cfg = parse_config(CFG_SWE)
    cfg = replace(cfg, t_final=600.0, output_times=(600.0,))
    store, _ = run_adjoint(cfg)
    adj = run_forward(cfg, strategy_name="adjoint", store=store)
    surf = run_forward(cfg, strategy_name="surface")
    n_adj = sum(adj.timing.flagged_per_regrid)
    n_surf = sum(surf.timing.flagged_per_regrid)
    assert 0 < n_adj < n_surf
    assert adj.timing.fine_cell_steps() < surf.timing.fine_cell_steps()


def test_adjoint_amr_gauge_tracks_the_uniform_run_at_the_finest_width():
    # max-abs gauge differences per component were (0.00485, 0.00265, 0.00102);
    # with a coarse-fine ghost fill that drops its time blend they read
    # (0.0061, 0.0032, 0.0017), and difference flagging reads 0.0068 in p
    cfg = parse_config(CFG_2D_WALLS)
    store, _ = run_adjoint(cfg)
    amr = run_forward(cfg, "adjoint", store)
    uniform = run_forward(replace(cfg, nx=4 * cfg.nx, ny=4 * cfg.ny, max_levels=1, ratios=()),
                          "everywhere")
    max_abs, _ = compare_gauges(uniform.gauges[1], amr.gauges[1])
    assert np.all(max_abs <= [0.0053, 0.0029, 0.0011]), max_abs


def test_gauge_identical_under_duplicate_strategy():
    cfg = parse_config(CFG_1D)
    cfg = replace(cfg, t_final=4.0, nx=200, output_times=(4.0,),
                  gauges=(GaugeSpec(gauge_id=1, location=(2.0,)),))
    a = run_forward(cfg, strategy_name="difference")
    b = run_forward(cfg, strategy_name="difference")
    ta, va = a.gauges[1].as_arrays()
    tb, vb = b.gauges[1].as_arrays()
    assert np.array_equal(ta, tb) and np.array_equal(va, vb)


def test_xt_map_equals_per_step_snapshot_loop():
    # 557 rows: six blocks of 81 and a partial one
    _assert_xt_map_equals_per_step_loop(200, None, 0.1, partial=True)


@pytest.mark.parametrize("nx, dt_fixed, threshold, partial", [
    (200, None, 1e-12, True),        # the bound keeps almost every pair
    (100, 20.0 / 651, 0.1, False),   # 652 rows: four full blocks of 163, none partial
])
def test_xt_map_blocks_equal_per_step_snapshot_loop(nx, dt_fixed, threshold, partial):
    _assert_xt_map_equals_per_step_loop(nx, dt_fixed, threshold, partial)


@pytest.mark.parametrize("budget", [1, 1009])
@pytest.mark.parametrize("nx, dt_fixed, threshold, partial", [
    (200, None, 0.1, True), (200, None, 1e-12, True), (100, 20.0 / 651, 0.1, False)])
def test_xt_map_does_not_depend_on_the_gather_budget(nx, dt_fixed, threshold, partial, budget,
                                                     monkeypatch):
    # 1: blocks of one row, slabs of one snapshot; 1009 is no multiple of
    # m × cells, so blocks and slabs leave part of it unused
    monkeypatch.setattr(adjoint_module, "GATHER_VALUES", budget)
    _assert_xt_map_equals_per_step_loop(nx, dt_fixed, threshold, partial)


def _assert_xt_map_equals_per_step_loop(nx, dt_fixed, threshold, partial):
    # the x-t map samples the store a slab of window snapshots and a block
    # of steps at a time; its masks must equal a loop that samples every
    # window snapshot again at every step
    cfg = replace(parse_config(CFG_1D), nx=nx, dt_fixed=dt_fixed)
    store, _ = run_adjoint(cfg)
    xs, times, mask_q, mask_qhat, mask_inner = run_xt_map(cfg, store, threshold)
    block = GATHER_VALUES // (2 * nx)
    assert len(times) > block and (len(times) % block != 0) == partial

    sub = replace(cfg, max_levels=1, ratios=())
    eq = build_equation(cfg)
    ctx = AmrContext(equation=eq, boundary=cfg.boundary,
                     strategy=EverywhereFlagging(), limiter=cfg.limiter)
    patch = init_hierarchy(sub, ctx).patches(1)[0]
    stencil = field_stencil(store.grid, xs)
    ref_t, ref_q, ref_qhat, ref_inner = [], [], [], []

    def sample(p):
        q = p.interior()
        norm = np.zeros(xs.shape)
        inner = np.zeros(xs.shape)
        for n in query_window_times(p.time, cfg.window(), store):
            qhat = apply_stencil(stencil, store.stack[n])
            norm = np.maximum(norm, np.sum(np.abs(qhat), axis=0))
            inner = np.maximum(inner, np.abs(np.sum(qhat * q, axis=0)))
        ref_t.append(p.time)
        ref_q.append(np.sum(np.abs(q), axis=0) >= threshold)
        ref_qhat.append(norm >= threshold)
        ref_inner.append(inner >= threshold)

    sample(patch)
    integrate_patch(patch, eq, cfg.boundary, sub.base_shape, cfg.t_final,
                    courant_target=cfg.courant, limiter=cfg.limiter,
                    dt_fixed=cfg.dt_fixed, on_step=sample)
    assert np.array_equal(times, ref_t)
    assert mask_inner.any() and not mask_inner.all()
    assert np.array_equal(mask_q, ref_q)
    assert np.array_equal(mask_qhat, ref_qhat)
    assert np.array_equal(mask_inner, ref_inner)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
def test_xt_map_refuses_a_threshold_that_is_not_positive_and_finite(threshold):
    cfg = replace(parse_config(CFG_1D), nx=100)
    store, _ = run_adjoint(cfg)
    with pytest.raises(ValueError, match=re.escape(repr(threshold))):
        run_xt_map(cfg, store, threshold)


def test_xt_map_rows_honour_dt_max():
    # the CFL step on this grid is 0.072; dt_max caps every x-t row
    cfg = replace(parse_config(CFG_1D), nx=100, dt_max=0.01)
    store, _ = run_adjoint(cfg)
    times = run_xt_map(cfg, store, 0.1)[1]
    assert len(times) > 2000
    assert np.all(np.diff(times) <= 0.01 * (1 + 1e-9))


def test_table_profile_is_anchored_at_the_domain_corner(tmp_path):
    # a table written on the config's own grid, whose corner is x = -5,
    # reproduces the profile it tabulates, initially and after a run
    cfg = replace(parse_config(CFG_1D), nx=200, t_final=1.0, output_times=(1.0,))
    xs = cfg.origin[0] + (np.arange(cfg.nx) + 0.5) * (cfg.xlim[1] - cfg.xlim[0]) / cfg.nx
    path = tmp_path / "profile.txt"
    write_snapshot(UniformField(values=build_initial(cfg)(xs), origin=cfg.origin,
                                dx=(cfg.xlim[1] - cfg.xlim[0]) / cfg.nx, dy=0.0), str(path))
    table = replace(cfg, initial=("table", str(path)))
    got = {}
    for c in (cfg, table):
        run_forward(c, "difference", on_output=lambda t, h: got.setdefault(
            c.initial[0], h.patches(1)[0].interior().copy()))
    assert np.allclose(got["table"], got["gaussian"], rtol=0, atol=1e-12)
    ctx = AmrContext(equation=build_equation(table), boundary=table.boundary,
                     strategy=EverywhereFlagging())
    base = init_hierarchy(table, ctx).patches(1)[0].interior()
    assert np.allclose(base, build_initial(cfg)(xs), rtol=0, atol=1e-12)


def test_store_solved_for_another_run_is_refused(tmp_path):
    cfg = replace(parse_config(CFG_1D), nx=100, adjoint_shape=None)
    store, _ = run_adjoint(cfg, out_dir=str(tmp_path))
    loaded = load_store(str(tmp_path / "adjoint"))
    for s in (store, loaded):      # t_final and origin round-trip exactly
        assert isinstance(make_strategy(cfg, "adjoint", s), AdjointFlagging)
    for other, named in ((replace(cfg, t_final=19.5), "t_final = 20.0"),
                         (replace(cfg, xlim=(-4.0, 3.0)), "origin = (-5.0,)"),
                         (replace(cfg, xlim=(-5.0, 4.0)), "far corner = (4.0,)")):
        for run in (lambda: make_strategy(other, "adjoint", loaded),
                    lambda: run_xt_map(other, loaded, 0.1),
                    lambda: run_forward(other, "adjoint", loaded)):
            with pytest.raises(ConfigurationError, match=re.escape(named)):
                run()
