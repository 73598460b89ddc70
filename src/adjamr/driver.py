"""End-to-end runs: adjoint pass, forward AMR pass, comparisons, studies.

Wires a RunConfig into the equation/solver/amr/adjoint machinery, records
gauges and timing, and writes the plain-text outputs the CLI promises.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import adjoint as adj
from .amr import (AmrContext, DifferenceFlagging, EverywhereFlagging,
                  SurfaceFlagging, advance_hierarchy, make_patch, regrid)
from .adjoint import AdjointFlagging, AdjointSnapshotStore, ConfigurationError
from .config import (RunConfig, build_equation, build_initial,
                     standing_mode_solution)
from .geometry import PatchHierarchy, apply_stencil, field_stencil
from .runio import (GaugeSeries, TimingReport, record_gauge, save_store,
                    write_gauge, write_snapshot, write_timing)
from .solver import select_dt


class UnsupportedConfigError(RuntimeError):
    """The requested study needs features this configuration lacks."""


@dataclass
class ForwardResult:
    hierarchy: PatchHierarchy
    gauges: dict
    timing: TimingReport
    output_times: list = field(default_factory=list)
    snapshot_paths: list = field(default_factory=list)


def make_strategy(cfg: RunConfig, name: str | None = None,
                  store: AdjointSnapshotStore | None = None):
    name = name or cfg.strategy
    tol = cfg.tolerances.get(name, cfg.tolerance)
    if name == "difference":
        return DifferenceFlagging(tol)
    if name == "surface":
        return SurfaceFlagging(tol)
    if name == "everywhere":
        return EverywhereFlagging()
    if name == "adjoint":
        if store is None:
            raise ConfigurationError(
                "adjoint flagging requested but no snapshot store was provided")
        return AdjointFlagging(store, cfg.window(), tol)
    raise ValueError(f"unknown strategy {name!r}")


def init_hierarchy(cfg: RunConfig, ctx: AmrContext) -> PatchHierarchy:
    """Base grid plus initial refinement, all levels seeded from the IC."""
    h = PatchHierarchy(xlim=cfg.xlim, ylim=cfg.ylim,
                       base_shape=cfg.base_shape, ratios=list(cfg.ratios))
    base = make_patch(h, 1, (0,) * cfg.ndim,
                      tuple(n - 1 for n in cfg.base_shape), ctx, time=cfg.t0)
    h.levels = [[base]]
    ic = build_initial(cfg)
    _apply_ic(base, ic)
    for level in range(2, cfg.max_levels + 1):
        regrid(h, level, ctx, deepest=level)
        for p in h.patches(level):
            _apply_ic(p, ic)
        if not h.patches(level):
            break
    return h


def _apply_ic(patch, ic):
    cs = patch.spec.cell_centers()
    if patch.spec.ndim == 1:
        patch.interior()[...] = ic(cs[0])
    else:
        X, Y = np.meshgrid(cs[0], cs[1], indexing="ij")
        patch.interior()[...] = ic(X, Y)


def run_adjoint(cfg: RunConfig, out_dir: str | None = None, log=None):
    """Solve the reversed adjoint problem; optionally persist the store."""
    if cfg.functional is None:
        raise ConfigurationError("configuration has no [functional] section")
    equation = build_equation(cfg)
    t0 = _time.perf_counter()
    store = adj.solve_adjoint(
        equation, cfg.boundary, cfg.functional, cfg.window(),
        cfg.xlim, cfg.ylim, cfg.adjoint_shape or cfg.base_shape,
        t0=cfg.t0, dt_snap=cfg.snapshot_dt,
        courant_target=cfg.courant, limiter=cfg.limiter, log=log)
    wall = _time.perf_counter() - t0
    if out_dir is not None:
        save_store(store, os.path.join(out_dir, "adjoint"))
    return store, wall


def run_forward(cfg: RunConfig, strategy_name: str | None = None,
                store: AdjointSnapshotStore | None = None,
                out_dir: str | None = None, on_output=None,
                adjoint_wall: float = 0.0) -> ForwardResult:
    """Forward AMR run with the chosen flagging strategy."""
    equation = build_equation(cfg)
    strategy = make_strategy(cfg, strategy_name, store)
    gauges = {g.gauge_id: GaugeSeries(gauge_id=g.gauge_id, location=g.location)
              for g in cfg.gauges}

    def on_level_advanced(h, level, t):
        for series in gauges.values():
            p = h.finest_patch_at(series.location)
            if p is not None and p.spec.level == level:
                record_gauge(h, series, t)

    ctx = AmrContext(equation=equation, boundary=cfg.boundary,
                     strategy=strategy, limiter=cfg.limiter,
                     regions=cfg.regions, regrid_interval=cfg.regrid_interval,
                     buffer_cells=cfg.buffer_cells, efficiency=cfg.efficiency,
                     max_patch_edge=cfg.max_patch_edge,
                     on_level_advanced=on_level_advanced if gauges else None)
    h = init_hierarchy(cfg, ctx)
    for series in gauges.values():
        record_gauge(h, series, cfg.t0)

    snap_dir = None
    if out_dir is not None:
        snap_dir = os.path.join(out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "gauges"), exist_ok=True)

    result = ForwardResult(hierarchy=h, gauges=gauges,
                           timing=TimingReport(adjoint_wall_seconds=adjoint_wall))
    pending = sorted(cfg.output_times)
    eps = 1e-9 * max(abs(cfg.t_final), 1.0)
    index_lines = []

    def emit_outputs(t):
        while pending and pending[0] <= t + eps:
            t_out = pending.pop(0)
            result.output_times.append(t_out)
            if on_output is not None:
                on_output(t_out, h)
            if snap_dir is not None:
                name = f"snap_{len(index_lines):04d}.txt"
                write_snapshot(h, os.path.join(snap_dir, name))
                index_lines.append(f"{name} {float(t_out):.17g}")
                result.snapshot_paths.append(os.path.join(snap_dir, name))

    wall0 = _time.perf_counter()
    emit_outputs(cfg.t0)
    t = cfg.t0
    while t < cfg.t_final - eps:
        dt = cfg.dt_fixed or select_dt(h, equation, cfg.courant, cfg.dt_max)
        dt = min(dt, cfg.t_final - t)
        if pending:
            dt = min(dt, max(pending[0] - t, eps))
        advance_hierarchy(h, 1, dt, ctx)
        t = h.patches(1)[0].time
        emit_outputs(t)
    result.timing.forward_wall_seconds = _time.perf_counter() - wall0
    result.timing.cell_steps = dict(ctx.cell_steps)
    result.timing.flagged_per_regrid = list(ctx.flagged_per_regrid)

    if out_dir is not None:
        with open(os.path.join(snap_dir, "index.txt"), "w") as f:
            f.write("\n".join(index_lines) + "\n")
        for gid, series in gauges.items():
            write_gauge(series, os.path.join(out_dir, "gauges", f"gauge_{gid}.csv"))
        write_timing(result.timing, os.path.join(out_dir, "timing.txt"))
    return result


def run_convergence(cfg: RunConfig, levels_of_resolution: int):
    """Uniform-grid resolution study against the exact standing mode.

    Returns rows of (n_cells, l1_error, observed_order_or_None).
    """
    exact = standing_mode_solution(cfg)
    if exact is None:
        raise UnsupportedConfigError(
            "convergence study needs a constant-coefficient standing_mode config")
    from dataclasses import replace
    rows = []
    prev_err = None
    for k in range(levels_of_resolution):
        scale = 2 ** k
        sub = replace(cfg, nx=cfg.nx * scale,
                      ny=None if cfg.ny is None else cfg.ny * scale,
                      max_levels=1, ratios=(), output_times=(cfg.t_final,))
        ctx = AmrContext(equation=build_equation(sub), boundary=sub.boundary,
                         strategy=EverywhereFlagging(), limiter=sub.limiter)
        h = init_hierarchy(sub, ctx)
        from .solver import integrate_patch
        patch = h.patches(1)[0]
        integrate_patch(patch, ctx.equation, sub.boundary, sub.base_shape,
                        sub.t_final, courant_target=sub.courant,
                        limiter=sub.limiter, dt_fixed=sub.dt_fixed)
        cs = patch.spec.cell_centers()
        if sub.ndim == 1:
            ref = exact(cs[0], sub.t_final)
            vol = patch.spec.dx
        else:
            X, Y = np.meshgrid(cs[0], cs[1], indexing="ij")
            ref = exact(X, sub.t_final, Y)
            vol = patch.spec.dx * patch.spec.dy
        err = float(np.sum(np.abs(patch.interior()[0] - ref[0])) * vol)
        order = None if prev_err is None else float(np.log2(prev_err / err))
        rows.append((int(np.prod(sub.base_shape)), err, order))
        prev_err = err
    return rows


def run_xt_map(cfg: RunConfig, store: AdjointSnapshotStore, threshold: float):
    """Space-time masks |q|_1 >= v, windowed |q̂|_1 >= v, windowed |q̂·q| >= v.

    Runs the 1D problem on its coarse grid without refinement, sampling every
    step.  Returns (x_centers, times, mask_q, mask_qhat, mask_inner).
    """
    if cfg.ndim != 1:
        raise UnsupportedConfigError("the x-t map is defined for 1D configs only")
    equation = build_equation(cfg)
    ctx = AmrContext(equation=equation, boundary=cfg.boundary,
                     strategy=EverywhereFlagging(), limiter=cfg.limiter)
    from dataclasses import replace
    sub = replace(cfg, max_levels=1, ratios=())
    h = init_hierarchy(sub, ctx)
    patch = h.patches(1)[0]
    xs, = patch.spec.cell_centers()
    window = cfg.window()
    stencil = field_stencil(store.grid, xs)

    times = []
    mq, mqh, mi = [], [], []

    def sample(p):
        t = p.time
        q = p.interior()
        times.append(t)
        mq.append(np.sum(np.abs(q), axis=0) >= threshold)
        idxs = adj.query_window_times(t, window, store)
        qhat_norm = np.zeros(xs.shape)
        inner = np.zeros(xs.shape)
        for n in idxs:
            qhat = apply_stencil(stencil, store.fields[n].values)
            qhat_norm = np.maximum(qhat_norm, np.sum(np.abs(qhat), axis=0))
            inner = np.maximum(inner, np.abs(np.sum(qhat * q, axis=0)))
        mqh.append(qhat_norm >= threshold)
        mi.append(inner >= threshold)

    from .solver import integrate_patch
    sample(patch)
    integrate_patch(patch, equation, cfg.boundary, sub.base_shape, cfg.t_final,
                    courant_target=cfg.courant, limiter=cfg.limiter,
                    dt_fixed=cfg.dt_fixed, on_step=sample)
    return xs, np.asarray(times), np.asarray(mq), np.asarray(mqh), np.asarray(mi)


def write_xt_table(path: str, xs, times, mask):
    with open(path, "w") as f:
        f.write("# x: " + " ".join(format(v, ".17g") for v in xs) + "\n")
        for t, row in zip(times, mask):
            f.write(format(t, ".17g") + " " + " ".join("1" if b else "0" for b in row) + "\n")


def read_xt_table(path: str):
    xs = None
    times = []
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("# x:"):
                xs = np.array([float(v) for v in line[4:].split()])
                continue
            toks = line.split()
            if not toks:
                continue
            times.append(float(toks[0]))
            rows.append([tok == "1" for tok in toks[1:]])
    return xs, np.asarray(times), np.asarray(rows, dtype=bool)
