"""End-to-end runs: adjoint pass, forward AMR pass, comparisons, studies.

Wires a RunConfig into the equation/solver/amr/adjoint machinery, records
gauges and timing, and writes the plain-text outputs the CLI promises.
"""

from __future__ import annotations

import math
import os
import time as _time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import adjoint as adj
from .amr import (AmrContext, DifferenceFlagging, EverywhereFlagging,
                  SurfaceFlagging, advance_hierarchy, make_patch, regrid)
from .adjoint import AdjointFlagging, AdjointSnapshotStore, ConfigurationError
from .config import (ConfigError, RunConfig, build_equation, build_initial,
                     standing_mode_solution)
from .geometry import PatchHierarchy, apply_stencil, field_stencil
from .runio import (CHUNK_BYTES, GaugeSeries, TableFormatError, TextLines,
                    TimingReport, format_rows, parse_floats, read_rows, record_gauge,
                    save_store, write_gauge, write_snapshot, write_timing)
from .solver import march, select_dt


class UnsupportedConfigError(RuntimeError):
    """The requested study needs features this configuration lacks."""


@dataclass
class ForwardResult:
    hierarchy: PatchHierarchy
    gauges: dict
    timing: TimingReport
    output_times: list = field(default_factory=list)
    snapshot_paths: list = field(default_factory=list)


def _check_store(cfg: RunConfig, store: AdjointSnapshotStore):
    """Refuse a store solved for another run: its window's t_final, its grid
    origin and, to within 1e-9 of the extent, its grid's far corner must be
    the config's.  t_final and the origin round-trip exactly through the
    stored text; the solve does not depend on t_start."""
    lims, grid = (cfg.xlim, cfg.ylim)[:cfg.ndim], store.grid
    t_final, origin = float(store.window.t_final), tuple(float(o) for o in grid.origin)
    far = tuple(float(h) for h in grid.domain_hi())
    for key, have, want, same in (
            ("t_final", t_final, cfg.t_final, t_final == cfg.t_final),
            ("origin", origin, cfg.origin, origin == cfg.origin),
            ("far corner", far, tuple(hi for _, hi in lims),
             all(abs(f - hi) <= 1e-9 * (hi - lo) for f, (lo, hi) in zip(far, lims)))):
        if not same:
            raise ConfigurationError(f"the adjoint store was solved for {key} = {have}, "
                                     f"but the config has {key} = {want}")


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
        _check_store(cfg, store)
        return AdjointFlagging(store, cfg.window(), tol)
    raise ValueError(f"unknown strategy {name!r}")


def init_hierarchy(cfg: RunConfig, ctx: AmrContext) -> PatchHierarchy:
    """Base grid plus initial refinement, all levels seeded from the IC.

    A `dt_fixed` above the base grid's Courant limit is a ConfigError.
    """
    h = PatchHierarchy(xlim=cfg.xlim, ylim=cfg.ylim,
                       base_shape=cfg.base_shape, ratios=list(cfg.ratios))
    base = make_patch(h, 1, (0,) * cfg.ndim,
                      tuple(n - 1 for n in cfg.base_shape), ctx, time=cfg.t0)
    h.levels = [[base]]
    limit = select_dt(h, 1.0)
    if cfg.dt_fixed is not None and cfg.dt_fixed > limit * (1.0 + 1e-12):
        raise ConfigError(f"[solver] dt_fixed = {cfg.dt_fixed:g} exceeds {limit:g}, the "
                          f"largest step at Courant number 1 on the base grid")
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
    patch.interior()[...] = ic(*np.meshgrid(*patch.spec.cell_centers(), indexing="ij"))


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
    record = partial(record_gauge, list(gauges.values())) if gauges else None
    ctx = AmrContext(equation=equation, boundary=cfg.boundary,
                     strategy=strategy, limiter=cfg.limiter,
                     regions=cfg.regions, regrid_interval=cfg.regrid_interval,
                     buffer_cells=cfg.buffer_cells, efficiency=cfg.efficiency,
                     max_patch_edge=cfg.max_patch_edge,
                     on_level_advanced=record)
    h = init_hierarchy(cfg, ctx)
    for level in range(1, h.num_levels() + 1 if gauges else 1):
        record(h, level, cfg.t0)

    snap_dir = None
    if out_dir is not None:
        snap_dir = os.path.join(out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "gauges"), exist_ok=True)

    result = ForwardResult(hierarchy=h, gauges=gauges,
                           timing=TimingReport(adjoint_wall_seconds=adjoint_wall))
    index_lines = []

    def emit_output(t_out):
        result.output_times.append(t_out)
        if on_output is not None:
            on_output(t_out, h)
        if snap_dir is not None:
            name = f"snap_{len(index_lines):04d}.txt"
            write_snapshot(h, os.path.join(snap_dir, name))
            index_lines.append(f"{name} {float(t_out):.17g}")
            result.snapshot_paths.append(os.path.join(snap_dir, name))

    wall0 = _time.perf_counter()
    # level 1 is never rebuilt and materials are static, so one dt serves the run
    dt = cfg.dt_fixed or select_dt(h, cfg.courant, cfg.dt_max)
    march(lambda: h.patches(1)[0].time, lambda step: advance_hierarchy(h, 1, step, ctx),
          cfg.t_final, dt, cfg.output_times, emit_output)
    result.timing.forward_wall_seconds = _time.perf_counter() - wall0
    result.timing.cell_steps = dict(ctx.cell_steps)
    result.timing.max_courant = dict(ctx.max_courant)
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
    rows = []
    prev_err = None
    for k in range(levels_of_resolution):
        scale = 2 ** k
        sub = replace(cfg, nx=cfg.nx * scale,
                      ny=None if cfg.ny is None else cfg.ny * scale,
                      max_levels=1, ratios=(), output_times=())
        patch = run_forward(sub, "everywhere").hierarchy.patches(1)[0]
        ref = exact(sub.t_final - sub.t0, *np.meshgrid(*patch.spec.cell_centers(), indexing="ij"))
        vol = math.prod(patch.spec.widths)
        err = float(np.sum(np.abs(patch.interior()[0] - ref[0])) * vol)
        order = None if prev_err is None else float(np.log2(prev_err / err))
        rows.append((int(np.prod(sub.base_shape)), err, order))
        prev_err = err
    return rows


def check_xt_threshold(threshold: float):
    """Refuse an x-t threshold that is not positive and finite."""
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"the x-t threshold must be positive and finite, not {threshold!r}")


def run_xt_map(cfg: RunConfig, store: AdjointSnapshotStore, threshold: float):
    """Space-time masks |q|_1 >= v, windowed |q̂|_1 >= v, windowed |q̂·q| >= v,
    for a positive finite v.  Runs the 1D problem on its coarse grid as a
    one-level hierarchy and samples blocks of at most GATHER_VALUES state
    values; |q̂·q| is evaluated only where its bound max|q̂|·|q|_1 reaches v.
    Returns (x_centers, times, mask_q, mask_qhat, mask_inner).
    """
    check_xt_threshold(threshold)
    if cfg.ndim != 1:
        raise UnsupportedConfigError("the x-t map is defined for 1D configs only")
    _check_store(cfg, store)
    ctx = AmrContext(equation=build_equation(cfg), boundary=cfg.boundary,
                     strategy=EverywhereFlagging(), limiter=cfg.limiter)
    h = init_hierarchy(replace(cfg, max_levels=1, ratios=()), ctx)
    patch = h.patches(1)[0]
    xs, = patch.spec.cell_centers()
    window = cfg.window()
    # every snapshot is sampled on the run's grid once; a block then only
    # takes its windows' rows
    stencil = field_stencil(store.grid, xs)
    qhat = apply_stencil(stencil, store.stack.reshape(-1, store.stack.shape[-1]))
    qhat = qhat.reshape(*store.stack.shape[:2], -1)
    qhat_norm, qhat_max = np.sum(np.abs(qhat), axis=1), np.max(np.abs(qhat), axis=1)

    dt = cfg.dt_fixed or select_dt(h, cfg.courant, cfg.dt_max)
    rows = math.ceil((cfg.t_final - cfg.t0) / dt) + 1      # march's steps and t0
    times, (mq, mqh, mi) = np.empty(rows), np.zeros((3, rows, len(xs)), bool)
    block = np.empty((max(1, adj.GATHER_VALUES // patch.interior().size),
                      *patch.interior().shape))
    done = [0, 0]                # rows sampled, rows in the block
    last = [None]                # the latest window, its |q̂|_1 mask and slack max|q̂|

    def sample_block():
        n0, k = done
        q, qn = block[:k], np.sum(np.abs(block[:k]), axis=1)
        mq[n0:n0 + k] = qn >= threshold
        lo, hi = adj.query_window_times(times[n0:n0 + k], window, store)
        runs = np.flatnonzero(np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1))
        for a, b in zip(runs, [*runs[1:], k]):      # steps a..b-1 share one window
            w = slice(lo[a], hi[a])
            if last[0] != w:
                last[:] = (w, np.max(qhat_norm[w], axis=0, initial=0.0) >= threshold,
                           np.max(qhat_max[w], axis=0, initial=0.0) * (1.0 + adj.BOUND_SLACK))
            mqh[n0 + a:n0 + b] = last[1]
            # |q̂·q| <= max|q̂|·|q|_1: only pairs whose bound reaches v are evaluated
            r, x = np.divmod(np.flatnonzero(qn[a:b] * last[2] + adj.BOUND_FLOOR >= threshold),
                             len(xs))
            per = max(1, adj.GATHER_VALUES // (w.stop - w.start + 1))
            for c in range(0, len(r), per):
                rc, xc = r[c:c + per] + a, x[c:c + per]
                s = qhat[w][:, :, xc]
                inner = np.abs(s[:, 0] * q[rc, 0, xc] + s[:, 1] * q[rc, 1, xc])   # m = 2
                mi[n0 + rc, xc] = np.max(inner, axis=0, initial=0.0) >= threshold
        done[:] = n0 + k, 0

    def sample(p):
        if sum(done) == rows:
            raise RuntimeError(f"the x-t map took more than the {rows - 1} steps "
                               f"of dt = {dt!r} it was sized for")
        times[sum(done)], block[done[1]] = p.time, p.interior()
        done[1] += 1
        if done[1] == len(block):
            sample_block()

    sample(patch)
    ctx.on_level_advanced = lambda h, level, t: sample(patch)
    march(lambda: patch.time, lambda step: advance_hierarchy(h, 1, step, ctx), cfg.t_final, dt)
    sample_block()
    n = done[0]
    return xs, times[:n], mq[:n], mqh[:n], mi[:n]


def write_xt_table(path: str, xs, times, mask):
    """`# x: ...` then one line per time: the time and a 0/1 flag per cell."""
    width = 2 * len(xs) + 1                 # " 0" per cell, then the newline
    step = max(1, CHUNK_BYTES // width)
    with open(path, "wb") as f:
        f.write(("# x: " + "".join(format_rows(np.asarray(xs)[None]))).encode())
        for c in range(0, len(times), step):
            block = np.asarray(mask[c:c + step])
            flags = np.full((len(block), width), ord(" "), dtype=np.uint8)
            flags[:, 1::2] = block + ord("0")
            flags[:, -1] = ord("\n")
            buf = flags.tobytes()
            f.write(b"".join(b"%.17g%s" % (t, buf[i * width:(i + 1) * width])
                             for i, t in enumerate(times[c:c + step])))


def read_xt_table(path: str):
    text = TextLines(path)
    if not text.data.startswith(b"# x:"):
        raise TableFormatError(f"{path}:1: expected '# x:'")
    xs = parse_floats(text.data[4:text.start[1]], lambda j: TableFormatError(
        f"{path}:1: malformed number"))
    table = read_rows(text, 1, len(text.ntok), len(xs) + 1, lambda j, why: TableFormatError(
        f"{path}:{j + 1}: {why}"))
    flagged = np.isin(table[:, 1:], (0, 1)).all(axis=1)
    if not flagged.all():
        raise TableFormatError(f"{path}:{flagged.argmin() + 2}: flags must be 0 or 1")
    return xs, table[:, 0], table[:, 1:] == 1
