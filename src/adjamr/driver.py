"""End-to-end runs: adjoint pass, forward AMR pass, comparisons, studies.

Wires a RunConfig into the equation/solver/amr/adjoint machinery, records
gauges and timing, and writes the plain-text outputs the CLI promises.
"""

from __future__ import annotations

import math
import os
import time as _time
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import chain, groupby

import numpy as np

from . import adjoint as adj
from .amr import (AmrContext, DifferenceFlagging, EverywhereFlagging,
                  SurfaceFlagging, advance_hierarchy, make_patch, regrid)
from .adjoint import AdjointFlagging, AdjointSnapshotStore, ConfigurationError
from .config import (ConfigError, RunConfig, build_equation, build_initial,
                     standing_mode_solution)
from .geometry import PatchHierarchy, field_stencil
from .runio import (CHUNK_BYTES, GaugeSeries, TableFormatError, TimingReport,
                    format_rows, read_lines, read_rows, record_gauge, save_store,
                    write_gauge, write_snapshot, write_timing)
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
        err = float(np.sum(np.abs(patch.interior()[0] - ref)) * vol)
        order = None if prev_err is None else float(np.log2(prev_err / err))
        rows.append((int(np.prod(sub.base_shape)), err, order))
        prev_err = err
    return rows


def check_xt_threshold(threshold: float):
    """Refuse an x-t threshold that is not positive and finite."""
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"the x-t threshold must be positive and finite, not {threshold!r}")


def run_xt_map(cfg: RunConfig, store: AdjointSnapshotStore, threshold: float, sink=None):
    """Space-time masks |q|_1 >= v, windowed |q̂|_1 >= v, windowed |q̂·q| >= v,
    for a positive finite v.  Runs the 1D problem on its coarse grid as a
    one-level hierarchy and samples blocks of at most GATHER_VALUES state
    values.  Whenever the window changes, its |q̂|_1 and max|q̂| are reduced
    from the store a slab of snapshots at a time; |q̂·q| is evaluated, by
    `adjoint.window_max`, only where its bound max|q̂|·|q|_1 reaches v.
    Each block goes to `sink(x_centers, times, masks)`, masks a (3, rows,
    cells) bool array, and is then dropped.  With no sink the blocks are kept
    and (x_centers, times, mask_q, mask_qhat, mask_inner) returned.
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
    window, stencil = cfg.window(), field_stencil(store.grid, xs)

    kept = []
    emit = sink or (lambda xs, times, masks: kept.append((times, masks)))
    block = np.empty((max(1, adj.GATHER_VALUES // patch.interior().size),
                      *patch.interior().shape))
    stamps, done = np.empty(len(block)), [0]     # the block's times and rows

    @lru_cache(maxsize=1)        # a window lasts for many blocks
    def window_bounds(w):
        """The mask |q̂|_1 >= v and max|q̂| with slack over the snapshots w."""
        norm, top = np.zeros((2, len(xs)))
        for s in adj.window_slabs(stencil, store, w, block.shape[1:]):
            np.abs(s, out=s)
            np.maximum(norm, np.max(np.sum(s, axis=1), axis=0), out=norm)
            np.maximum(top, np.max(s, axis=(0, 1)), out=top)
        return norm >= threshold, top * (1.0 + adj.BOUND_SLACK)

    def sample_block():
        k = done[0]
        times, q, qn = stamps[:k].copy(), block[:k], np.abs(block[:k, 0])
        for c in range(1, q.shape[1]):      # |q|_1 with no temporary of the block's size
            qn += np.abs(q[:, c])
        mq, mqh, mi = masks = np.zeros((3, k, len(xs)), bool)
        mq[:] = qn >= threshold
        lo, hi = adj.query_window_times(times, window, store)
        b = 0
        for w, run in groupby(map(range, lo.tolist(), hi.tolist())):
            a, b = b, b + len(list(run))        # steps a..b-1 share window w
            mqh[a:b], top = window_bounds(w)
            # |q̂·q| <= max|q̂|·|q|_1: only pairs whose bound reaches v are evaluated
            r, x = np.divmod(np.flatnonzero(qn[a:b] * top + adj.BOUND_FLOOR >= threshold),
                             len(xs))
            r += a
            mi[r, x] = adj.window_max(stencil.subset(x), q[r, :, x].T, store, w) >= threshold
        done[0] = 0
        emit(xs, times, masks)

    def sample(p):
        stamps[done[0]], block[done[0]] = p.time, p.interior()
        done[0] += 1
        if done[0] == len(block):
            sample_block()

    sample(patch)
    ctx.on_level_advanced = lambda h, level, t: sample(patch)
    dt = cfg.dt_fixed or select_dt(h, cfg.courant, cfg.dt_max)
    march(lambda: patch.time, lambda step: advance_hierarchy(h, 1, step, ctx), cfg.t_final, dt)
    if done[0]:
        sample_block()
    if sink is None:
        return xs, np.concatenate([t for t, _ in kept]), *np.concatenate([m for _, m in kept], 1)


def xt_header(xs) -> bytes:
    """The `# x:` line of an x-t table: the cell centres at 17 digits."""
    return ("# x: " + "".join(format_rows(np.asarray(xs)[None]))).encode()


def xt_rows(times, masks) -> list:
    """The lines of a block of rows of x-t tables, one bytes per table of
    `masks` (tables, rows, cells): each row's time, then a 0/1 flag per cell."""
    width = 2 * masks.shape[2] + 1          # " 0" per cell, then the newline
    flags = np.full((*masks.shape[:2], width), ord(" "), dtype=np.uint8)
    flags[:, :, 1::2] = masks + np.uint8(ord("0"))     # stays uint8 for a bool mask
    flags[:, :, -1] = ord("\n")
    stamps = [b"%.17g" % t for t in np.asarray(times).tolist()]     # once for all tables
    return [b"".join(chain.from_iterable(zip(stamps, table))) for table in flags]


def write_xt_table(path: str, xs, times, mask):
    """`# x: ...` then one line per time: the time and a 0/1 flag per cell."""
    step = max(1, CHUNK_BYTES // (2 * len(xs) + 1))
    with open(path, "wb") as f:
        f.write(xt_header(xs))
        for c in range(0, len(times), step):
            f.writelines(xt_rows(times[c:c + step], np.asarray(mask[c:c + step])[None]))


def read_xt_table(path: str):
    lines = read_lines(path)
    if not lines or not lines[0].startswith(b"# x:"):
        raise TableFormatError(f"{path}:1: expected '# x:'")
    xs = read_rows([lines[0][4:]], len(lines[0][4:].split()), lambda j, why: (
        TableFormatError(f"{path}:1: {why}")))[0]
    times, flags = np.empty(len(lines) - 1), np.empty((len(lines) - 1, len(xs)), bool)
    step = max(1, CHUNK_BYTES // (8 * (len(xs) + 1)))     # rows converted at a time
    for c in range(0, len(lines) - 1, step):
        table = read_rows(lines[c + 1:c + 1 + step], len(xs) + 1, lambda j, why: (
            TableFormatError(f"{path}:{c + j + 2}: {why}")))
        flagged = np.isin(table[:, 1:], (0, 1)).all(axis=1)
        if not flagged.all():
            raise TableFormatError(f"{path}:{c + flagged.argmin() + 2}: flags must be 0 or 1")
        times[c:c + step], flags[c:c + step] = table[:, 0], table[:, 1:] == 1
    return xs, times, flags
