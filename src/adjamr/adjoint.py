"""Backward-in-time adjoint solves, snapshot storage, inner-product flagging.

The adjoint system (flux transpose(A)·q̂) is solved by time reversal: the
flux-negated system runs forward from the functional weight field, snapshots
are saved at uniform intervals, and each snapshot is relabeled with its
forward time t = t_final − t_reversed.  Forward-run flagging then queries the
store over the induced window tau in [t, min(t + t_final − t_start, t_final)]
and thresholds the windowed maximum of |q̂·q|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amr import AmrContext, FlaggingStrategy, advance_hierarchy, make_patch
from .equations import EquationSet, wet as wet_cells
from .geometry import (Patch, PatchHierarchy, UniformField, apply_stencil, field_stencil,
                       in_box)
from .solver import BoundarySpec, march, select_dt


# The one budget for every gather of store samples: a slab of snapshots of
# the windowed inner product or of the x-t map's window, and an x-t block's rows.
GATHER_VALUES = 1 << 15

# Slack on the envelope bound of the windowed inner product.  Evaluated,
# |q̂·q| rounds up at most some ten half-ulps: c = 1 - w, the 2d products
# and 2**d - 1 sums of a stencil sample, the m products and m - 1 sums of
# the dot product; the bound rounds down at most three.  32 eps covers that
# with room, and the smallest normal number products that underflow.
BOUND_SLACK = 2.0 ** -47       # 32 eps
BOUND_FLOOR = 2.0 ** -1022     # the smallest normal double


class ConfigurationError(RuntimeError):
    """The adjoint machinery was invoked without a required ingredient."""


class EmptyFunctionalError(ValueError):
    """The functional's region of interest misses every cell center."""


@dataclass(frozen=True)
class FunctionalSpec:
    """Region of interest and per-component weights defining J."""

    kind: str                     # 'box' or 'disk'
    bounds: tuple[float, ...]     # box: (x1,x2) or (x1,x2,y1,y2); disk: (xc,yc,r)
    weights: tuple[float, ...]    # one weight per state component

    def __post_init__(self):
        if self.kind not in ("box", "disk"):
            raise ValueError(f"unknown functional shape {self.kind!r}")
        if not all(np.isfinite(w) for w in self.weights):
            raise ValueError("functional weights must be finite")

    def indicator(self, *coords):
        """True at the points `coords` (one array per axis) inside the region."""
        if self.kind == "box":
            return in_box(coords, self.bounds)
        (x, y), (xc, yc, r) = coords, self.bounds
        return (x - xc) ** 2 + (y - yc) ** 2 <= r ** 2


@dataclass(frozen=True)
class TimeWindow:
    """Forward-time interval of interest; t_start == t_final is one instant."""

    t_start: float
    t_final: float

    def __post_init__(self):
        if self.t_start > self.t_final:
            raise ValueError("t_start must be <= t_final")

    @property
    def span(self) -> float:
        return self.t_final - self.t_start


@dataclass
class AdjointSnapshotStore:
    """Adjoint snapshots on one uniform grid, labeled by forward time.

    `stack` (nsnap, m, nx[, ny]) owns the snapshots, one per ascending entry
    of `times`.  The grid is `origin` and `widths` (dx, dy; dy = 0.0 in 1D),
    its shape that of a snapshot; `wet` is its wet mask (shallow water).
    """

    times: np.ndarray
    stack: np.ndarray
    origin: tuple[float, ...]
    widths: tuple[float, float]
    window: TimeWindow
    wet: np.ndarray | None = None

    def __post_init__(self):
        dt = np.diff(self.times)
        if len(dt) and (np.any(dt <= 0) or np.ptp(dt) > 1e-9 * max(dt[0], 1.0)):
            raise ValueError("snapshot times must be strictly increasing and uniform")

    @property
    def dt_snap(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def grid(self) -> UniformField:
        """The first snapshot as a field: the grid every snapshot shares."""
        return UniformField(self.stack[0], self.origin, *self.widths)

    @property
    def fields(self) -> list[UniformField]:
        """Each snapshot as a field whose values are a view of `stack`."""
        return [UniformField(v, self.origin, *self.widths, time=float(t))
                for v, t in zip(self.stack, self.times)]


def build_phi(functional: FunctionalSpec, origin: tuple[float, ...],
              widths: tuple[float, float], shape: tuple[int, ...]) -> UniformField:
    """Weight field: each component = weight x indicator at the cell center.

    `widths` is (dx, dy), with dy = 0.0 in 1D.
    """
    phi = UniformField(np.zeros((len(functional.weights), *shape)), origin, *widths)
    ind = functional.indicator(*np.ix_(*phi.centers()))
    if not ind.any():
        raise EmptyFunctionalError("functional region contains no cell centers")
    for k, w in enumerate(functional.weights):
        phi.values[k] = w * ind
    return phi


def solve_adjoint(equation: EquationSet, boundary: BoundarySpec,
                  functional: FunctionalSpec, window: TimeWindow,
                  domain_xlim, domain_ylim, grid_shape: tuple[int, ...],
                  t0: float = 0.0, dt_snap: float | None = None, *,
                  courant_target: float = 0.9, limiter: str = "MC",
                  log=None) -> AdjointSnapshotStore:
    """Run the reversed adjoint problem on a fixed uniform grid.

    Boundary conditions mirror the forward problem's.  Snapshots are taken
    every dt_snap (default: 1/64 of the duration, rounded to divide evenly)
    and labeled with forward times t0 .. t_final.
    """
    duration = window.t_final - t0
    if duration <= 0:
        raise ValueError("t_final must exceed t0")
    if dt_snap is None:
        dt_snap = duration / 64.0
    nsnap = max(1, round(duration / dt_snap))
    snap_times = np.linspace(0.0, duration, nsnap + 1)

    hierarchy = PatchHierarchy(xlim=tuple(domain_xlim),
                               ylim=None if domain_ylim is None else tuple(domain_ylim),
                               base_shape=tuple(grid_shape), ratios=[])
    origin, (wx, wy) = hierarchy.origin, hierarchy.widths(1)
    phi = build_phi(functional, origin, (wx, wy), grid_shape)
    if np.all(phi.values == 0.0) and log is not None:
        log("warning: functional weight field is identically zero")

    ctx = AmrContext(equation=equation.adjoint().reversed(), boundary=boundary,
                     strategy=None, limiter=limiter)    # one level: never flagged
    patch = make_patch(hierarchy, 1, (0,) * hierarchy.ndim,
                       tuple(n - 1 for n in grid_shape), ctx, time=0.0)
    hierarchy.levels = [[patch]]
    patch.interior()[...] = phi.values

    # the reversed run outputs the forward times in descending order, so
    # each snapshot goes straight to its place in the ascending stack
    stack = np.empty((len(snap_times), patch.num_components, *grid_shape))
    slots = iter(stack[::-1])

    def on_output(t):
        next(slots)[...] = patch.interior()

    march(lambda: patch.time, lambda step: advance_hierarchy(hierarchy, 1, step, ctx),
          duration, select_dt(hierarchy, courant_target), snap_times, on_output)

    times = (window.t_final - snap_times)[::-1].copy()
    wet = wet_cells(patch.aux)[patch.spec.interior_slices()] if equation.is_swe else None
    return AdjointSnapshotStore(times=times, stack=stack, origin=origin, widths=(wx, wy),
                                window=window, wet=wet)


def query_window_times(t, window: TimeWindow, store: AdjointSnapshotStore):
    """Snapshot indices covering tau in [t, min(t + span, t_final)].

    When t or the upper endpoint is not aligned with a snapshot, the nearest
    snapshot below / above is included as a bracket.  With no snapshot
    inside, the brackets alone are returned.  For an array of times the
    result is the pair of int arrays (lo, hi): time k's indices are
    range(lo[k], hi[k]), the list a scalar t gets.  A t past the window's
    own t_final lists its two brackets, below t first; its range spans them.
    """
    times, n = store.times, len(store.times)
    eps = 1e-9 * max(store.dt_snap, abs(float(times[-1])), 1.0)
    t = np.asarray(t, dtype=float)
    upper = np.minimum(t + window.span, window.t_final)
    i = np.searchsorted(times, t - eps, side="left")         # first >= t - eps
    j = np.searchsorted(times, upper + eps, side="right")    # first > upper + eps
    inside = i < j
    lo = np.where(inside, i - ((i > 0) & (times[np.minimum(i, n - 1)] > t + eps)),
                  np.maximum(np.minimum(i - 1, j), 0))
    hi = np.where(t > times[-1] + eps, lo, np.where(     # past the last snapshot: none
        inside, j + ((j < n) & (times[j - 1] < upper - eps)), np.minimum(np.maximum(i, j + 1), n)))
    if t.ndim:
        return lo, hi
    if i > j and lo < hi:           # an inverted window: its two brackets
        return [int(i) - 1, int(j)]
    return list(range(lo, hi))


def _flag_window(t, window: TimeWindow, store: AdjointSnapshotStore) -> list:
    """`query_window_times`, but none past t_final (beyond its eps): nothing there reaches J."""
    past = t > window.t_final + 1e-9 * max(store.dt_snap, abs(float(store.times[-1])), 1.0)
    return [] if past else query_window_times(t, window, store)


def _adjoint_dry_at(store: AdjointSnapshotStore, *coords):
    """True where the adjoint cell containing the point is dry (None when
    the store has no wet mask)."""
    if store.wet is None:
        return None
    g = store.grid
    return ~store.wet[tuple(np.clip(((c - o) / w).astype(int), 0, n - 1)
                            for c, o, w, n in zip(coords, g.origin, g.widths, g.shape))]


def window_slabs(stencil, store: AdjointSnapshotStore, window_idx, shape):
    """q̂ at the stencil's points over the consecutive snapshots `window_idx`,
    as slabs (snapshots, *shape) of at most GATHER_VALUES samples (one
    snapshot at least); `shape` is (m, *points)."""
    per_slab = max(1, GATHER_VALUES // max(math.prod(shape), 1))
    for k in window_idx[::per_slab]:
        slab = store.stack[k:min(k + per_slab, window_idx[-1] + 1)]
        yield apply_stencil(stencil, slab.reshape(-1, *slab.shape[2:])).reshape(len(slab), *shape)


def window_max(stencil, q, store: AdjointSnapshotStore, window_idx):
    """max over the consecutive snapshots `window_idx` of |q̂·q| at the
    stencil's points, q being (m, *points), a slab of snapshots at a time."""
    best = np.zeros(q.shape[1:])
    for qhat in window_slabs(stencil, store, window_idx, q.shape):
        qhat *= q
        np.maximum(best, np.max(np.abs(np.sum(qhat, axis=1)), axis=0), out=best)
        del qhat                 # before the next slab is gathered
    return best


def inner_product_field(patch: Patch, t: float, store: AdjointSnapshotStore,
                        window: TimeWindow):
    """Windowed max of |q̂·q| per interior cell, with wet/dry masking."""
    if store is None:
        raise ConfigurationError("adjoint flagging requires a snapshot store")
    spec = patch.spec
    coords = np.ix_(*spec.cell_centers())
    best = window_max(field_stencil(store.grid, *coords), patch.interior(), store,
                      _flag_window(t, window, store))
    best = np.where(wet_cells(patch.aux)[spec.interior_slices()], best, 0.0)
    dry = _adjoint_dry_at(store, *coords)
    if dry is not None:
        best = np.where(dry, 0.0, best)
    return best


class AdjointFlagging(FlaggingStrategy):
    """Flags `inner_product_field(...) > tolerance`, a level at a time.

    Cells dry in either grid are never evaluated.  A stencil sample is a
    convex combination of its corners, so |q̂·q| <= B = sum_c max over
    corners and window of |Q̂_c| * |q_c|; the windowed loop runs only where
    B (with BOUND_SLACK) exceeds the tolerance.
    """

    name = "adjoint"

    def __init__(self, store: AdjointSnapshotStore, window: TimeWindow,
                 tolerance: float):
        if store is None:
            raise ConfigurationError("adjoint strategy configured without a store")
        super().__init__(tolerance)
        self.store = store
        self.window = window
        self._envelope = None    # (first, last, max |Q̂| over those snapshots)

    def _live(self, lay):
        """Interior cells wet in both grids, and the stencil there (kept on the layout)."""
        memo = lay.memo.get("adjoint")
        if memo is None or memo[0] is not self.store:
            coords = lay.centers()
            live = wet_cells(lay.aux).reshape(-1)[lay.interior_cells[0]]
            dry = _adjoint_dry_at(self.store, *coords)
            live = np.flatnonzero(live if dry is None else live & ~dry)
            memo = lay.memo["adjoint"] = (
                self.store, live, field_stencil(self.store.grid, *(c[live] for c in coords)))
        return memo[1:]

    def evaluate(self, lay, t):
        flags = np.zeros(len(lay.interior_cells[0]), dtype=bool)
        window_idx = _flag_window(t, self.window, self.store)
        if not window_idx:
            return flags
        live, stencil = self._live(lay)
        q = lay.flat[:, lay.interior_cells[0][live]]
        first, last = window_idx[0], window_idx[-1]
        env = self._envelope
        if env is None or env[:2] != (first, last):     # levels flagged at one t share it
            env = self._envelope = (first, last, np.abs(self.store.stack[first]))
            for snap in self.store.stack[first + 1:last + 1]:   # a snapshot at a time
                np.maximum(env[2], np.abs(snap), out=env[2])
        env = env[2].reshape(len(env[2]), -1)
        corner = np.max([env.take(f, axis=1) for f in stencil.flat], axis=0)
        bound = np.sum(corner * np.abs(q), axis=0)
        keep = np.flatnonzero(bound * (1.0 + BOUND_SLACK) + BOUND_FLOOR > self.tolerance)
        values = window_max(stencil.subset(keep), q[:, keep], self.store, window_idx)
        flags[live[keep]] = values > self.tolerance
        return flags


def evaluate_J(hierarchy: PatchHierarchy, store: AdjointSnapshotStore, t: float) -> float:
    """J(t) = sum of q̂(t)·q(t) times the cell area over the finest cells.

    Coarse cells that a finer level covers are skipped.  q̂(t) blends the
    two snapshots that bracket t linearly in time (the first or the last
    snapshot alone outside them).  Each layout among a level's patches is
    read through one stencil over the adjoint grid at its interior centers.
    """
    times = store.times
    eps = 1e-9 * max(abs(times[-1]), 1.0)
    n, blend = (0 if t <= times[0] + eps else len(times) - 1), (1.0,)
    if times[0] + eps < t < times[-1] - eps:
        n = int(np.searchsorted(times, t)) - 1
        w = (t - times[n]) / (times[n + 1] - times[n])
        blend = (1 - w, w)
    snaps = store.stack[n:n + len(blend)].reshape(-1, *store.stack.shape[2:])
    total = 0.0
    for level in range(1, hierarchy.num_levels() + 1):
        area = math.prod(hierarchy.widths(level)[:hierarchy.ndim])
        covered = np.zeros(hierarchy.level_shape(level), dtype=bool)
        for p in hierarchy.patches(level + 1):      # a coarse cell any finer cell covers
            r = hierarchy.ratio_to_finer(level)
            covered[tuple(slice(l // r, h // r + 1) for l, h in zip(p.spec.lo, p.spec.hi))] = True
        for lay in dict.fromkeys(p.layout for p in hierarchy.patches(level)):
            flat, idx = lay.interior_cells
            keep = np.flatnonzero(~covered[idx])
            stencil = field_stencil(store.grid, *(c[keep] for c in lay.centers()))
            qhat = apply_stencil(stencil, snaps).reshape(len(blend), store.stack.shape[1], -1)
            qhat = sum(b * q for b, q in zip(blend, qhat))
            total += float(np.sum(np.sum(qhat * lay.flat[:, flat[keep]], axis=0)) * area)
    return total
