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
from .equations import EquationSet
from .geometry import (Patch, PatchHierarchy, UniformField, apply_stencil, field_stencil,
                       in_box, interpolate_uniform, level_mask)
from .solver import BoundarySpec, march, select_dt


GATHER_VALUES = 1 << 16     # most samples per gather of the windowed inner product

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
    """Uniform-grid adjoint snapshots labeled by forward time, ascending.

    Every field's values are a view of `stack`, (nsnap, m, nx[, ny]); a store
    built without it stacks the fields once and rebinds them to views.
    """

    times: np.ndarray
    fields: list[UniformField]
    window: TimeWindow
    wet: np.ndarray | None = None     # adjoint-grid wet mask (shallow water)
    stack: np.ndarray | None = None

    def __post_init__(self):
        dt = np.diff(self.times)
        if len(dt) and (np.any(dt <= 0) or np.ptp(dt) > 1e-9 * max(dt[0], 1.0)):
            raise ValueError("snapshot times must be strictly increasing and uniform")
        if self.stack is None:
            self.stack = np.stack([f.values for f in self.fields])
            for f, values in zip(self.fields, self.stack):
                f.values = values

    @property
    def dt_snap(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def grid(self) -> UniformField:
        return self.fields[0]

    def phi(self) -> UniformField:
        """The functional weight field (the snapshot labeled t_final)."""
        return self.fields[-1]

    def interpolate_time(self, t: float) -> UniformField:
        """Linear-in-time interpolation between bracketing snapshots."""
        times = self.times
        eps = 1e-9 * max(abs(times[-1]), 1.0)
        if t <= times[0] + eps:
            return self.fields[0]
        if t >= times[-1] - eps:
            return self.fields[-1]
        n = int(np.searchsorted(times, t) - 1)
        w = (t - times[n]) / (times[n + 1] - times[n])
        vals = (1 - w) * self.fields[n].values + w * self.fields[n + 1].values
        f = self.fields[n]
        return UniformField(values=vals, origin=f.origin, dx=f.dx, dy=f.dy, time=t)


def build_phi(functional: FunctionalSpec, origin: tuple[float, ...],
              widths: tuple[float, float], shape: tuple[int, ...]) -> UniformField:
    """Weight field: each component = weight x indicator at the cell center.

    `widths` is (dx, dy), with dy = 0.0 in 1D.
    """
    m = len(functional.weights)
    values = np.zeros((m, *shape))
    centers = [o + (np.arange(n) + 0.5) * w for o, w, n in zip(origin, widths, shape)]
    ind = functional.indicator(*np.ix_(*centers))
    if not ind.any():
        raise EmptyFunctionalError("functional region contains no cell centers")
    for k, w in enumerate(functional.weights):
        values[k] = w * ind
    return UniformField(values=values, origin=origin, dx=widths[0], dy=widths[1])


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
    t_rev = []

    def on_output(t):
        t_rev.append(t)
        stack[len(stack) - len(t_rev)] = patch.interior()

    march(lambda: patch.time, lambda step: advance_hierarchy(hierarchy, 1, step, ctx),
          duration, select_dt(hierarchy, ctx.equation, courant_target), snap_times, on_output)

    times = (window.t_final - np.array(t_rev))[::-1].copy()
    fields = [UniformField(values=v, origin=origin, dx=wx, dy=wy, time=float(t))
              for v, t in zip(stack, times)]
    wet = getattr(patch.aux, "wet", None)
    wet = None if wet is None else wet[patch.spec.interior_slices()].copy()
    return AdjointSnapshotStore(times=times, fields=fields, window=window, wet=wet,
                                stack=stack)


def query_window_times(t: float, window: TimeWindow,
                       store: AdjointSnapshotStore) -> list[int]:
    """Snapshot indices covering tau in [t, min(t + span, t_final)].

    When t or the upper endpoint is not aligned with a snapshot, the nearest
    snapshot below / above is included as a bracket.  With no snapshot
    inside, the brackets alone are returned.
    """
    times = store.times
    eps = 1e-9 * max(store.dt_snap, abs(float(times[-1])), 1.0)
    if t > times[-1] + eps:
        return []
    upper = min(t + window.span, window.t_final)
    i = int(np.searchsorted(times, t - eps, side="left"))        # first >= t - eps
    j = int(np.searchsorted(times, upper + eps, side="right"))   # first > upper + eps
    if i >= j:
        return [k for k in (i - 1, j) if 0 <= k < len(times)]
    return list(range(i - 1 if i > 0 and times[i] > t + eps else i,
                      j + 1 if j < len(times) and times[j - 1] < upper - eps else j))


def _adjoint_dry_at(store: AdjointSnapshotStore, *coords):
    """True where the adjoint cell containing the point is dry (None when
    the store has no wet mask)."""
    if store.wet is None:
        return None
    g = store.grid
    return ~store.wet[tuple(np.clip(((c - o) / w).astype(int), 0, n - 1)
                            for c, o, w, n in zip(coords, g.origin, g.widths, g.shape))]


def _window_max(stencil, q, store: AdjointSnapshotStore, window_idx):
    """max over the consecutive snapshots `window_idx` of |q̂·q| at the
    stencil's points, q being (m, *points); each slab of at most
    GATHER_VALUES samples is one take per stencil corner."""
    best = np.zeros(q.shape[1:])
    per_slab = max(1, GATHER_VALUES // max(q.size, 1))
    for k in window_idx[::per_slab]:
        slab = store.stack[k:min(k + per_slab, window_idx[-1] + 1)]
        qhat = apply_stencil(stencil, slab.reshape(-1, *slab.shape[2:]))
        qhat = qhat.reshape(len(slab), *q.shape)
        qhat *= q
        np.maximum(best, np.max(np.abs(np.sum(qhat, axis=1)), axis=0), out=best)
    return best


def inner_product_field(patch: Patch, t: float, store: AdjointSnapshotStore,
                        window: TimeWindow):
    """Windowed max of |q̂·q| per interior cell, with wet/dry masking."""
    if store is None:
        raise ConfigurationError("adjoint flagging requires a snapshot store")
    spec = patch.spec
    coords = np.ix_(*spec.cell_centers())
    best = _window_max(field_stencil(store.grid, *coords), patch.interior(), store,
                       query_window_times(t, window, store))
    if hasattr(patch.aux, "wet"):
        best = np.where(patch.aux.wet[spec.interior_slices()], best, 0.0)
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
        self._envelopes = {}     # level -> (first, last, max |Q̂| over those snapshots)

    def _live(self, lay):
        """Interior cells wet in both grids, and the stencil there (kept on the layout)."""
        memo = lay.memo.get("adjoint")
        if memo is None or memo[0] is not self.store:
            coords = lay.centers()
            live = np.ones(len(coords[0]), dtype=bool)
            if hasattr(lay.aux, "wet"):
                live &= lay.aux.wet.reshape(-1)[lay.interior_cells[0]]
            dry = _adjoint_dry_at(self.store, *coords)
            live = np.flatnonzero(live if dry is None else live & ~dry)
            memo = lay.memo["adjoint"] = (
                self.store, live, field_stencil(self.store.grid, *(c[live] for c in coords)))
        return memo[1:]

    def evaluate(self, lay, t):
        flags = np.zeros(len(lay.interior_cells[0]), dtype=bool)
        window_idx = query_window_times(t, self.window, self.store)
        if not window_idx:
            return flags
        live, stencil = self._live(lay)
        q = lay.flat[:, lay.interior_cells[0][live]]
        first, last = window_idx[0], window_idx[-1]
        env = self._envelopes.get(lay.level)
        if env is None or env[:2] != (first, last):     # one (m, adjoint cells) per level
            env = self._envelopes[lay.level] = (first, last, np.abs(self.store.stack[first]))
            for snap in self.store.stack[first + 1:last + 1]:   # a snapshot at a time
                np.maximum(env[2], np.abs(snap), out=env[2])
        env = env[2].reshape(len(env[2]), -1)
        corner = np.max([env.take(f, axis=1) for f in stencil.flat], axis=0)
        bound = np.sum(corner * np.abs(q), axis=0)
        keep = np.flatnonzero(bound * (1.0 + BOUND_SLACK) + BOUND_FLOOR > self.tolerance)
        values = _window_max(stencil.subset(keep), q[:, keep], self.store, window_idx)
        flags[live[keep]] = values > self.tolerance
        return flags


def evaluate_J(source, store_or_phi, t: float) -> float:
    """Discrete inner-product integral over the finest available cells.

    `source` is a UniformField or a PatchHierarchy holding the forward state
    at time t; `store_or_phi` is an AdjointSnapshotStore (time-interpolated
    to t) or a UniformField such as the functional weight field itself.
    """
    if isinstance(store_or_phi, AdjointSnapshotStore):
        qhat_field = store_or_phi.interpolate_time(t)
    else:
        qhat_field = store_or_phi

    def qhat_at(centers):
        return interpolate_uniform(qhat_field, *np.meshgrid(*centers, indexing="ij"))

    if isinstance(source, UniformField):
        total = np.sum(qhat_at(source.centers()) * source.values)
        for w in source.widths:
            total = total * w
        return float(total)

    total = 0.0
    for level in range(1, source.num_levels() + 1):
        area = math.prod(source.widths(level)[:source.ndim])
        covered = np.zeros(source.level_shape(level), dtype=bool)
        if level < source.num_levels():        # a coarse cell any finer cell covers
            r = source.ratio_to_finer(level)
            fine = level_mask(source, level + 1)
            covered = fine.reshape([k for n in covered.shape for k in (n, r)]).any(
                axis=tuple(range(1, 2 * source.ndim, 2)))
        for p in source.patches(level):
            keep = ~covered[tuple(slice(l, h + 1) for l, h in zip(p.spec.lo, p.spec.hi))]
            prod = np.sum(qhat_at(p.spec.cell_centers()) * p.interior(), axis=0)
            total += float(np.sum(prod[keep]) * area)
    return total
