"""Backward-in-time adjoint solves, snapshot storage, inner-product flagging.

The adjoint system (flux transpose(A)·q̂) is solved by time reversal: the
flux-negated system runs forward from the functional weight field, snapshots
are saved at uniform intervals, and each snapshot is relabeled with its
forward time t = t_final − t_reversed.  Forward-run flagging then queries the
store over the induced window tau in [t, min(t + t_final − t_start, t_final)]
and thresholds the windowed maximum of |q̂·q|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amr import FlagField, FlaggingStrategy
from .equations import EquationSet
from .geometry import (Patch, PatchHierarchy, UniformField, apply_stencil,
                       field_stencil, interpolate_uniform)
from .solver import BoundarySpec, integrate_patch, sample_patch_material


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

    def indicator(self, x, y=None):
        if self.kind == "box":
            if y is None:
                return (x >= self.bounds[0]) & (x <= self.bounds[1])
            x1, x2, y1, y2 = self.bounds
            return (x >= x1) & (x <= x2) & (y >= y1) & (y <= y2)
        xc, yc, r = self.bounds
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
    """Uniform-grid adjoint snapshots labeled by forward time, ascending."""

    times: np.ndarray
    fields: list[UniformField]
    window: TimeWindow
    wet: np.ndarray | None = None     # adjoint-grid wet mask (shallow water)

    def __post_init__(self):
        dt = np.diff(self.times)
        if len(dt) and (np.any(dt <= 0) or np.ptp(dt) > 1e-9 * max(dt[0], 1.0)):
            raise ValueError("snapshot times must be strictly increasing and uniform")

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
    """Weight field: each component = weight x indicator at the cell center."""
    m = len(functional.weights)
    values = np.zeros((m, *shape))
    xs = origin[0] + (np.arange(shape[0]) + 0.5) * widths[0]
    if len(shape) == 1:
        ind = functional.indicator(xs)
    else:
        ys = origin[1] + (np.arange(shape[1]) + 0.5) * widths[1]
        ind = functional.indicator(xs[:, None], ys[None, :])
    if not ind.any():
        raise EmptyFunctionalError("functional region contains no cell centers")
    for k, w in enumerate(functional.weights):
        values[k] = w * ind
    return UniformField(values=values, origin=origin,
                        dx=widths[0], dy=widths[1] if len(shape) == 2 else 0.0)


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

    ndim = 1 if domain_ylim is None else 2
    origin = (domain_xlim[0],) if ndim == 1 else (domain_xlim[0], domain_ylim[0])
    wx = (domain_xlim[1] - domain_xlim[0]) / grid_shape[0]
    wy = 0.0 if ndim == 1 else (domain_ylim[1] - domain_ylim[0]) / grid_shape[1]

    phi = build_phi(functional, origin, (wx, wy), grid_shape)
    if np.all(phi.values == 0.0) and log is not None:
        log("warning: functional weight field is identically zero")

    reversed_eq = equation.adjoint().reversed()
    hierarchy = PatchHierarchy(xlim=tuple(domain_xlim),
                               ylim=None if ndim == 1 else tuple(domain_ylim),
                               base_shape=tuple(grid_shape), ratios=[])
    spec = hierarchy.make_spec(1, (0,) * ndim, tuple(n - 1 for n in grid_shape))
    patch = Patch(spec, reversed_eq.m, time=0.0)
    sample_patch_material(patch, reversed_eq, boundary, grid_shape)
    patch.interior()[...] = phi.values

    fields_rev: list[UniformField] = []

    def on_output(t_rev, p):
        fields_rev.append(UniformField(values=p.interior().copy(), origin=origin,
                                       dx=wx, dy=wy, time=t_rev))

    integrate_patch(patch, reversed_eq, boundary, grid_shape, duration,
                    courant_target=courant_target, limiter=limiter,
                    output_times=list(snap_times), on_output=on_output)

    labels = window.t_final - np.array([f.time for f in fields_rev])
    order = np.argsort(labels)
    fields = []
    for k in order:
        f = fields_rev[k]
        fields.append(UniformField(values=f.values, origin=f.origin,
                                   dx=f.dx, dy=f.dy, time=float(labels[k])))
    wet = patch.aux.wet[spec.interior_slices()].copy() if hasattr(patch.aux, "wet") else None
    return AdjointSnapshotStore(times=labels[order], fields=fields,
                                window=window, wet=wet)


def query_window_times(t: float, window: TimeWindow,
                       store: AdjointSnapshotStore) -> list[int]:
    """Snapshot indices covering tau in [t, min(t + span, t_final)].

    When t or the upper endpoint is not aligned with a snapshot, the nearest
    snapshot below / above is included as a bracket.
    """
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


def _adjoint_dry_at(store: AdjointSnapshotStore, x, y):
    """True where the adjoint cell containing the point is dry."""
    if store.wet is None:
        return None
    g = store.grid
    i = np.clip(((x - g.origin[0]) / g.dx).astype(int), 0, g.shape[0] - 1)
    j = np.clip(((y - g.origin[1]) / g.dy).astype(int), 0, g.shape[1] - 1)
    return ~store.wet[i, j]


def inner_product_field(patch: Patch, t: float, store: AdjointSnapshotStore,
                        window: TimeWindow):
    """Windowed max of |q̂·q| per interior cell, with wet/dry masking."""
    if store is None:
        raise ConfigurationError("adjoint flagging requires a snapshot store")
    spec = patch.spec
    cs = spec.cell_centers()
    if spec.ndim == 1:
        x, y = cs[0], None
    else:
        x, y = cs[0][:, None], cs[1][None, :]
    stencil = field_stencil(store.grid, x, y)     # every snapshot shares the grid
    q = patch.interior()
    best = np.zeros(spec.shape)
    for n in query_window_times(t, window, store):
        qhat = apply_stencil(stencil, store.fields[n].values)
        qhat *= q
        np.maximum(best, np.abs(np.sum(qhat, axis=0)), out=best)
    if hasattr(patch.aux, "wet"):
        best = np.where(patch.aux.wet[spec.interior_slices()], best, 0.0)
    dry = _adjoint_dry_at(store, x, y) if spec.ndim == 2 else None
    if dry is not None:
        best = np.where(dry, 0.0, best)
    return best


def inner_product_flags(patch: Patch, t: float, store: AdjointSnapshotStore,
                        window: TimeWindow, tolerance: float) -> FlagField:
    """Flag cells whose windowed inner-product magnitude exceeds tolerance."""
    values = inner_product_field(patch, t, store, window)
    return FlagField(flags=values > tolerance, lo=patch.spec.lo,
                     level=patch.spec.level, strategy_name="adjoint", time=t)


class AdjointFlagging(FlaggingStrategy):
    """Flagging strategy backed by an adjoint snapshot store."""

    name = "adjoint"

    def __init__(self, store: AdjointSnapshotStore, window: TimeWindow,
                 tolerance: float):
        if store is None:
            raise ConfigurationError("adjoint strategy configured without a store")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.store = store
        self.window = window
        self.tolerance = tolerance

    def evaluate(self, patch):
        return inner_product_flags(patch, patch.time, self.store,
                                   self.window, self.tolerance).flags


def _uncovered_mask(hierarchy: PatchHierarchy, patch: Patch) -> np.ndarray:
    """Interior cells of `patch` not covered by any finer patch."""
    spec = patch.spec
    mask = np.ones(spec.shape, dtype=bool)
    finer = hierarchy.patches(spec.level + 1)
    if not finer:
        return mask
    r = hierarchy.ratio_to_finer(spec.level)
    for fp in finer:
        lo = tuple(max(fp.spec.lo[a] // r, spec.lo[a]) for a in range(spec.ndim))
        hi = tuple(min(fp.spec.hi[a] // r, spec.hi[a]) for a in range(spec.ndim))
        if any(l > h for l, h in zip(lo, hi)):
            continue
        sl = tuple(slice(l - spec.lo[a], h - spec.lo[a] + 1)
                   for a, (l, h) in enumerate(zip(lo, hi)))
        mask[sl] = False
    return mask


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
        wx, wy = source.widths(level)
        area = wx if source.ndim == 1 else wx * wy
        for p in source.patches(level):
            keep = _uncovered_mask(source, p)
            prod = np.sum(qhat_at(p.spec.cell_centers()) * p.interior(), axis=0)
            total += float(np.sum(prod[keep]) * area)
    return total
