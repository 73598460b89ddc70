"""Patches, hierarchies, and interpolation primitives for block-structured grids.

Index conventions: every level has a global cell index space anchored at the
physical domain corner, with cell widths dx (and dy in 2D) equal to the base
widths divided by the accumulated refinement ratio.  A patch owns an inclusive
index box [lo, hi] in its level's index space plus `ghost_width` rings of
ghost cells.  State arrays are laid out as (m, nx_tot) in 1D and
(m, nx_tot, ny_tot) in 2D with x along axis 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OutOfRangeError(IndexError):
    """An index or physical point falls outside its valid range."""


@dataclass(frozen=True)
class PatchSpec:
    """Immutable description of one patch's place in the hierarchy."""

    level: int
    lo: tuple[int, ...]            # inclusive, in the level's global index space
    hi: tuple[int, ...]            # inclusive
    dx: float
    dy: float                      # 0.0 in 1D
    origin: tuple[float, ...]      # physical domain corner
    ghost_width: int = 2

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        for lo, hi in zip(self.lo, self.hi):
            if hi < lo:
                raise ValueError(f"hi {self.hi} < lo {self.lo}")
        if self.ghost_width < 2:
            raise ValueError("ghost_width must be >= 2 for second-order stencils")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return (self.dx,) if self.ndim == 1 else (self.dx, self.dy)

    @property
    def shape(self) -> tuple[int, ...]:
        """Interior extent per dimension."""
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def total_shape(self) -> tuple[int, ...]:
        g = 2 * self.ghost_width
        return tuple(n + g for n in self.shape)

    def interior_slices(self) -> tuple[slice, ...]:
        g = self.ghost_width
        return tuple(slice(g, g + n) for n in self.shape)

    def cell_centers(self, include_ghost: bool = False) -> tuple[np.ndarray, ...]:
        """1D arrays of cell-center coordinates per dimension."""
        g = self.ghost_width if include_ghost else 0
        out = []
        for axis, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            idx = np.arange(lo - g, hi + g + 1)
            out.append(self.origin[axis] + (idx + 0.5) * self.widths[axis])
        return tuple(out)

    def bounds(self) -> tuple[tuple[float, float], ...]:
        """Physical extent of the interior, per dimension."""
        return tuple(
            (self.origin[a] + lo * self.widths[a], self.origin[a] + (hi + 1) * self.widths[a])
            for a, (lo, hi) in enumerate(zip(self.lo, self.hi))
        )


def cell_center(spec: PatchSpec, i: int, j: int | None = None) -> tuple[float, ...]:
    """Physical coordinates of cell (i[, j]), valid over interior plus ghosts."""
    g = spec.ghost_width
    idx = (i,) if spec.ndim == 1 else (i, j if j is not None else 0)
    if spec.ndim == 2 and j is None:
        raise OutOfRangeError("2D patch requires a j index")
    for a, k in enumerate(idx):
        if not (spec.lo[a] - g <= k <= spec.hi[a] + g):
            raise OutOfRangeError(
                f"index {k} outside interior+ghost range "
                f"[{spec.lo[a] - g}, {spec.hi[a] + g}] on axis {a}"
            )
    return tuple(spec.origin[a] + (k + 0.5) * spec.widths[a] for a, k in enumerate(idx))


class Patch:
    """Cell-averaged state over one patch, interior plus ghost cells.

    `aux` holds per-cell material arrays sampled by the equation set; they
    cover the same interior+ghost extent as the state.  `state_old`/`time_old`
    are snapshots kept by the multilevel driver for space-time interpolation.
    """

    def __init__(self, spec: PatchSpec, num_components: int, time: float = 0.0):
        self.spec = spec
        self.state = np.zeros((num_components, *spec.total_shape))
        self.time = float(time)
        self.aux = None
        self.state_old: np.ndarray | None = None
        self.time_old: float | None = None
        self.coarse_ghost_plan = None     # solver.CoarseGhostPlan, built on first fill

    @property
    def num_components(self) -> int:
        return self.state.shape[0]

    def interior(self) -> np.ndarray:
        """View of the interior cells."""
        return self.state[(slice(None), *self.spec.interior_slices())]

    def save_old(self):
        self.state_old = self.state.copy()
        self.time_old = self.time

    def __repr__(self):
        s = self.spec
        return f"Patch(level={s.level}, lo={s.lo}, hi={s.hi}, t={self.time:.6g})"


@dataclass
class PatchHierarchy:
    """Nested levels of non-overlapping patches over a rectangular domain."""

    xlim: tuple[float, float]
    ylim: tuple[float, float] | None            # None in 1D
    base_shape: tuple[int, ...]                 # coarse cells per dimension
    ratios: list[int] = field(default_factory=list)   # ratios[k]: level k+1 -> k+2
    levels: list[list[Patch]] = field(default_factory=list)

    @property
    def ndim(self) -> int:
        return 1 if self.ylim is None else 2

    @property
    def origin(self) -> tuple[float, ...]:
        if self.ndim == 1:
            return (self.xlim[0],)
        return (self.xlim[0], self.ylim[0])

    @property
    def max_levels(self) -> int:
        return len(self.ratios) + 1

    def ratio_to_finer(self, level: int) -> int:
        """Refinement ratio between `level` and `level + 1` (1-based levels)."""
        return self.ratios[level - 1]

    def cumulative_ratio(self, level: int) -> int:
        r = 1
        for k in range(level - 1):
            r *= self.ratios[k]
        return r

    def widths(self, level: int) -> tuple[float, ...]:
        r = self.cumulative_ratio(level)
        wx = (self.xlim[1] - self.xlim[0]) / (self.base_shape[0] * r)
        if self.ndim == 1:
            return (wx, 0.0)
        wy = (self.ylim[1] - self.ylim[0]) / (self.base_shape[1] * r)
        return (wx, wy)

    def level_shape(self, level: int) -> tuple[int, ...]:
        r = self.cumulative_ratio(level)
        return tuple(n * r for n in self.base_shape)

    def patches(self, level: int) -> list[Patch]:
        """Patches at a 1-based level (empty list when the level is absent)."""
        if level - 1 < len(self.levels):
            return self.levels[level - 1]
        return []

    def num_levels(self) -> int:
        n = 0
        for k, ps in enumerate(self.levels):
            if ps:
                n = k + 1
        return n

    def make_spec(self, level: int, lo: tuple[int, ...], hi: tuple[int, ...],
                  ghost_width: int = 2) -> PatchSpec:
        wx, wy = self.widths(level)
        return PatchSpec(level=level, lo=lo, hi=hi, dx=wx, dy=wy,
                         origin=self.origin, ghost_width=ghost_width)

    def containing_cell(self, level: int, point: tuple[float, ...]) -> tuple[int, ...]:
        """Global cell index of `point` at a level, clipped to the domain."""
        widths = self.widths(level)
        shape = self.level_shape(level)
        return tuple(
            int(np.clip(np.floor((point[a] - self.origin[a]) / widths[a]), 0, shape[a] - 1))
            for a in range(self.ndim)
        )

    def finest_patch_at(self, point: tuple[float, ...]) -> Patch | None:
        """Finest patch whose interior contains `point`; lowest index wins ties."""
        found = None
        for lev, ps in enumerate(self.levels, start=1):
            cell = self.containing_cell(lev, point)
            for p in ps:
                if all(l <= c <= h for l, c, h in zip(p.spec.lo, cell, p.spec.hi)):
                    found = p
                    break   # lowest patch index at this level
        return found


@dataclass
class UniformField:
    """m-component cell data on one uniform grid covering the whole domain."""

    values: np.ndarray                 # (m, nx) or (m, nx, ny), interior only
    origin: tuple[float, ...]
    dx: float
    dy: float                          # 0.0 in 1D
    time: float = 0.0

    @property
    def ndim(self) -> int:
        return self.values.ndim - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]

    @property
    def widths(self) -> tuple[float, ...]:
        return (self.dx,) if self.ndim == 1 else (self.dx, self.dy)

    def centers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            self.origin[a] + (np.arange(n) + 0.5) * self.widths[a]
            for a, n in enumerate(self.shape)
        )

    def domain_hi(self) -> tuple[float, ...]:
        return tuple(self.origin[a] + n * self.widths[a] for a, n in enumerate(self.shape))


def _axis_weights(coord: np.ndarray, origin: float, width: float, n: int):
    """Lower stencil index and weight for clamped linear interpolation."""
    s = (coord - origin) / width - 0.5
    i0 = np.floor(s).astype(int)
    w = s - i0
    # clamp to the outermost cell-center interval: nearest-edge extension
    below = i0 < 0
    above = i0 > n - 2
    i0 = np.clip(i0, 0, max(n - 2, 0))
    w = np.where(below, 0.0, np.where(above, 1.0, w))
    if n == 1:
        w = np.zeros_like(w)
    return i0, w


@dataclass(frozen=True)
class Stencil:
    """Clamped bi/linear interpolation weights for one set of sample points.

    `flat` holds the corner indices into the data viewed as (m, cells): two
    corners (lower, upper) in 1D, four (00, 10, 01, 11) in 2D.  `cx`/`cy` are
    1 - `wx`/`wy`.  Weights and indices share the points' shape, or broadcast
    to it when the points are a product of 1-D axes.  One stencil applies to
    every array of the shape it was built for.
    """

    flat: tuple[np.ndarray, ...]
    wx: np.ndarray
    cx: np.ndarray
    wy: np.ndarray | None = None
    cy: np.ndarray | None = None


def build_stencil(x: np.ndarray, y: np.ndarray | None, lo_phys: tuple[float, ...],
                  widths: tuple[float, ...], n: tuple[int, ...],
                  total_shape: tuple[int, ...] | None = None,
                  offset: int = 0) -> Stencil:
    """Stencil sampling `n` cells whose first cell starts at `lo_phys`.

    Those cells sit `offset` cells into every axis of data whose per-axis
    extent is `total_shape` (default `n`), so a stencil can read a patch's
    interior without copying it out of the ghosted array.
    """
    total_shape = n if total_shape is None else total_shape
    i0, wx = _axis_weights(np.asarray(x, dtype=float), lo_phys[0], widths[0], n[0])
    i1 = np.minimum(i0 + 1, n[0] - 1)
    if len(n) == 1:
        return Stencil(flat=(i0 + offset, i1 + offset), wx=wx, cx=1.0 - wx)
    j0, wy = _axis_weights(np.asarray(y, dtype=float), lo_phys[1], widths[1], n[1])
    j1 = np.minimum(j0 + 1, n[1] - 1)
    r0 = (i0 + offset) * total_shape[1] + offset
    r1 = (i1 + offset) * total_shape[1] + offset
    return Stencil(flat=(r0 + j0, r1 + j0, r0 + j1, r1 + j1),
                   wx=wx, cx=1.0 - wx, wy=wy, cy=1.0 - wy)


def apply_stencil(stencil: Stencil, data: np.ndarray) -> np.ndarray:
    """Interpolated values, shape (m, *points); data is (m, *total_shape)."""
    # in place, but in the operation order of  v00*cx*cy + v10*wx*cy + ...
    v = data.reshape(data.shape[0], -1)
    s = stencil
    weights = (((s.cx,), (s.wx,)) if s.wy is None
               else ((s.cx, s.cy), (s.wx, s.cy), (s.cx, s.wy), (s.wx, s.wy)))
    out = None
    for flat, ws in zip(s.flat, weights):
        term = v.take(flat, axis=1).astype(float, copy=False)
        for w in ws:
            term *= w
        if out is None:
            out = term
        else:
            out += term
    return out


def field_stencil(field: UniformField, x: np.ndarray,
                  y: np.ndarray | None = None) -> Stencil:
    """Stencil over a uniform field's grid; points must lie in its domain."""
    x = np.asarray(x, dtype=float)
    lo = field.origin
    hi = field.domain_hi()
    eps = 1e-12 * max(abs(hi[0] - lo[0]), 1.0)
    if np.any(x < lo[0] - eps) or np.any(x > hi[0] + eps):
        raise OutOfRangeError("interpolation point outside domain in x")
    if field.ndim == 2:
        y = np.asarray(y, dtype=float)
        if np.any(y < lo[1] - eps) or np.any(y > hi[1] + eps):
            raise OutOfRangeError("interpolation point outside domain in y")
    return build_stencil(x, y, lo, field.widths, field.shape)


def interpolate_uniform(field: UniformField, x: np.ndarray,
                        y: np.ndarray | None = None) -> np.ndarray:
    """Vectorized clamped bi/linear interpolation of a UniformField.

    Returns an array of shape (m, *x.shape).  Points must lie inside the
    physical domain; beyond the outermost cell centers values clamp to the
    boundary row/column.
    """
    return apply_stencil(field_stencil(field, x, y), field.values)


def bilinear_interpolate(field: UniformField, point: tuple[float, ...]) -> np.ndarray:
    """Interpolate the field at one physical point; returns an (m,) vector."""
    if field.ndim == 1:
        out = interpolate_uniform(field, np.array([point[0]]))
    else:
        out = interpolate_uniform(field, np.array([point[0]]), np.array([point[1]]))
    return out[:, 0]


def patch_stencil(spec: PatchSpec, x: np.ndarray, y: np.ndarray | None = None,
                  interior_only: bool = False) -> Stencil:
    """Stencil over one patch's state array (interior plus ghosts)."""
    g = 0 if interior_only else spec.ghost_width
    lo_phys = tuple(spec.origin[a] + (spec.lo[a] - g) * spec.widths[a]
                    for a in range(spec.ndim))
    n = tuple(s + 2 * g for s in spec.shape)
    return build_stencil(x, y, lo_phys, spec.widths, n, spec.total_shape,
                         offset=spec.ghost_width - g)


def interpolate_patch(patch: Patch, x: np.ndarray, y: np.ndarray | None = None,
                      interior_only: bool = False) -> np.ndarray:
    """Clamped bi/linear interpolation against one patch's cell data.

    The stencil may reach into the patch's ghost cells unless `interior_only`
    is set, in which case it clamps at the interior edge (used for gauges,
    where ghost values can be stale).
    """
    return apply_stencil(patch_stencil(patch.spec, x, y, interior_only), patch.state)


@dataclass(frozen=True)
class NestingViolation:
    level: int
    patch_index: int
    cells: tuple[tuple[int, ...], ...]   # offending coarse cells (parent index space)

    def __str__(self):
        return (f"level {self.level} patch {self.patch_index}: "
                f"{len(self.cells)} coarse cells outside the buffered parent union")


def _level_mask(hierarchy: PatchHierarchy, level: int) -> np.ndarray:
    """Boolean occupancy of a level over its global index space."""
    shape = hierarchy.level_shape(level)
    mask = np.zeros(shape, dtype=bool)
    for p in hierarchy.patches(level):
        sl = tuple(slice(lo, hi + 1) for lo, hi in zip(p.spec.lo, p.spec.hi))
        mask[sl] = True
    return mask


def _erode(mask: np.ndarray, pad_edges: bool = True) -> np.ndarray:
    """Box erosion by one cell; domain edges count as inside when padded."""
    padded = np.pad(mask, 1, mode="edge" if pad_edges else "constant")
    out = np.ones_like(mask)
    for shifts in np.ndindex(*(3,) * mask.ndim):
        sl = tuple(slice(s, s + n) for s, n in zip(shifts, mask.shape))
        out &= padded[sl]
    return out


def allowed_region_mask(hierarchy: PatchHierarchy, parent_level: int) -> np.ndarray:
    """Cells of `parent_level` a child patch may cover under proper nesting.

    The union of parent patches eroded by one cell, except that physical
    domain boundaries need no buffer.
    """
    mask = _level_mask(hierarchy, parent_level)
    return _erode(mask, pad_edges=True)


def enforce_nesting(hierarchy: PatchHierarchy) -> list[NestingViolation]:
    """Check proper nesting of every refined level; empty list means valid."""
    violations = []
    for level in range(2, hierarchy.num_levels() + 1):
        allowed = allowed_region_mask(hierarchy, level - 1)
        ratio = hierarchy.ratio_to_finer(level - 1)
        for idx, p in enumerate(sorted(hierarchy.patches(level),
                                       key=lambda q: (q.spec.lo, q.spec.hi))):
            clo = tuple(l // ratio for l in p.spec.lo)
            chi = tuple(h // ratio for h in p.spec.hi)
            sl = tuple(slice(l, h + 1) for l, h in zip(clo, chi))
            bad = ~allowed[sl]
            if bad.any():
                cells = tuple(
                    tuple(int(c) + o for c, o in zip(cell, clo))
                    for cell in zip(*np.nonzero(bad))
                )
                violations.append(NestingViolation(level, idx, cells))
    return violations

