"""Patches, hierarchies, and interpolation primitives for block-structured grids.

Index conventions: every level has a global cell index space anchored at the
physical domain corner, with cell widths dx (and dy in 2D) equal to the base
widths divided by the accumulated refinement ratio.  A patch owns an inclusive
index box [lo, hi] in its level's index space plus `ghost_width` rings of
ghost cells.  State arrays are laid out as (m, nx_tot) in 1D and
(m, nx_tot, ny_tot) in 2D with x along axis 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

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
    ghost_width: ClassVar[int] = 2   # enough for the second-order stencils

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        for lo, hi in zip(self.lo, self.hi):
            if hi < lo:
                raise ValueError(f"hi {self.hi} < lo {self.lo}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return (self.dx, self.dy)[:self.ndim]

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

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """1D arrays of interior cell-center coordinates per dimension."""
        return tuple(o + (np.arange(lo, hi + 1) + 0.5) * w
                     for o, lo, hi, w in zip(self.origin, self.lo, self.hi, self.widths))


class Patch:
    """One box of a level: its spec and its place (`layout`, `index`) in the
    `solver.LevelLayout` that owns the level's data.  `state` (m, *cells),
    `state_old` and the material `aux` (rows, *cells) are read-only views of
    the box, ghosts included, made on access (None until the level has one);
    `time` and `time_old` are the level's.  `Patch(spec, m, time)` is a free
    patch: a one-patch level of its own, with zero state.
    """

    __slots__ = ("spec", "layout", "index")

    def __init__(self, spec: PatchSpec, num_components: int, time: float = 0.0):
        from .solver import LevelLayout     # solver builds on this module
        self.spec, self.layout, self.index = spec, LevelLayout([spec], num_components, time), 0

    @classmethod
    def view(cls, layout, index: int) -> "Patch":
        """Box `index` of `layout`'s level."""
        p = cls.__new__(cls)
        p.spec, p.layout, p.index = layout.specs[index], layout, index
        return p

    def _box(self, packed):
        return None if packed is None else packed[(slice(None), *self.layout.boxes[self.index])]

    state = property(lambda self: self._box(self.layout.state))
    state_old = property(lambda self: self._box(self.layout.state_old))
    aux = property(lambda self: self._box(self.layout.aux))
    time = property(lambda self: self.layout.time)
    time_old = property(lambda self: self.layout.time_old)
    num_components = property(lambda self: len(self.layout.state))

    def interior(self) -> np.ndarray:
        """View of the interior cells."""
        return self.state[(slice(None), *self.spec.interior_slices())]

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
        return tuple(lim[0] for lim in (self.xlim, self.ylim)[:self.ndim])

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
        if 1 <= level <= len(self.levels):
            return self.levels[level - 1]
        return []

    def num_levels(self) -> int:
        n = 0
        for k, ps in enumerate(self.levels):
            if ps:
                n = k + 1
        return n

    def make_spec(self, level: int, lo: tuple[int, ...], hi: tuple[int, ...]) -> PatchSpec:
        wx, wy = self.widths(level)
        return PatchSpec(level=level, lo=lo, hi=hi, dx=wx, dy=wy, origin=self.origin)


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
        return (self.dx, self.dy)[:self.ndim]

    def centers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            self.origin[a] + (np.arange(n) + 0.5) * self.widths[a]
            for a, n in enumerate(self.shape)
        )

    def domain_hi(self) -> tuple[float, ...]:
        return tuple(self.origin[a] + n * self.widths[a] for a, n in enumerate(self.shape))


def _axis_weights(coord: np.ndarray, origin, width: float, n):
    """Lower index and weight of clamped linear interpolation; origin and n may vary per point."""
    s = (coord - origin) / width - 0.5
    i0 = np.floor(s).astype(int)
    w = s - i0
    # clamp to the outermost cell-center interval: nearest-edge extension
    below = (i0 < 0) | (n == 1)
    above = i0 > n - 2
    i0 = np.clip(i0, 0, np.maximum(n - 2, 0))
    return i0, np.where(below, 0.0, np.where(above, 1.0, w))


@dataclass(frozen=True)
class Stencil:
    """Clamped multilinear interpolation weights for one set of sample points.

    `flat` holds the 2**ndim corner indices into the data viewed as (m,
    cells), x fastest: (lower, upper) in 1D, (00, 10, 01, 11) in 2D.  Per
    axis, `w[a]` weighs the upper corner and `c[a]` = 1 - `w[a]` the lower.
    Weights and indices share the points' shape, or broadcast to it when the
    points are a product of 1-D axes.  One stencil applies to every array of
    the shape it was built for.
    """

    flat: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    c: tuple[np.ndarray, ...]

    def subset(self, sel) -> "Stencil":
        """The stencil at the points `sel` selects (flat points only)."""
        return Stencil(*(tuple(a[sel] for a in arrays) for arrays in (self.flat, self.w, self.c)))


def build_stencil(coords, lo_phys: tuple[float, ...], widths: tuple[float, ...],
                  n: tuple[int, ...], total_shape: tuple[int, ...] | None = None,
                  offset: tuple[int, ...] | None = None) -> Stencil:
    """Stencil at the points `coords` (one array per axis) sampling `n`
    cells whose first cell starts at `lo_phys`.

    Those cells sit `offset[a]` cells into axis a of data whose per-axis
    extent is `total_shape` (default `n`), so a stencil can read a patch's
    interior without copying it out of the ghosted array.  Per axis, `lo_phys`,
    `n` and `offset` may hold a value per point: points in different patches.
    """
    total_shape = n if total_shape is None else total_shape
    strides = [math.prod(total_shape[a + 1:]) for a in range(len(n))]
    base = 0 if offset is None else sum(o * s for o, s in zip(offset, strides))
    terms, w = [], []
    for a, coord in enumerate(coords):
        i0, wa = _axis_weights(np.asarray(coord, dtype=float), lo_phys[a], widths[a], n[a])
        i1 = np.minimum(i0 + 1, n[a] - 1)
        terms.append((i0, i1) if strides[a] == 1 else (i0 * strides[a], i1 * strides[a]))
        w.append(wa)
    # corner k is the upper cell on axis a where bit a of k is set
    flat = tuple(sum((t[(k >> a) & 1] for a, t in enumerate(terms)), base)
                 for k in range(2 ** len(terms)))
    return Stencil(flat=flat, w=tuple(w), c=tuple(1.0 - wa for wa in w))


def apply_stencil(stencil: Stencil, data: np.ndarray) -> np.ndarray:
    """Interpolated values, shape (m, *points); data is (m, *total_shape)."""
    # in place, but in the operation order of  v00*c0*c1 + v10*w0*c1 + ...
    v = data.reshape(data.shape[0], -1)
    s = stencil
    out = None
    for k, flat in enumerate(s.flat):
        term = v.take(flat, axis=1).astype(float, copy=False)
        for a in range(len(s.w)):
            term *= s.w[a] if (k >> a) & 1 else s.c[a]
        if out is None:
            out = term
        else:
            out += term
    return out


def field_stencil(field: UniformField, *coords) -> Stencil:
    """Stencil over a uniform field's grid; points must lie in its domain."""
    coords = tuple(np.asarray(c, dtype=float) for c in coords)
    lo = field.origin
    hi = field.domain_hi()
    eps = 1e-12 * max(abs(hi[0] - lo[0]), 1.0)
    for a, c in enumerate(coords):
        if np.any(c < lo[a] - eps) or np.any(c > hi[a] + eps):
            raise OutOfRangeError(f"interpolation point outside domain in {'xy'[a]}")
    return build_stencil(coords, lo, field.widths, field.shape)


def interpolate_uniform(field: UniformField, *coords) -> np.ndarray:
    """Vectorized clamped multilinear interpolation of a UniformField.

    `coords` holds one array per axis (broadcastable against each other).
    Returns an array of shape (m, *points).  Points must lie inside the
    physical domain; beyond the outermost cell centers values clamp to the
    boundary row/column.
    """
    return apply_stencil(field_stencil(field, *coords), field.values)


def patch_stencil(spec: PatchSpec, *coords) -> Stencil:
    """Stencil over one patch's state array (interior plus ghosts)."""
    lo_phys = [o + (l - spec.ghost_width) * w for o, l, w in zip(spec.origin, spec.lo, spec.widths)]
    return build_stencil(coords, lo_phys, spec.widths, spec.total_shape)


def interpolate_patch(patch: Patch, *coords) -> np.ndarray:
    """Clamped multilinear interpolation against one patch's cell data,
    ghost cells included."""
    return apply_stencil(patch_stencil(patch.spec, *coords), patch.state)


def in_box(coords, bounds: tuple[float, ...]) -> np.ndarray:
    """True at the points `coords` (one array per axis, broadcastable) that
    lie in the closed box `bounds` = (lo, hi) per axis."""
    inside = True
    for c, lo, hi in zip(coords, bounds[::2], bounds[1::2]):
        inside = inside & (c >= lo) & (c <= hi)
    return inside


@dataclass(frozen=True)
class NestingViolation:
    level: int
    patch_index: int
    cells: tuple[tuple[int, ...], ...]   # offending coarse cells (parent index space)

    def __str__(self):
        return (f"level {self.level} patch {self.patch_index}: "
                f"{len(self.cells)} coarse cells outside the buffered parent union")


def level_mask(hierarchy: PatchHierarchy, level: int) -> np.ndarray:
    """Boolean occupancy of a level over its global index space."""
    shape = hierarchy.level_shape(level)
    mask = np.zeros(shape, dtype=bool)
    for p in hierarchy.patches(level):
        sl = tuple(slice(lo, hi + 1) for lo, hi in zip(p.spec.lo, p.spec.hi))
        mask[sl] = True
    return mask


def buffer_flags(flags: np.ndarray, buffer_cells: int) -> np.ndarray:
    """Dilate a flag array by a box of radius buffer_cells (clipped to it)."""
    if buffer_cells < 0:
        raise ValueError("buffer_cells must be >= 0")
    out = flags
    for axis in range(out.ndim):        # one axis at a time: a box is separable
        acc, pre = out.copy(), (slice(None),) * axis
        for s in range(1, buffer_cells + 1):
            acc[pre + (slice(None, -s),)] |= out[pre + (slice(s, None),)]
            acc[pre + (slice(s, None),)] |= out[pre + (slice(None, -s),)]
        out = acc
    return out


def allowed_region_mask(hierarchy: PatchHierarchy, parent_level: int) -> np.ndarray:
    """Cells of `parent_level` a child patch may cover under proper nesting.

    The union of parent patches eroded by one cell, as the complement of the
    one-cell dilation of its complement; domain boundaries need no buffer.
    """
    return ~buffer_flags(~level_mask(hierarchy, parent_level), 1)


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

