"""Multilevel driver: flagging, clustering, regridding, subcycled advance.

Levels advance recursively, coarsest first.  Refinement flags are evaluated
on the parent level, buffered, clipped to the properly nested region,
clustered into rectangles with the signature-bisection scheme, and refined
into child patches.  Fine results are averaged back onto their parents after
each subcycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .equations import wet
from .geometry import Patch, PatchHierarchy, allowed_region_mask, buffer_flags, in_box
from .solver import BAND_CELLS, BoundarySpec, LevelLayout, alone, level_layout


@dataclass(frozen=True)
class ClusterBox:
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    efficiency: float

    @property
    def shape(self):
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class RefinementRegion:
    """Space-time box where refinement is required up to min_level and
    forbidden above max_level."""

    min_level: int
    max_level: int
    t1: float
    t2: float
    rect: tuple[float, ...]      # (x1, x2) or (x1, x2, y1, y2)

    def __post_init__(self):
        if self.min_level > self.max_level:
            raise ValueError("min_level must be <= max_level")

    def contains_time(self, t: float) -> bool:
        return self.t1 <= t <= self.t2


# ---------------------------------------------------------------------------
# Flagging strategies


class FlaggingStrategy:
    """Flags over a packed level's interior cells, in `interior_cells` order,
    from its packed state (ghosts filled) and material."""

    name = "base"

    def __init__(self, tolerance: float | None = None):
        if tolerance is not None and not 0.0 < tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
        self.tolerance = tolerance

    def evaluate(self, lay: LevelLayout, t: float) -> np.ndarray:
        raise NotImplementedError


class DifferenceFlagging(FlaggingStrategy):
    """Flag where any component's undivided neighbor difference exceeds tol."""

    name = "difference"

    def evaluate(self, lay, t):
        big = np.zeros(lay.interior.shape)
        for axis in range(big.ndim):        # each face's largest jump goes to both its cells
            jump = np.max(np.abs(np.diff(lay.state, axis=1 + axis)), axis=0)
            for side in (slice(None, -1), slice(1, None)):
                at = big[(slice(None),) * axis + (side,)]
                np.maximum(at, jump, out=at)
        return big.reshape(-1)[lay.interior_cells[0]] > self.tolerance


class SurfaceFlagging(FlaggingStrategy):
    """Flag wet cells whose surface perturbation from sea level exceeds tol."""

    name = "surface"

    def evaluate(self, lay, t):
        cells = lay.interior_cells[0]
        return (np.abs(lay.flat[0, cells]) > self.tolerance) & wet(lay.aux).reshape(-1)[cells]


class EverywhereFlagging(FlaggingStrategy):
    """Flag every interior cell (uniform-refinement / equivalence testing)."""

    name = "everywhere"

    def evaluate(self, lay, t):
        return np.ones(len(lay.interior_cells[0]), dtype=bool)


def level_flags(lay: LevelLayout, strategy: FlaggingStrategy, t: float,
                regions: tuple[RefinementRegion, ...] = ()) -> np.ndarray:
    """A strategy's flags on a packed level at time t, in `interior_cells`
    order.  Flags on level n propose level n+1 patches; regions then force
    flags where n+1 <= min_level, then clear them where n+1 > max_level."""
    flags = strategy.evaluate(lay, t)
    new_level = lay.level + 1
    active = [r for r in regions if r.contains_time(t)]
    centers = lay.centers() if active else None
    for r in active:
        if new_level <= r.min_level:
            flags |= in_box(centers, r.rect)
    for r in active:
        if new_level > r.max_level:
            flags &= ~in_box(centers, r.rect)
    return flags


def flag_cells(patch: Patch, strategy: FlaggingStrategy,
               regions: tuple[RefinementRegion, ...] = ()) -> np.ndarray:
    """`level_flags` on the one-patch level of a free patch, at its time,
    over the patch's interior."""
    return level_flags(alone(patch), strategy, patch.time, regions).reshape(patch.spec.shape)


# ---------------------------------------------------------------------------
# Signature-bisection clustering


def _find_split(sigs):
    """Split index for a shrunk flag box from its signature (flags per slice)
    along each axis: holes first, then Laplacian inflections, then the
    midpoint of the longest axis; among equals the first axis, then the
    first index, wins.

    Returns (kind, axis, index): 'hole' removes slice `index`, 'edge' cuts
    between `index` and `index + 1`.  None when the box is a single cell.
    """
    best_hole = None
    for axis, sig in enumerate(sigs):
        center = (len(sig) - 1) / 2.0
        zeros = [k for k, v in enumerate(sig) if not v]
        if zeros:
            k = min(zeros, key=lambda k: abs(k - center))
            score = abs(k - center) / len(sig)
            if best_hole is None or score < best_hole[0]:
                best_hole = (score, axis, k)
    if best_hole is not None:
        return ("hole", best_hole[1], best_hole[2])

    best_edge = None
    for axis, sig in enumerate(sigs):
        n = len(sig)
        if n < 4:
            continue
        lap = [a - 2 * b + c for a, b, c in zip(sig, sig[1:], sig[2:])]   # lap[k] at slice k+1
        center = (n - 1) / 2.0
        for k, (l0, l1) in enumerate(zip(lap, lap[1:])):
            if l0 * l1 < 0:
                cand = (abs(l1 - l0), -abs((k + 1.5) - center))
                if best_edge is None or cand > best_edge[:2]:
                    best_edge = (*cand, axis, k + 1)           # edge between k+1, k+2
    if best_edge is not None:
        return ("edge", best_edge[2], best_edge[3])

    shape = [len(sig) for sig in sigs]
    axis = shape.index(max(shape))
    if shape[axis] < 2:
        return None
    return ("edge", axis, shape[axis] // 2 - 1)


def cluster(flags, efficiency_threshold: float, max_edge: int | None = None) -> list[ClusterBox]:
    """Cover all flagged cells of a 1D or 2D boolean array with efficient
    rectangles, in the array's indices.  Every flagged cell lands in
    exactly one box; boxes are split until they meet the efficiency
    threshold (or are single cells) and never exceed max_edge per side.
    A box's signatures come from per-row and per-column prefix counts of
    the flags, one subtraction of two slices each.
    """
    if not (0.0 < efficiency_threshold <= 1.0):
        raise ValueError("efficiency_threshold must be in (0, 1]")
    mask = np.asarray(flags, dtype=bool)
    if mask.ndim not in (1, 2):
        raise ValueError("cluster takes 1D or 2D flags")
    out: list[ClusterBox] = []

    def emit(lo, hi, eff):      # a 1D mask drops its column index
        out.append(ClusterBox(lo=lo[:mask.ndim], hi=hi[:mask.ndim], efficiency=eff))
    if not mask.any():
        return out
    m2 = mask.reshape(len(mask), -1)           # a 1D mask is one column
    rows = np.zeros((m2.shape[0], m2.shape[1] + 1), dtype=np.int32)
    cols = np.zeros((m2.shape[0] + 1, m2.shape[1]), dtype=np.int32)
    np.cumsum(m2, axis=1, dtype=np.int32, out=rows[:, 1:])
    np.cumsum(m2, axis=0, dtype=np.int32, out=cols[1:])

    def shrunk(box):
        """(lo, hi, signatures, count) of the bounding box of the flags in
        box (lo, hi); None when it holds none."""
        (l0, l1), (h0, h1) = box
        sigs = ((rows[l0:h0 + 1, h1 + 1] - rows[l0:h0 + 1, l1]).tolist(),
                (cols[h0 + 1, l1:h1 + 1] - cols[l0, l1:h1 + 1]).tolist())
        count = sum(sigs[0])
        if not count:
            return None
        first = [next(k for k, v in enumerate(s) if v) for s in sigs]
        last = [len(s) - next(k for k, v in enumerate(reversed(s)) if v) for s in sigs]
        return ((l0 + first[0], l1 + first[1]), (l0 + last[0] - 1, l1 + last[1] - 1),
                [s[a:b] for s, a, b in zip(sigs, first, last)], count)

    def children(lo, hi, split):
        return [c for c in map(shrunk, _split_children(lo, hi, split)) if c is not None]

    stack = [shrunk(((0, 0), (m2.shape[0] - 1, m2.shape[1] - 1)))]
    while stack:
        lo, hi, sigs, count = stack.pop()
        shape = [len(s) for s in sigs]
        eff = count / (shape[0] * shape[1])
        too_big = max_edge is not None and max(shape) > max_edge
        if eff >= efficiency_threshold and not too_big:
            # speculative split: take a signature cut only when both shrunk
            # children are strictly more efficient (separates plateaus such
            # as L-shaped flag sets without fragmenting solid rectangles)
            split = _find_split(sigs) if eff < 1.0 else None
            kids = [] if split is None else children(lo, hi, split)
            if kids and min(c[3] / (len(c[2][0]) * len(c[2][1])) for c in kids) > eff + 1e-12:
                stack.extend(kids)
            else:
                emit(lo, hi, eff)
            continue
        if too_big and eff >= efficiency_threshold:
            axis = shape.index(max(shape))
            split = ("edge", axis, shape[axis] // 2 - 1)
        else:
            split = _find_split(sigs)
        if split is None:
            emit(lo, hi, eff)
        else:
            stack.extend(children(lo, hi, split))
    return out


def _split_children(lo, hi, split):
    """The boxes either side of an 'edge' cut or a removed 'hole' slice."""
    kind, axis, k = split
    hi1, lo2 = list(hi), list(lo)
    hi1[axis] = lo[axis] + k - (kind == "hole")
    lo2[axis] = lo[axis] + k + 1
    return [(a, b) for a, b in ((tuple(lo), tuple(hi1)), (tuple(lo2), tuple(hi)))
            if b[axis] >= a[axis]]


# ---------------------------------------------------------------------------
# Regridding


def _allowed_rectangles(box: ClusterBox, allowed: np.ndarray, mask: np.ndarray):
    """Trim a box to the nesting-allowed region, splitting into rectangles.

    Consecutive rows with identical allowed runs merge into one rectangle;
    only rectangles containing at least one flagged cell survive.
    """
    sub_allowed = allowed[tuple(slice(l, h + 1) for l, h in zip(box.lo, box.hi))]
    if sub_allowed.all():
        return [box]
    if sub_allowed.ndim == 1:
        rects = [((box.lo[0] + a,), (box.lo[0] + b,)) for a, b in _runs_1d(sub_allowed)]
    else:
        # merge consecutive x-rows whose allowed y-runs are identical
        rects, i = [], 0
        for runs, rows in itertools.groupby(_runs_1d(row) for row in sub_allowed):
            j = i + len(list(rows)) - 1
            rects += [((box.lo[0] + i, box.lo[1] + a), (box.lo[0] + j, box.lo[1] + b))
                      for a, b in runs]
            i = j + 1
    out = []
    for lo, hi in rects:
        flagged = mask[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
        if flagged.any():
            out.append(ClusterBox(lo=lo, hi=hi, efficiency=int(flagged.sum()) / flagged.size))
    return out


def _runs_1d(row: np.ndarray):
    """(first, last) of every run of True in a 1D mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], row.astype(np.int8), [0]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def restrict_fine_to_coarse(hierarchy: PatchHierarchy, level: int):
    """Replace coarse cells covered by level+1 with fine-cell averages, the
    whole fine level at once: fine patches are ratio-aligned and disjoint,
    so a coarse cell's children lie in one patch and its value does not
    depend on how either level is cut.  Cells no coarse interior holds are
    skipped.  Where either level has a dry cell, only wet fine children
    contribute, and only wet coarse cells are overwritten."""
    fine = level_layout(hierarchy, level + 1)
    if fine is None:
        return
    coarse = level_layout(hierarchy, level)
    r = hierarchy.ratio_to_finer(level)
    nd = hierarchy.ndim
    cells, gi = fine.interior_cells
    fine_wet, coarse_wet = (wet(lay.aux).reshape(-1) for lay in (fine, coarse))
    weighted = not (fine_wet.all() and coarse_wet.all())    # else equal to the plain mean
    first = np.flatnonzero(np.all([i % r == 0 for i in gi], axis=0))   # a child per coarse cell
    for part in np.split(first, range(BAND_CELLS, len(first), BAND_CELLS)):
        # the packed flat index of each coarse cell's children, (K, r[, r])
        kids = cells[part].reshape(-1, *(1,) * nd) + np.ravel_multi_index(
            np.indices((r,) * nd), fine.interior.shape)
        dst = coarse.cover([i[part] // r for i in gi])
        q, take = fine.flat[:, kids], dst >= 0
        if not weighted:
            avg = _block_sum(q, nd) / r ** nd
        else:
            w = fine_wet[kids].astype(float)
            ws = _block_sum(w, nd)
            avg = _block_sum(q * w, nd) / np.where(ws > 0, ws, 1.0)
            take &= (ws > 0) & coarse_wet[dst]
        coarse.flat[:, dst[take]] = avg[:, take]


def _block_sum(a: np.ndarray, nd: int) -> np.ndarray:
    """Sums over the nd trailing child axes, the last first."""
    for _ in range(nd):
        a = a.sum(axis=-1)
    return a


# ---------------------------------------------------------------------------
# Context and the multilevel advance


@dataclass
class TimingReport:
    adjoint_wall_seconds: float = 0.0
    forward_wall_seconds: float = 0.0
    cell_steps: dict = field(default_factory=dict)        # level -> count
    flagged_per_regrid: list = field(default_factory=list)
    max_courant: dict = field(default_factory=dict)       # level -> largest step Courant number

    @property
    def total_cell_steps(self) -> int:
        return int(sum(self.cell_steps.values()))

    def fine_cell_steps(self) -> int:
        return int(sum(v for k, v in self.cell_steps.items() if k >= 2))


@dataclass
class AmrContext:
    """Everything the recursive driver needs besides the hierarchy itself."""

    equation: object
    boundary: BoundarySpec
    strategy: FlaggingStrategy
    limiter: str = "MC"
    regions: tuple[RefinementRegion, ...] = ()
    regrid_interval: int = 1
    buffer_cells: int = 3
    efficiency: float = 0.7
    max_patch_edge: int = 60
    step_counts: dict = field(default_factory=dict)
    timing: TimingReport = field(default_factory=TimingReport)    # the run's record
    on_level_advanced: object = None      # callback(hierarchy, level, t)

    def count_step(self, level: int, cells: int, courant: float):
        self.timing.cell_steps[level] = self.timing.cell_steps.get(level, 0) + cells
        self.timing.max_courant[level] = max(self.timing.max_courant.get(level, 0.0), courant)


def fill_level_ghosts(hierarchy: PatchHierarchy, level: int, t: float,
                      ctx: AmrContext):
    """Fill every ghost cell on a level: coarse space-time interpolation,
    then same-level copies, then physical boundary conditions."""
    lay = level_layout(hierarchy, level)
    if lay is not None:
        lay.fill_from_coarse(hierarchy, t)
        lay.fill_same_level()
        lay.fill_physical(ctx.boundary, ctx.equation, hierarchy.level_shape(level))


def new_level(hierarchy: PatchHierarchy, level: int, boxes, ctx: AmrContext,
              time: float) -> list[Patch]:
    """The patches of a new level over the index boxes (lo, hi): views of
    one layout with zero state and the material sampled straight into it."""
    if not boxes:
        return []
    lay = LevelLayout([hierarchy.make_spec(level, lo, hi) for lo, hi in boxes],
                      ctx.equation.m, time)
    lay.sample_material(ctx.equation, ctx.boundary, hierarchy.level_shape(level))
    return [Patch.view(lay, k) for k in range(len(lay.specs))]


def make_patch(hierarchy: PatchHierarchy, level: int,
               lo: tuple[int, ...], hi: tuple[int, ...],
               ctx: AmrContext, time: float) -> Patch:
    """`new_level` of one box."""
    return new_level(hierarchy, level, [(lo, hi)], ctx, time)[0]


def regrid(hierarchy: PatchHierarchy, level: int, ctx: AmrContext,
           deepest: int | None = None):
    """Rebuild levels `level` .. `deepest` from flags on each parent level.

    A parent level is flagged at once (`level_flags`); the flags are
    buffered patch by patch, so a buffer never crosses a patch edge.
    """
    if level < 2:
        raise ValueError("cannot regrid the base level")
    deepest = deepest if deepest is not None else hierarchy.max_levels
    for lev in range(level, deepest + 1):
        parent, new_patches = lev - 1, []
        lay = level_layout(hierarchy, parent)
        ctx.step_counts[lev] = 0
        if lay is not None:
            t = lay.time
            fill_level_ghosts(hierarchy, parent, t, ctx)
            flags = level_flags(lay, ctx.strategy, t, ctx.regions)
            ctx.timing.flagged_per_regrid.append(int(flags.sum()))
            raw = np.zeros(hierarchy.level_shape(parent), dtype=bool)
            raw[lay.interior_cells[1]] = flags
            mask = np.zeros_like(raw)
            for s in lay.specs:
                sl = tuple(slice(l, h + 1) for l, h in zip(s.lo, s.hi))
                mask[sl] |= buffer_flags(raw[sl], ctx.buffer_cells)
            allowed = allowed_region_mask(hierarchy, parent)
            clipped = mask & allowed
            r = hierarchy.ratio_to_finer(parent)
            boxes = cluster(clipped, ctx.efficiency, max(1, ctx.max_patch_edge // r))
            rects = [rect for b in boxes for rect in _allowed_rectangles(b, allowed, clipped)]
            new_patches = new_level(hierarchy, lev, [(tuple(l * r for l in b.lo),
                                                      tuple((h + 1) * r - 1 for h in b.hi))
                                                     for b in rects], ctx, t)
            if new_patches:
                new_patches[0].layout.fill_new(hierarchy, t, level_layout(hierarchy, lev))
        hierarchy.levels += [[] for _ in range(lev - len(hierarchy.levels))]
        hierarchy.levels[lev - 1] = new_patches


def advance_hierarchy(hierarchy: PatchHierarchy, level: int, dt: float,
                      ctx: AmrContext):
    """Advance one level by dt, recursively subcycling finer levels.

    Regrids child levels every `regrid_interval` steps of this level, fills
    ghosts before stepping, saves the pre-step state for child space-time
    interpolation (not on the finest allowed level, which has no children),
    and restricts children back afterwards.  A level's step count restarts
    at each rebuild (as AMRClaw's), so a child level that the parent's
    regrid rebuilt is not rebuilt again from the same data.  The level
    steps as one packed array (solver.LevelLayout); a step above the unit
    Courant number raises solver.CflViolationError naming the patch.
    """
    count = ctx.step_counts.get(level, 0)
    lay = level_layout(hierarchy, level)
    regridded = level < hierarchy.max_levels and count > 0 and count % ctx.regrid_interval == 0
    if regridded:
        regrid(hierarchy, level + 1, ctx)

    if lay is None:
        return
    t = lay.time
    if not regridded:           # the regrid filled this level's ghosts at t
        fill_level_ghosts(hierarchy, level, t, ctx)
    if level < hierarchy.max_levels:
        lay.save_old()
    ctx.count_step(level, lay.cells, lay.step(dt, ctx.equation, ctx.limiter))
    t_new = t + dt
    if ctx.on_level_advanced is not None:
        ctx.on_level_advanced(hierarchy, level, t_new)
    ctx.step_counts[level] = count + 1

    if level < hierarchy.max_levels and hierarchy.patches(level + 1):
        fill_level_ghosts(hierarchy, level, t_new, ctx)
        ratio = hierarchy.ratio_to_finer(level)
        for _ in range(ratio):
            advance_hierarchy(hierarchy, level + 1, dt / ratio, ctx)
        restrict_fine_to_coarse(hierarchy, level)
