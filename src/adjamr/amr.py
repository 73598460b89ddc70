"""Multilevel driver: flagging, clustering, regridding, subcycled advance.

Levels advance recursively, coarsest first.  Refinement flags are evaluated
on the parent level, buffered, clipped to the properly nested region,
clustered into rectangles with the signature-bisection scheme, and refined
into child patches.  Fine results are averaged back onto their parents after
each subcycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Patch, PatchHierarchy, allowed_region_mask, in_box
from .solver import BoundarySpec, LevelLayout, level_layout, sample_patch_material


@dataclass
class FlagField:
    """Boolean refinement flags over one patch's interior."""

    flags: np.ndarray
    lo: tuple[int, ...]          # global index of the patch corner
    level: int
    strategy_name: str
    time: float


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

    def cell_mask(self, spec) -> np.ndarray:
        """True at the patch's interior cells whose centers lie in `rect`."""
        return in_box(np.ix_(*spec.cell_centers()), self.rect)


# ---------------------------------------------------------------------------
# Flagging strategies


class FlaggingStrategy:
    name = "base"

    def evaluate(self, patch: Patch) -> np.ndarray:
        """Boolean flags over the patch interior."""
        raise NotImplementedError


class DifferenceFlagging(FlaggingStrategy):
    """Flag where any component's undivided neighbor difference exceeds tol."""

    name = "difference"

    def __init__(self, tolerance: float):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance

    def evaluate(self, patch):
        g = patch.spec.ghost_width
        q = patch.state
        big = np.zeros(patch.spec.shape)
        for axis in range(patch.spec.ndim):
            ax = 1 + axis
            fwd = np.abs(np.diff(q, axis=ax))
            lo = [slice(g, g + n) for n in patch.spec.shape]
            hi = [slice(g, g + n) for n in patch.spec.shape]
            lo[axis] = slice(g - 1, g - 1 + patch.spec.shape[axis])
            hi[axis] = slice(g, g + patch.spec.shape[axis])
            big = np.maximum(big, np.max(fwd[(slice(None), *lo)], axis=0))
            big = np.maximum(big, np.max(fwd[(slice(None), *hi)], axis=0))
        return big > self.tolerance


class SurfaceFlagging(FlaggingStrategy):
    """Flag wet cells whose surface perturbation from sea level exceeds tol."""

    name = "surface"

    def __init__(self, tolerance: float):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance

    def evaluate(self, patch):
        sl = patch.spec.interior_slices()
        eta = patch.state[(0, *sl)]
        flags = np.abs(eta) > self.tolerance
        if hasattr(patch.aux, "wet"):
            flags &= patch.aux.wet[sl]
        return flags


class EverywhereFlagging(FlaggingStrategy):
    """Flag every interior cell (uniform-refinement / equivalence testing)."""

    name = "everywhere"

    def evaluate(self, patch):
        return np.ones(patch.spec.shape, dtype=bool)


def flag_cells(patch: Patch, strategy: FlaggingStrategy,
               regions: tuple[RefinementRegion, ...] = ()) -> FlagField:
    """Evaluate a strategy on one patch, then apply region overrides.

    Flags on a level-n patch propose level n+1 patches; regions first force
    flags where n+1 <= min_level, then clear them where n+1 > max_level.
    """
    flags = strategy.evaluate(patch)
    new_level = patch.spec.level + 1
    t = patch.time
    for r in regions:
        if r.contains_time(t) and new_level <= r.min_level:
            flags |= r.cell_mask(patch.spec)
    for r in regions:
        if r.contains_time(t) and new_level > r.max_level:
            flags &= ~r.cell_mask(patch.spec)
    return FlagField(flags=flags, lo=patch.spec.lo, level=patch.spec.level,
                     strategy_name=strategy.name, time=t)


def buffer_flags(flags: FlagField, buffer_cells: int) -> FlagField:
    """Dilate the flag set by a box of radius buffer_cells (clipped to patch)."""
    if buffer_cells < 0:
        raise ValueError("buffer_cells must be >= 0")
    out = flags.flags.copy()
    for axis in range(out.ndim):
        acc = out.copy()
        for s in range(1, buffer_cells + 1):
            shifted = np.zeros_like(out)
            src = [slice(None)] * out.ndim
            dst = [slice(None)] * out.ndim
            src[axis] = slice(s, None)
            dst[axis] = slice(None, -s)
            shifted[tuple(dst)] = out[tuple(src)]
            acc |= shifted
            shifted = np.zeros_like(out)
            src[axis] = slice(None, -s)
            dst[axis] = slice(s, None)
            shifted[tuple(dst)] = out[tuple(src)]
            acc |= shifted
        out = acc
    return FlagField(flags=out, lo=flags.lo, level=flags.level,
                     strategy_name=flags.strategy_name, time=flags.time)


# ---------------------------------------------------------------------------
# Signature-bisection clustering


def _signature(mask: np.ndarray, axis: int) -> np.ndarray:
    axes = tuple(a for a in range(mask.ndim) if a != axis)
    return mask.sum(axis=axes) if axes else mask.astype(int)


def _find_split(sub: np.ndarray):
    """Split index for a shrunk flag box: holes first, then Laplacian
    inflections, then the midpoint of the longest axis.

    Returns (kind, axis, index): 'hole' removes slice `index`, 'edge' cuts
    between `index` and `index + 1`.  None when the box is a single cell.
    """
    nd = sub.ndim
    best_hole = None
    for axis in range(nd):
        sig = _signature(sub, axis)
        zeros = np.nonzero(sig == 0)[0]
        if len(zeros):
            center = (len(sig) - 1) / 2.0
            k = zeros[np.argmin(np.abs(zeros - center))]
            score = abs(k - center) / max(len(sig), 1)
            if best_hole is None or score < best_hole[0]:
                best_hole = (score, axis, int(k))
    if best_hole is not None:
        return ("hole", best_hole[1], best_hole[2])

    best_edge = None
    for axis in range(nd):
        sig = _signature(sub, axis)
        n = len(sig)
        if n < 4:
            continue
        lap = sig[2:] - 2 * sig[1:-1] + sig[:-2]       # lap[k] at slice k+1
        for k in range(len(lap) - 1):
            if lap[k] * lap[k + 1] < 0:
                strength = abs(lap[k + 1] - lap[k])
                center = (n - 1) / 2.0
                dist = abs((k + 1.5) - center)
                cand = (strength, -dist, axis, k + 1)   # edge between k+1, k+2
                if best_edge is None or cand[:2] > best_edge[:2]:
                    best_edge = cand
    if best_edge is not None:
        return ("edge", best_edge[2], best_edge[3])

    axis = int(np.argmax(sub.shape))
    n = sub.shape[axis]
    if n < 2:
        return None
    return ("edge", axis, n // 2 - 1)


def _bounding_box(mask: np.ndarray):
    nz = np.nonzero(mask)
    if len(nz[0]) == 0:
        return None
    return (tuple(int(a.min()) for a in nz), tuple(int(a.max()) for a in nz))


def cluster(flags, efficiency_threshold: float, max_edge: int | None = None) -> list[ClusterBox]:
    """Cover all flagged cells with efficient rectangles.

    Accepts a FlagField or a bare boolean array; box indices come back in the
    flags' global index space.  Every flagged cell lands in exactly one box;
    boxes are split until they meet the efficiency threshold (or are single
    cells) and never exceed max_edge per side.
    """
    if not (0.0 < efficiency_threshold <= 1.0):
        raise ValueError("efficiency_threshold must be in (0, 1]")
    if isinstance(flags, FlagField):
        mask = flags.flags
        offset = flags.lo
    else:
        mask = np.asarray(flags, dtype=bool)
        offset = (0,) * mask.ndim
    out: list[ClusterBox] = []
    bb = _bounding_box(mask)
    if bb is None:
        return out
    stack = [bb]
    while stack:
        lo, hi = stack.pop()
        sub = mask[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
        bb = _bounding_box(sub)
        if bb is None:
            continue
        # shrink to the bounding box of the contained flags
        hi = tuple(l + b for l, b in zip(lo, bb[1]))
        lo = tuple(l + b for l, b in zip(lo, bb[0]))
        sub = mask[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
        count = int(sub.sum())
        area = sub.size
        eff = count / area
        too_big = max_edge is not None and any(s > max_edge for s in sub.shape)
        if eff >= efficiency_threshold and not too_big:
            # speculative split: take a signature cut only when both shrunk
            # children are strictly more efficient (separates plateaus such
            # as L-shaped flag sets without fragmenting solid rectangles)
            accept = True
            if eff < 1.0:
                split = _find_split(sub)
                if split is not None:
                    children = _split_children(lo, hi, split)
                    effs = [_shrunk_efficiency(mask, c) for c in children]
                    if effs and min(effs) > eff + 1e-12:
                        stack.extend(children)
                        accept = False
            if accept:
                out.append(ClusterBox(lo=tuple(l + o for l, o in zip(lo, offset)),
                                      hi=tuple(h + o for h, o in zip(hi, offset)),
                                      efficiency=eff))
            continue
        if too_big and eff >= efficiency_threshold:
            axis = int(np.argmax(sub.shape))
            k = sub.shape[axis] // 2 - 1
            split = ("edge", axis, k)
        else:
            split = _find_split(sub)
        if split is None:
            out.append(ClusterBox(lo=tuple(l + o for l, o in zip(lo, offset)),
                                  hi=tuple(h + o for h, o in zip(hi, offset)),
                                  efficiency=eff))
            continue
        stack.extend(_split_children(lo, hi, split))
    return out


def _split_children(lo, hi, split):
    kind, axis, k = split
    lo1, hi1 = list(lo), list(hi)
    lo2, hi2 = list(lo), list(hi)
    if kind == "hole":
        hi1[axis] = lo[axis] + k - 1
        lo2[axis] = lo[axis] + k + 1
    else:
        hi1[axis] = lo[axis] + k
        lo2[axis] = lo[axis] + k + 1
    out = []
    if hi1[axis] >= lo1[axis]:
        out.append((tuple(lo1), tuple(hi1)))
    if hi2[axis] >= lo2[axis]:
        out.append((tuple(lo2), tuple(hi2)))
    return out


def _shrunk_efficiency(mask, box):
    lo, hi = box
    sub = mask[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
    bb = _bounding_box(sub)
    if bb is None:
        return 1.0
    shr = sub[tuple(slice(a, b + 1) for a, b in zip(bb[0], bb[1]))]
    return float(shr.sum()) / shr.size


# ---------------------------------------------------------------------------
# Regridding


def _allowed_rectangles(box: ClusterBox, allowed: np.ndarray, mask: np.ndarray):
    """Trim a box to the nesting-allowed region, splitting into rectangles.

    Consecutive rows with identical allowed runs merge into one rectangle;
    only rectangles containing at least one flagged cell survive.
    """
    sl = tuple(slice(l, h + 1) for l, h in zip(box.lo, box.hi))
    sub_allowed = allowed[sl]
    if sub_allowed.all():
        return [box]
    rects = []
    if sub_allowed.ndim == 1:
        runs = _runs_1d(sub_allowed)
        for a, b in runs:
            lo = (box.lo[0] + a,)
            hi = (box.lo[0] + b,)
            rects.append((lo, hi))
    else:
        # merge consecutive x-rows whose allowed y-runs are identical
        nx = sub_allowed.shape[0]
        i = 0
        while i < nx:
            runs = _runs_1d(sub_allowed[i])
            j = i
            while j + 1 < nx and _runs_1d(sub_allowed[j + 1]) == runs:
                j += 1
            for a, b in runs:
                rects.append(((box.lo[0] + i, box.lo[1] + a),
                              (box.lo[0] + j, box.lo[1] + b)))
            i = j + 1
    out = []
    for lo, hi in rects:
        s = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
        flagged = mask[s]
        if flagged.any():
            cnt = int(flagged.sum())
            area = int(np.prod([h - l + 1 for l, h in zip(lo, hi)]))
            out.append(ClusterBox(lo=lo, hi=hi, efficiency=cnt / area))
    return out


def _runs_1d(row: np.ndarray):
    runs = []
    start = None
    for k, v in enumerate(row):
        if v and start is None:
            start = k
        elif not v and start is not None:
            runs.append((start, k - 1))
            start = None
    if start is not None:
        runs.append((start, len(row) - 1))
    return runs


def _block_sum(a: np.ndarray, nd: int) -> np.ndarray:
    """Sums of (m, n0, r[, n1, r]) blocks over their child axes, one axis at
    a time and the last first, so each sum's order is fixed."""
    for axis in range(2 * nd, 0, -2):
        a = a.sum(axis=axis)
    return a


def restrict_fine_to_coarse(hierarchy: PatchHierarchy, level: int):
    """Replace coarse cells covered by level+1 with fine-cell averages.

    Each fine patch is restricted on its own, through the coarse layout's
    cover of its coarse box, so a coarse cell's value does not depend on how
    the coarse level is cut into patches; cells no coarse interior holds are
    skipped.  For shallow water only wet fine children contribute, and only
    wet coarse cells are overwritten.
    """
    fine = level_layout(hierarchy, level + 1)
    if fine is None:
        return
    coarse = level_layout(hierarchy, level)
    r = hierarchy.ratio_to_finer(level)
    nd = hierarchy.ndim
    boxes = [np.ix_(*(np.arange(l // r, h // r + 1) for l, h in zip(fp.spec.lo, fp.spec.hi)))
             for fp in fine.patches]
    for fp, dst in zip(fine.patches, coarse.cover(*boxes)):
        dst = dst.ravel()
        # the interior as (n0, r[, n1, r]) blocks: a coarse cell's children
        # lie along the r axes (2[, 4] of the state)
        sl = fp.spec.interior_slices()
        blocks = [k for n in fp.spec.shape for k in (n // r, r)]
        q = fp.state[(slice(None), *sl)].reshape(fp.num_components, *blocks)
        take = dst >= 0
        if getattr(fp.aux, "wet", None) is None:
            avg = _block_sum(q, nd) / r ** nd
        else:
            w = fp.aux.wet[sl].reshape(blocks).astype(float)
            ws = _block_sum(w[None], nd)[0]
            avg = _block_sum(q * w, nd) / np.where(ws > 0, ws, 1.0)
            take &= (ws.ravel() > 0) & coarse.aux.wet.reshape(-1)[dst]
        coarse.flat[:, dst[take]] = avg.reshape(avg.shape[0], -1)[:, take]


# ---------------------------------------------------------------------------
# Context and the multilevel advance


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
    cell_steps: dict = field(default_factory=dict)
    max_courant: dict = field(default_factory=dict)  # level -> largest step Courant number
    flagged_per_regrid: list = field(default_factory=list)
    rebuilt_at: dict = field(default_factory=dict)   # level -> parent time of last rebuild
    on_level_advanced: object = None      # callback(hierarchy, level, t)

    def count_step(self, level: int, cells: int, courant: float):
        self.cell_steps[level] = self.cell_steps.get(level, 0) + cells
        self.max_courant[level] = max(self.max_courant.get(level, 0.0), courant)


def fill_level_ghosts(hierarchy: PatchHierarchy, level: int, t: float,
                      ctx: AmrContext):
    """Fill every ghost cell on a level: coarse space-time interpolation,
    then same-level copies, then physical boundary conditions."""
    lay = level_layout(hierarchy, level)
    if lay is not None:
        lay.fill_ghosts(hierarchy, t, ctx.boundary, ctx.equation)


def make_patch(hierarchy: PatchHierarchy, level: int,
               lo: tuple[int, ...], hi: tuple[int, ...],
               ctx: AmrContext, time: float) -> Patch:
    spec = hierarchy.make_spec(level, lo, hi)
    patch = Patch(spec, ctx.equation.m, time=time)
    sample_patch_material(patch, ctx.equation, ctx.boundary,
                          hierarchy.level_shape(level))
    return patch


def regrid(hierarchy: PatchHierarchy, level: int, ctx: AmrContext,
           deepest: int | None = None):
    """Rebuild levels `level` .. `deepest` from flags on each parent level."""
    if level < 2:
        raise ValueError("cannot regrid the base level")
    deepest = deepest if deepest is not None else hierarchy.max_levels
    for lev in range(level, deepest + 1):
        parent = lev - 1
        parents = hierarchy.patches(parent)
        if not parents:
            while len(hierarchy.levels) < lev:
                hierarchy.levels.append([])
            hierarchy.levels[lev - 1] = []
            ctx.rebuilt_at.pop(lev, None)
            continue
        t = parents[0].time
        fill_level_ghosts(hierarchy, parent, t, ctx)
        shape = hierarchy.level_shape(parent)
        mask = np.zeros(shape, dtype=bool)
        raw_count = 0
        for p in parents:
            ff = flag_cells(p, ctx.strategy, ctx.regions)
            raw_count += int(ff.flags.sum())
            bf = buffer_flags(ff, ctx.buffer_cells)
            sl = tuple(slice(l, h + 1) for l, h in zip(p.spec.lo, p.spec.hi))
            mask[sl] |= bf.flags
        ctx.flagged_per_regrid.append(raw_count)
        allowed = allowed_region_mask(hierarchy, parent)
        clipped = mask & allowed
        ratio = hierarchy.ratio_to_finer(parent)
        max_edge = max(1, ctx.max_patch_edge // ratio)
        boxes = cluster(clipped, ctx.efficiency, max_edge=max_edge)
        rects = []
        for b in boxes:
            rects.extend(_allowed_rectangles(b, allowed, clipped))
        new_patches = [make_patch(hierarchy, lev, tuple(l * ratio for l in rb.lo),
                                  tuple((h + 1) * ratio - 1 for h in rb.hi), ctx, time=t)
                       for rb in rects]
        if new_patches:
            LevelLayout(new_patches).fill_new(hierarchy, t, level_layout(hierarchy, lev))
        while len(hierarchy.levels) < lev:
            hierarchy.levels.append([])
        hierarchy.levels[lev - 1] = new_patches
        ctx.rebuilt_at[lev] = t


def advance_hierarchy(hierarchy: PatchHierarchy, level: int, dt: float,
                      ctx: AmrContext):
    """Advance one level by dt, recursively subcycling finer levels.

    Regrids child levels every `regrid_interval` steps of this level, fills
    ghosts before stepping, saves the pre-step state for child space-time
    interpolation, and restricts children back afterwards.  A child level
    already rebuilt at this level's current time (by the parent's regrid,
    from the same data) is not rebuilt again.  The level steps as one
    packed array (solver.LevelLayout); a step above the unit Courant number
    raises solver.CflViolationError naming the patch.
    """
    count = ctx.step_counts.get(level, 0)
    patches = hierarchy.patches(level)
    if (level < hierarchy.max_levels and count > 0
            and count % ctx.regrid_interval == 0
            and not (patches and ctx.rebuilt_at.get(level + 1) == patches[0].time)):
        regrid(hierarchy, level + 1, ctx)

    if not patches:
        return
    t = patches[0].time
    fill_level_ghosts(hierarchy, level, t, ctx)
    lay = level_layout(hierarchy, level)
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
