"""Single-patch time stepping with the second-order wave-propagation scheme.

A step applies first-order Godunov fluctuations, limited second-order
correction fluxes, and (in 2D) transverse corrections, all computed from the
state at the step's start.  Ghost cells must be filled beforehand; wet/dry
masking for shallow water is handled inside the step by mirroring interface
states, discarding updates into dry cells, and suppressing correction fluxes
across wet/dry faces so closed basins conserve mass to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equations import EquationSet, SweMaterial
from .geometry import (Patch, PatchHierarchy, PatchSpec, Stencil, apply_stencil,
                       patch_stencil)

LIMITERS = ("none", "minmod", "MC", "superbee")


class CflViolationError(RuntimeError):
    """A step exceeded the unit Courant number and was rejected."""


class NumericalBlowupError(RuntimeError):
    """A step produced NaN or Inf."""


class SchedulingError(RuntimeError):
    """Coarse data does not bracket the requested interpolation time."""


@dataclass(frozen=True)
class BoundarySpec:
    """Physical boundary condition per side: 'wall' or 'outflow'.

    Shallow-water runs additionally get implicit coastline walls at wet/dry
    interfaces inside the domain; that logic lives in step_patch.
    """

    left: str = "wall"
    right: str = "wall"
    bottom: str = "wall"
    top: str = "wall"

    def __post_init__(self):
        for side in (self.left, self.right, self.bottom, self.top):
            if side not in ("wall", "outflow"):
                raise ValueError(f"unknown boundary condition {side!r}")

    def side(self, axis: int, high: bool) -> str:
        if axis == 0:
            return self.right if high else self.left
        return self.top if high else self.bottom


def limiter_phi(name: str, theta: np.ndarray) -> np.ndarray:
    """Flux-limiter function phi(theta) for each supported limiter."""
    if name == "none":
        return np.ones_like(theta)
    if name == "minmod":
        return np.maximum(0.0, np.minimum(1.0, theta))
    if name == "MC":
        return np.maximum(0.0, np.minimum(np.minimum((1.0 + theta) / 2.0, 2.0),
                                          2.0 * theta))
    if name == "superbee":
        return np.maximum(0.0, np.maximum(np.minimum(1.0, 2.0 * theta),
                                          np.minimum(2.0, theta)))
    raise ValueError(f"unknown limiter {name!r}")


# ---------------------------------------------------------------------------
# Ghost filling


def _along(ndim: int, ax: int, s: slice) -> tuple[slice, ...]:
    """Index tuple selecting `s` on array axis `ax` and everything elsewhere."""
    out = [slice(None)] * ndim
    out[ax] = s
    return tuple(out)


def _fill_ghost_side(state, axis: int, high: bool, g: int, cond: str,
                     negate_comp: int | None = None):
    """Fill the g ghost layers on one side of `state` (component axis first).

    'wall' mirrors the interior, then negates component `negate_comp`;
    'outflow' copies the edge cell into every layer.
    """
    ax = 1 + axis
    n = state.shape[ax]
    if cond == "wall":
        src = slice(n - g - 1, n - 2 * g - 1, -1) if high else slice(2 * g - 1, g - 1, -1)
    else:
        src = slice(n - g - 1, n - g) if high else slice(g, g + 1)
    ghost = slice(n - g, n) if high else slice(0, g)
    state[_along(state.ndim, ax, ghost)] = state[_along(state.ndim, ax, src)]
    if cond == "wall" and negate_comp is not None:
        state[(negate_comp, *_along(state.ndim - 1, axis, ghost))] *= -1.0


def _domain_sides(spec: PatchSpec, boundary: BoundarySpec, level_shape: tuple[int, ...]):
    """(axis, high, condition) of every patch side on a domain edge, x then y,
    low before high."""
    for axis in range(spec.ndim):
        for high in (False, True):
            if (spec.hi[axis] == level_shape[axis] - 1) if high else (spec.lo[axis] == 0):
                yield axis, high, boundary.side(axis, high)


def fill_ghost_physical(patch: Patch, boundary: BoundarySpec, equation: EquationSet,
                        level_shape: tuple[int, ...]):
    """Fill ghost cells on every side of the patch that meets a domain edge.

    Wall: mirror the interior with the normal velocity/momentum negated.
    Outflow: zero-order extrapolation of the nearest interior cell.
    Low sides are filled before high sides and x before y, so corner ghosts
    outside the domain in both directions end up mirrored consistently.
    """
    g = patch.spec.ghost_width
    for axis, high, cond in _domain_sides(patch.spec, boundary, level_shape):
        _fill_ghost_side(patch.state, axis, high, g, cond, equation.normal_component(axis))


def sample_patch_material(patch: Patch, equation: EquationSet,
                          boundary: BoundarySpec, level_shape: tuple[int, ...]):
    """Sample the material at every cell center, interior and ghost.

    Ghosts behind a wall take the material of the mirrored interior cell, so
    reflections are exact; ghosts behind an outflow side take the edge cell's.
    The ghost indices are remapped by the same side fill that
    fill_ghost_physical applies to the state (materials are pointwise, so
    sampling there equals copying the sampled cell).
    """
    spec = patch.spec
    g = spec.ghost_width
    idx = [np.arange(spec.lo[a] - g, spec.hi[a] + g + 1)[None] for a in range(spec.ndim)]
    for axis, high, cond in _domain_sides(spec, boundary, level_shape):
        _fill_ghost_side(idx[axis], 0, high, g, cond)
    centers = [spec.origin[a] + (i[0] + 0.5) * spec.widths[a] for a, i in enumerate(idx)]
    patch.aux = equation.sample_material(*np.meshgrid(*centers, indexing="ij"))
    return patch.aux


def fill_ghost_same_level(patch: Patch, level_patches: list[Patch]):
    """Copy overlapping same-level interior data into this patch's ghosts."""
    spec = patch.spec
    g = spec.ghost_width
    for other in level_patches:
        if other is patch:
            continue
        o = other.spec
        lo = tuple(max(spec.lo[a] - g, o.lo[a]) for a in range(spec.ndim))
        hi = tuple(min(spec.hi[a] + g, o.hi[a]) for a in range(spec.ndim))
        if any(l > h for l, h in zip(lo, hi)):
            continue
        dst = tuple(slice(l - (spec.lo[a] - g), h - (spec.lo[a] - g) + 1)
                    for a, (l, h) in enumerate(zip(lo, hi)))
        src = tuple(slice(l - (o.lo[a] - o.ghost_width), h - (o.lo[a] - o.ghost_width) + 1)
                    for a, (l, h) in enumerate(zip(lo, hi)))
        patch.state[(slice(None), *dst)] = other.state[(slice(None), *src)]


def split_among_parents(hierarchy: PatchHierarchy, spec: PatchSpec, idx):
    """Hand fine cells to the parent-level patches whose interiors hold them.

    `idx` are global cell indices on `spec.level`.  Yields (coarse patch,
    selection mask over idx, cell-center points of the selection); a cell
    inside two parents goes to the lower patch index.
    """
    ratio = hierarchy.ratio_to_finer(spec.level - 1)
    centers = tuple(hierarchy.origin[a] + (idx[a] + 0.5) * spec.widths[a]
                    for a in range(spec.ndim))
    coarse_idx = tuple(i // ratio for i in idx)
    filled = np.zeros(idx[0].shape, dtype=bool)
    for cp in hierarchy.patches(spec.level - 1):
        inside = np.ones_like(filled)
        for a in range(spec.ndim):
            inside &= (coarse_idx[a] >= cp.spec.lo[a]) & (coarse_idx[a] <= cp.spec.hi[a])
        inside &= ~filled
        if not inside.any():
            continue
        yield cp, inside, tuple(c[inside] for c in centers)
        filled |= inside


@dataclass(frozen=True)
class CoarseGhostPlan:
    """Where each in-domain ghost cell of a fine patch reads its parent level.

    `pieces` holds, per contributing parent patch, the ghost cells' local
    indices into the fine state and the stencil that samples the parent
    there.  The plan is valid while the parent level
    consists of exactly the patch objects in `parents`.
    """

    parents: tuple[Patch, ...]
    pieces: tuple[tuple[Patch, tuple[np.ndarray, ...], Stencil], ...]

    def matches(self, parents: list[Patch]) -> bool:
        return (len(parents) == len(self.parents)
                and all(p is q for p, q in zip(parents, self.parents)))


def _coarse_ghost_plan(fine_patch: Patch, hierarchy: PatchHierarchy) -> CoarseGhostPlan:
    spec = fine_patch.spec
    parents = tuple(hierarchy.patches(spec.level - 1))
    shape = hierarchy.level_shape(spec.level)
    idx = _ghost_indices(spec)
    in_dom = np.ones(idx[0].shape, dtype=bool)
    for a in range(spec.ndim):
        in_dom &= (idx[a] >= 0) & (idx[a] < shape[a])
    idx = tuple(i[in_dom] for i in idx)
    g = spec.ghost_width
    local = tuple(i - (spec.lo[a] - g) for a, i in enumerate(idx))
    pieces = tuple((cp, tuple(i[inside] for i in local), patch_stencil(cp.spec, *pts))
                   for cp, inside, pts in split_among_parents(hierarchy, spec, idx))
    return CoarseGhostPlan(parents=parents, pieces=pieces)


def fill_ghost_from_coarse(fine_patch: Patch, hierarchy: PatchHierarchy, t: float):
    """Fill in-domain ghosts by bilinear-in-space, linear-in-time interpolation.

    Coarse patches must hold a saved (time_old, state_old) pair bracketing t;
    anything else is a driver scheduling bug.  The ghost-to-parent plan is
    built on first use and kept on the fine patch until the parent level's
    patches change.
    """
    spec = fine_patch.spec
    if spec.level < 2:
        return
    plan = fine_patch.coarse_ghost_plan
    if plan is None or not plan.matches(hierarchy.patches(spec.level - 1)):
        plan = fine_patch.coarse_ghost_plan = _coarse_ghost_plan(fine_patch, hierarchy)
    for cp, local, stencil in plan.pieces:
        fine_patch.state[(slice(None), *local)] = space_time_apply(cp, stencil, t)


def space_time_interp(coarse: Patch, pts, t: float):
    """Sample a coarse patch at points `pts` ((x,) or (x, y)) and time t."""
    return space_time_apply(coarse, patch_stencil(coarse.spec, *pts), t)


def space_time_apply(coarse: Patch, stencil: Stencil, t: float):
    """Linear-in-time blend of one spatial stencil on state_old and state."""
    eps = 1e-9 * max(abs(coarse.time), 1.0)
    if coarse.state_old is None or coarse.time_old is None:
        if abs(t - coarse.time) > eps:
            raise SchedulingError(
                f"coarse patch has no saved state bracketing t={t} (at {coarse.time})")
        return apply_stencil(stencil, coarse.state)
    t0, t1 = coarse.time_old, coarse.time
    if not (t0 - eps <= t <= t1 + eps):
        raise SchedulingError(
            f"t={t} outside coarse bracket [{t0}, {t1}]")
    v_old = apply_stencil(stencil, coarse.state_old)
    if t1 == t0:
        return v_old
    w = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
    if w == 0.0:
        return v_old
    v_new = apply_stencil(stencil, coarse.state)
    return (1.0 - w) * v_old + w * v_new


def _ghost_indices(spec):
    """Global indices of every ghost cell (total box minus interior box)."""
    g = spec.ghost_width
    idx = np.meshgrid(*(np.arange(spec.lo[a] - g, spec.hi[a] + g + 1)
                        for a in range(spec.ndim)), indexing="ij")
    interior = np.ones(idx[0].shape, dtype=bool)
    for a, i in enumerate(idx):
        interior &= (i >= spec.lo[a]) & (i <= spec.hi[a])
    return tuple(i[~interior] for i in idx)


# ---------------------------------------------------------------------------
# Wave-propagation stepping


def _limited_waves(waves, speeds, limiter: str, axis: int):
    """Apply the wave limiter comparing each wave with its upwind neighbor.

    Both neighbor dot products come from one product of each interface's
    waves with the next interface's; at the patch ends the missing neighbor
    counts as a zero wave.
    """
    if limiter == "none":
        return waves
    ax = 2 + axis  # waves axes: (family, component, interfaces...)
    dots = np.sum(waves * waves, axis=1)
    n = waves.shape[ax]

    def interfaces(s):
        return _along(dots.ndim, ax - 1, s)

    # pairs[i + 1] = W_i·W_{i+1}; pairs[0] and pairs[n] stay zero
    shape = list(dots.shape)
    shape[ax - 1] = n + 1
    pairs = np.zeros(shape)
    np.sum(waves[_along(waves.ndim, ax, slice(None, -1))]
           * waves[_along(waves.ndim, ax, slice(1, None))],
           axis=1, out=pairs[interfaces(slice(1, n))])
    upwind = np.where(speeds > 0, pairs[interfaces(slice(None, -1))],
                      pairs[interfaces(slice(1, None))])
    theta = np.divide(upwind, dots, out=np.zeros_like(dots), where=dots > 0)
    phi = limiter_phi(limiter, theta)
    return phi[:, None] * waves


def _correction_flux(waves, speeds, dtd, limiter: str, axis: int, fwave: bool):
    """Limited second-order correction flux at each interface."""
    lw = _limited_waves(waves, speeds, limiter, axis)
    absS = np.abs(speeds)
    if fwave:
        coef = 0.5 * np.sign(speeds) * (1.0 - dtd * absS)
    else:
        coef = 0.5 * absS * (1.0 - dtd * absS)
    return np.sum(coef[:, None] * lw, axis=0)


def _mirror_state(q, comp):
    out = q.copy()
    out[comp] *= -1.0
    return out


@dataclass
class _CoastFaces:
    """The state-independent half of the coastline rule on one axis.

    Interface states are mirrored across wet/dry faces: `wet_l`/`wet_r` say
    where a side keeps its own state.  The solve on a wet/dry face uses the
    wet side's material on both sides: `from_right` marks faces whose left
    material comes from the right cell, `from_left` the reverse.  Dry/dry
    faces (`dry_dry`) are solved with a dummy unit depth and zeroed; faces
    that are not wet/wet (`not_wet_wet`) carry no correction flux.
    """

    wet_l: np.ndarray
    wet_r: np.ndarray
    from_right: np.ndarray
    from_left: np.ndarray
    dry_dry: np.ndarray
    not_wet_wet: np.ndarray


def _coast_faces(matl: SweMaterial, matr: SweMaterial) -> _CoastFaces:
    wl, wr = matl.wet, matr.wet
    return _CoastFaces(wet_l=wl, wet_r=wr, from_right=~wl & wr, from_left=wl & ~wr,
                       dry_dry=~wl & ~wr, not_wet_wet=~(wl & wr))


def _pick(mask, if_true: SweMaterial, if_false: SweMaterial) -> SweMaterial:
    """Per-cell choice between two materials of the same shape."""
    return SweMaterial(*(np.where(mask, getattr(if_true, k), getattr(if_false, k))
                         for k in ("bathymetry", "depth", "wet", "c")),
                       gravity=if_true.gravity)


def _swe_clamped_material(mat):
    """Clamp dry cells to unit depth so the solves there stay finite.

    This is the material of the transverse splits, and the dummy depth of
    dry/dry faces in the normal solves.
    """
    return SweMaterial.create(-np.where(mat.wet, mat.depth, 1.0), 0.0, mat.gravity)


@dataclass
class StepAux:
    """What the step kernel reads of a patch's material, built once per patch.

    Per axis: the materials on the low and high side of every interface
    (`left`/`right`; for shallow water, of the clamped material, and
    `coast` holds the coastline rule).  In 2D, `transverse` holds the
    (below, above) material pairs of the four transverse splits: x-face
    minus/plus fluctuations, then y-face ones.  All are views of one
    per-cell material.  These linear systems have interface speeds that
    depend on the material only, so the first step records each axis's
    max|s| over the interfaces touching the interior (`courant_speeds`).
    Valid while the patch keeps this `aux` and equation set.
    """

    aux: object
    equation: EquationSet
    left: tuple
    right: tuple
    coast: tuple | None
    transverse: tuple
    courant_speeds: tuple | None = None


def _transverse_cells(nd: int, a: int, high: bool, b_slice: slice):
    """Cells on the low (fluct_minus) or high (fluct_plus) side of the
    axis-a interfaces, restricted to `b_slice` along the other axis."""
    out = [slice(None)] * nd
    out[a] = slice(1, None) if high else slice(None, -1)
    out[1 - a] = b_slice
    return tuple(out)


def _step_aux(patch: Patch, equation: EquationSet) -> StepAux:
    """The patch's StepAux, built on first use or when aux or equation changed."""
    sa = patch.step_aux
    if sa is not None and sa.aux is patch.aux and sa.equation is equation:
        return sa
    aux = patch.aux
    nd = patch.spec.ndim
    mat = _swe_clamped_material(aux) if equation.is_swe else aux
    left = tuple(mat[_along(nd, a, slice(None, -1))] for a in range(nd))
    right = tuple(mat[_along(nd, a, slice(1, None))] for a in range(nd))
    coast = None
    if equation.is_swe:
        coast = tuple(_coast_faces(aux[_along(nd, a, slice(None, -1))],
                                   aux[_along(nd, a, slice(1, None))]) for a in range(nd))
    transverse = ()
    if nd == 2:
        transverse = tuple(
            (mat[_transverse_cells(nd, a, high, slice(None, -2))],
             mat[_transverse_cells(nd, a, high, slice(2, None))])
            for a in range(nd) for high in (False, True))
    sa = patch.step_aux = StepAux(aux=aux, equation=equation, left=left, right=right,
                                  coast=coast, transverse=transverse)
    return sa


def _solve_axis(q, equation, axis, sa: StepAux):
    """All interface solves along one axis from the state q."""
    ql = q[(slice(None), *_along(q.ndim - 1, axis, slice(None, -1)))]
    qr = q[(slice(None), *_along(q.ndim - 1, axis, slice(1, None)))]
    matl, matr = sa.left[axis], sa.right[axis]
    if sa.coast is None:
        return equation.normal_rp(axis, ql, qr, matl, matr)
    cf = sa.coast[axis]
    mu = 1 + axis
    ql_eff = np.where(cf.wet_l, ql, _mirror_state(qr, mu))
    qr_eff = np.where(cf.wet_r, qr, _mirror_state(ql, mu))
    res = equation.normal_rp(axis, ql_eff, qr_eff, _pick(cf.from_right, matr, matl),
                             _pick(cf.from_left, matl, matr))
    for a in (res.waves, res.speeds, res.fluct_minus, res.fluct_plus):
        np.copyto(a, 0.0, where=cf.dry_dry)
    return res


def step_patch(patch: Patch, dt: float, equation: EquationSet,
               limiter: str = "MC") -> float:
    """Advance one patch by dt and return the step's Courant number.

    The Courant number is max|s|·dt/dx over the interfaces that touch the
    interior.  Raises CflViolationError above 1 and NumericalBlowupError on a
    non-finite result, both naming the patch (level, box, time).

    Only exact zeros are skipped.  The 2D systems have three wave families
    (−c, 0, +c); the middle one has speed exactly 0, so its correction-flux
    coefficient is 0 (|s| and sign(s) alike) and only the first and last
    family are limited.  The waves and fluctuations of the solves along
    axis a, and the transverse splits into that axis's correction fluxes,
    are zero outside components 0 and 1 + a (all components in 1D), so the
    updates and fluxes along axis a work on those two components only.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    spec = patch.spec
    nd = spec.ndim
    g = spec.ghost_width
    q = patch.state
    n = q.shape[1:]
    dtd = [dt / w for w in spec.widths]
    sa = _step_aux(patch, equation)
    moving = slice(None, None, 2) if nd == 2 else slice(None)
    comps = [slice(0, 2 + a, 1 + a) for a in range(nd)]

    def at(c, axis, s):
        """Index of components c and the cells `s` along `axis`."""
        return (c, *_along(nd, axis, s))

    res = [_solve_axis(q, equation, a, sa) for a in range(nd)]
    if sa.courant_speeds is None:
        # max|s| over the interfaces along axis a with an interior cell on
        # at least one side
        sa.courant_speeds = tuple(
            float(np.max(np.abs(res[a].speeds[(slice(None), *(
                slice(g - 1, n[b] - g) if b == a else slice(g, n[b] - g)
                for b in range(nd)))]), initial=0.0))
            for a in range(nd))
    cfl = 0.0
    for a in range(nd):
        cfl = max(cfl, sa.courant_speeds[a] * dtd[a])
    if cfl > 1.0 + 1e-12:
        raise CflViolationError(f"{patch}: Courant number {cfl:.4f} > 1")

    dq = np.zeros_like(q)
    for a in range(nd):
        dq[at(comps[a], a, slice(1, None))] -= dtd[a] * res[a].fluct_plus[comps[a]]
        dq[at(comps[a], a, slice(None, -1))] -= dtd[a] * res[a].fluct_minus[comps[a]]
    flux = [_correction_flux(res[a].waves[moving, comps[a]], res[a].speeds[moving],
                             dtd[a], limiter, a, res[a].fwave)
            for a in range(nd)]
    if nd == 2:
        # transverse splits of the x-interface fluctuations feed the y
        # correction fluxes in the rows above and below, and vice versa
        pairs = iter(sa.transverse)
        for a in range(nd):
            b = 1 - a
            for high, fluct in ((False, res[a].fluct_minus), (True, res[a].fluct_plus)):
                below, above = next(pairs)
                bm, bp = equation.transverse_rp(
                    a, fluct[at(slice(None), b, slice(1, -1))], below, above)
                target = flux[b][(slice(None), *_transverse_cells(nd, a, high, slice(None)))]
                target[at(slice(None), b, slice(0, n[b] - 2))] -= 0.5 * dtd[a] * bm[comps[b]]
                target[at(slice(None), b, slice(1, n[b] - 1))] -= 0.5 * dtd[a] * bp[comps[b]]
    if sa.coast is not None:
        for f, cf in zip(flux, sa.coast):
            np.copyto(f, 0.0, where=cf.not_wet_wet)
    for a in range(nd):
        dq[at(comps[a], a, slice(1, -1))] -= dtd[a] * (
            flux[a][at(slice(None), a, slice(1, None))]
            - flux[a][at(slice(None), a, slice(None, -1))])
    if sa.coast is not None:
        dq *= patch.aux.wet

    inner = (slice(None), *spec.interior_slices())
    q[inner] += dq[inner]
    patch.time += dt
    if not np.all(np.isfinite(q[inner])):
        raise NumericalBlowupError(f"{patch}: non-finite state after the step")
    return cfl


def _cfl_dt(patches, equation: EquationSet, widths, courant_target: float,
            dt_max: float) -> float:
    """The dt at the target Courant number for the fastest interior cell of
    `patches` on cells of these widths, capped at dt_max."""
    max_speed = 0.0
    for p in patches:
        sl = p.spec.interior_slices()
        max_speed = max(max_speed, float(np.max(equation.max_speed(p.aux[sl]),
                                                initial=0.0)))
    if max_speed == 0.0:
        return dt_max
    return min(min(courant_target * w / max_speed for w in widths), dt_max)


def select_dt(hierarchy: PatchHierarchy, equation: EquationSet,
              courant_target: float = 0.9, dt_max: float = np.inf) -> float:
    """Coarse-level dt from the CFL target; finer levels subcycle by ratio."""
    if not (0.0 < courant_target <= 1.0):
        raise ValueError("courant_target must be in (0, 1]")
    return _cfl_dt(hierarchy.patches(1), equation,
                   hierarchy.widths(1)[:hierarchy.ndim], courant_target, dt_max)


def integrate_patch(patch: Patch, equation: EquationSet, boundary: BoundarySpec,
                    level_shape: tuple[int, ...], t_end: float, *,
                    courant_target: float = 0.9, limiter: str = "MC",
                    dt_max: float = np.inf, dt_fixed: float | None = None,
                    output_times=(), on_output=None, on_step=None):
    """Advance one uniform patch to t_end with physical boundaries only.

    Steps are clipped so every requested output time is hit exactly;
    on_output(t, patch) fires at each (including t0 when listed), and
    on_step(patch) after every accepted step.
    """
    base_dt = dt_fixed if dt_fixed is not None else _cfl_dt(
        [patch], equation, patch.spec.widths, courant_target, dt_max)

    pending = sorted(output_times)
    eps = 1e-9 * max(abs(t_end), 1.0)

    def flush_outputs():
        while pending and pending[0] <= patch.time + eps:
            t_out = pending.pop(0)
            if on_output is not None:
                on_output(t_out, patch)

    flush_outputs()
    while patch.time < t_end - eps:
        dt = min(base_dt, t_end - patch.time)
        if pending:
            dt = min(dt, pending[0] - patch.time)
        fill_ghost_physical(patch, boundary, equation, level_shape)
        step_patch(patch, dt, equation, limiter)
        if on_step is not None:
            on_step(patch)
        flush_outputs()
