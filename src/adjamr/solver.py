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


@dataclass
class StepResult:
    state: np.ndarray
    max_courant: float


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


def _mirror_into_ghosts(state, axis: int, high: bool, g: int, negate_comp: int):
    nd = state.ndim
    ax = 1 + axis
    n = state.shape[ax]

    def sl(s):
        out = [slice(None)] * nd
        out[ax] = s
        return tuple(out)

    if high:
        ghost = sl(slice(n - g, n))
        src = sl(slice(n - g - 1, n - 2 * g - 1, -1))
    else:
        ghost = sl(slice(0, g))
        src = sl(slice(2 * g - 1, g - 1, -1))
    state[ghost] = state[src]
    if negate_comp is None:
        return
    comp = [slice(None)] * nd
    comp[0] = negate_comp
    comp[ax] = ghost[ax]
    state[tuple(comp)] *= -1.0


def _extrapolate_into_ghosts(state, axis: int, high: bool, g: int):
    nd = state.ndim
    ax = 1 + axis
    n = state.shape[ax]

    def sl(s):
        out = [slice(None)] * nd
        out[ax] = s
        return tuple(out)

    if high:
        state[sl(slice(n - g, n))] = state[sl(slice(n - g - 1, n - g))]
    else:
        state[sl(slice(0, g))] = state[sl(slice(g, g + 1))]


def fill_ghost_physical(patch: Patch, boundary: BoundarySpec, equation: EquationSet,
                        level_shape: tuple[int, ...]):
    """Fill ghost cells on every side of the patch that meets a domain edge.

    Wall: mirror the interior with the normal velocity/momentum negated.
    Outflow: zero-order extrapolation of the nearest interior cell.
    Low sides are filled before high sides and x before y, so corner ghosts
    outside the domain in both directions end up mirrored consistently.
    """
    spec = patch.spec
    g = spec.ghost_width
    for axis in range(spec.ndim):
        for high in (False, True):
            at_edge = (spec.hi[axis] == level_shape[axis] - 1) if high else (spec.lo[axis] == 0)
            if not at_edge:
                continue
            cond = boundary.side(axis, high)
            if cond == "wall":
                _mirror_into_ghosts(patch.state, axis, high, g,
                                    equation.normal_component(axis))
            else:
                _extrapolate_into_ghosts(patch.state, axis, high, g)


def _mirror_aux(aux, axis: int, high: bool, g: int):
    """Mirror material arrays into wall ghosts (no sign change)."""
    import dataclasses
    fields = {}
    for f in dataclasses.fields(aux):
        v = getattr(aux, f.name)
        if isinstance(v, np.ndarray):
            arr = v.copy()
            fake = arr[None]  # reuse the state mirroring with a leading axis
            _mirror_into_ghosts(fake, axis, high, g, negate_comp=None)
            fields[f.name] = fake[0]
        else:
            fields[f.name] = v
    return type(aux)(**fields)


def _extrapolate_aux(aux, axis: int, high: bool, g: int):
    import dataclasses
    fields = {}
    for f in dataclasses.fields(aux):
        v = getattr(aux, f.name)
        if isinstance(v, np.ndarray):
            arr = v.copy()
            fake = arr[None]
            _extrapolate_into_ghosts(fake, axis, high, g)
            fields[f.name] = fake[0]
        else:
            fields[f.name] = v
    return type(aux)(**fields)


def sample_patch_material(patch: Patch, equation: EquationSet,
                          boundary: BoundarySpec, level_shape: tuple[int, ...]):
    """Sample the material onto the patch, then fix up physical-boundary ghosts.

    Wall ghosts mirror the interior material so reflections are exact;
    outflow ghosts copy the edge cell.
    """
    spec = patch.spec
    cs = spec.cell_centers(include_ghost=True)
    if spec.ndim == 1:
        aux = equation.sample_material(cs[0])
    else:
        xx, yy = np.meshgrid(cs[0], cs[1], indexing="ij")
        aux = equation.sample_material(xx, yy)
    g = spec.ghost_width
    for axis in range(spec.ndim):
        for high in (False, True):
            at_edge = (spec.hi[axis] == level_shape[axis] - 1) if high else (spec.lo[axis] == 0)
            if not at_edge:
                continue
            if boundary.side(axis, high) == "wall":
                aux = _mirror_aux(aux, axis, high, g)
            else:
                aux = _extrapolate_aux(aux, axis, high, g)
    patch.aux = aux
    return aux


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
    ranges = [np.arange(spec.lo[a] - g, spec.hi[a] + g + 1) for a in range(spec.ndim)]
    if spec.ndim == 1:
        ii = ranges[0]
        mask = (ii < spec.lo[0]) | (ii > spec.hi[0])
        return (ii[mask],)
    ii, jj = np.meshgrid(ranges[0], ranges[1], indexing="ij")
    interior = ((ii >= spec.lo[0]) & (ii <= spec.hi[0])
                & (jj >= spec.lo[1]) & (jj <= spec.hi[1]))
    return ii[~interior], jj[~interior]


# ---------------------------------------------------------------------------
# Wave-propagation stepping


def _limited_waves(waves, speeds, limiter: str, axis: int):
    """Apply the wave limiter comparing each wave with its upwind neighbor."""
    if limiter == "none":
        return waves
    ax = 2 + axis  # waves axes: (family, component, interfaces...)
    dots = np.sum(waves * waves, axis=1)
    up = np.roll(waves, 1, axis=ax)
    dn = np.roll(waves, -1, axis=ax)
    first = [slice(None)] * waves.ndim
    first[ax] = slice(0, 1)
    up[tuple(first)] = 0.0
    last = [slice(None)] * waves.ndim
    last[ax] = slice(-1, None)
    dn[tuple(last)] = 0.0
    dot_up = np.sum(up * waves, axis=1)
    dot_dn = np.sum(dn * waves, axis=1)
    upwind = np.where(speeds > 0, dot_up, dot_dn)
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.where(dots > 0, upwind / np.where(dots > 0, dots, 1.0), 0.0)
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


def _swe_effective_states(axis, ql, qr, matl, matr):
    """Mirror across wet/dry interfaces; dummy-wet both-dry faces.

    Returns effective (ql, qr, matl, matr, ww_mask, dd_mask).
    """
    mu = 1 + axis
    wl, wr = matl.wet, matr.wet
    ww = wl & wr
    dd = ~wl & ~wr
    ql_eff = np.where(wl, ql, _mirror_state(qr, mu))
    qr_eff = np.where(wr, qr, _mirror_state(ql, mu))

    def pick(a, b, keep):
        return np.where(keep, a, b)

    dummy = 1.0
    dl = pick(matl.depth, matr.depth, wl)
    dr = pick(matr.depth, matl.depth, wr)
    dl = np.where(dd, dummy, dl)
    dr = np.where(dd, dummy, dr)
    g = matl.gravity
    ml = SweMaterial(bathymetry=-dl, depth=dl, wet=dl > 0, c=np.sqrt(g * dl), gravity=g)
    mr = SweMaterial(bathymetry=-dr, depth=dr, wet=dr > 0, c=np.sqrt(g * dr), gravity=g)
    return ql_eff, qr_eff, ml, mr, ww, dd


def _swe_transverse_material(mat):
    """Clamp dry cells to unit depth so transverse algebra stays finite."""
    g = mat.gravity
    d = np.where(mat.wet, mat.depth, 1.0)
    return SweMaterial(bathymetry=-d, depth=d, wet=d > 0, c=np.sqrt(g * d), gravity=g)


def _solve_axis(patch, equation, axis, swe):
    """All interface solves along one axis from the patch's current state."""
    q = patch.state
    aux = patch.aux
    nd = q.ndim - 1
    sl_l = [slice(None)] * nd
    sl_r = [slice(None)] * nd
    sl_l[axis] = slice(None, -1)
    sl_r[axis] = slice(1, None)
    ql = q[(slice(None), *sl_l)]
    qr = q[(slice(None), *sl_r)]
    matl = aux[tuple(sl_l)]
    matr = aux[tuple(sl_r)]
    if swe:
        ql, qr, matl, matr, ww, dd = _swe_effective_states(axis, ql, qr, matl, matr)
        res = equation.normal_rp(axis, ql, qr, matl, matr)
        res.waves[:, :, dd] = 0.0
        res.speeds[:, dd] = 0.0
        res.fluct_minus[:, dd] = 0.0
        res.fluct_plus[:, dd] = 0.0
        return res, ww
    res = equation.normal_rp(axis, ql, qr, matl, matr)
    return res, None


def step_patch_1d(patch: Patch, dt: float, equation: EquationSet,
                  limiter: str = "MC") -> StepResult:
    spec = patch.spec
    g = spec.ghost_width
    dx = spec.dx
    dtdx = dt / dx
    q = patch.state
    n = q.shape[1]

    res, _ = _solve_axis(patch, equation, 0, swe=False)
    cfl = float(np.max(np.abs(res.speeds[:, g - 1:n - g])) * dtdx) if n > 2 * g else 0.0
    if cfl > 1.0 + 1e-12:
        raise CflViolationError(f"Courant number {cfl:.4f} > 1")

    dq = np.zeros_like(q)
    dq[:, 1:] -= dtdx * res.fluct_plus
    dq[:, :-1] -= dtdx * res.fluct_minus
    ftil = _correction_flux(res.waves, res.speeds, dtdx, limiter, 0, res.fwave)
    dq[:, 1:-1] -= dtdx * (ftil[:, 1:] - ftil[:, :-1])

    q[:, g:-g] += dq[:, g:-g]
    patch.time += dt
    if not np.all(np.isfinite(q[:, g:-g])):
        raise NumericalBlowupError(f"non-finite state at t={patch.time}")
    return StepResult(q, cfl)


def step_patch_2d(patch: Patch, dt: float, equation: EquationSet,
                  limiter: str = "MC") -> StepResult:
    spec = patch.spec
    g = spec.ghost_width
    dtdx = dt / spec.dx
    dtdy = dt / spec.dy
    q = patch.state
    aux = patch.aux
    nx, ny = q.shape[1], q.shape[2]
    swe = equation.is_swe
    wet = aux.wet if swe else None

    resx, wwx = _solve_axis(patch, equation, 0, swe)
    resy, wwy = _solve_axis(patch, equation, 1, swe)

    cfl = max(
        float(np.max(np.abs(resx.speeds[:, g - 1:nx - g, g:ny - g]), initial=0.0)) * dtdx,
        float(np.max(np.abs(resy.speeds[:, g:nx - g, g - 1:ny - g]), initial=0.0)) * dtdy,
    )
    if cfl > 1.0 + 1e-12:
        raise CflViolationError(f"Courant number {cfl:.4f} > 1")

    dq = np.zeros_like(q)
    dq[:, 1:, :] -= dtdx * resx.fluct_plus
    dq[:, :-1, :] -= dtdx * resx.fluct_minus
    dq[:, :, 1:] -= dtdy * resy.fluct_plus
    dq[:, :, :-1] -= dtdy * resy.fluct_minus

    ftil = _correction_flux(resx.waves, resx.speeds, dtdx, limiter, 0, resx.fwave)
    gtil = _correction_flux(resy.waves, resy.speeds, dtdy, limiter, 1, resy.fwave)

    # transverse splits of the x-interface fluctuations feed the y correction
    # fluxes in the rows above and below, and vice versa
    tr_aux = _swe_transverse_material(aux) if swe else aux
    below = tr_aux[:-1, :-2]
    above = tr_aux[:-1, 2:]
    bm, bp = equation.transverse_rp(0, resx.fluct_minus[:, :, 1:-1], below, above)
    gtil[:, :-1, 0:ny - 2] -= 0.5 * dtdx * bm
    gtil[:, :-1, 1:ny - 1] -= 0.5 * dtdx * bp
    below = tr_aux[1:, :-2]
    above = tr_aux[1:, 2:]
    bm, bp = equation.transverse_rp(0, resx.fluct_plus[:, :, 1:-1], below, above)
    gtil[:, 1:, 0:ny - 2] -= 0.5 * dtdx * bm
    gtil[:, 1:, 1:ny - 1] -= 0.5 * dtdx * bp

    left = tr_aux[:-2, :-1]
    right = tr_aux[2:, :-1]
    bm, bp = equation.transverse_rp(1, resy.fluct_minus[:, 1:-1, :], left, right)
    ftil[:, 0:nx - 2, :-1] -= 0.5 * dtdy * bm
    ftil[:, 1:nx - 1, :-1] -= 0.5 * dtdy * bp
    left = tr_aux[:-2, 1:]
    right = tr_aux[2:, 1:]
    bm, bp = equation.transverse_rp(1, resy.fluct_plus[:, 1:-1, :], left, right)
    ftil[:, 0:nx - 2, 1:] -= 0.5 * dtdy * bm
    ftil[:, 1:nx - 1, 1:] -= 0.5 * dtdy * bp

    if swe:
        ftil[:, ~wwx] = 0.0
        gtil[:, ~wwy] = 0.0

    dq[:, 1:-1, :] -= dtdx * (ftil[:, 1:, :] - ftil[:, :-1, :])
    dq[:, :, 1:-1] -= dtdy * (gtil[:, :, 1:] - gtil[:, :, :-1])

    if swe:
        dq *= wet

    q[:, g:-g, g:-g] += dq[:, g:-g, g:-g]
    patch.time += dt
    if not np.all(np.isfinite(q[:, g:-g, g:-g])):
        raise NumericalBlowupError(f"non-finite state at t={patch.time}")
    return StepResult(q, cfl)


def step_patch(patch: Patch, dt: float, equation: EquationSet,
               limiter: str = "MC") -> StepResult:
    """Advance one patch by dt; raises on CFL violation or blowup."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if patch.spec.ndim == 1:
        return step_patch_1d(patch, dt, equation, limiter)
    return step_patch_2d(patch, dt, equation, limiter)


def select_dt(hierarchy: PatchHierarchy, equation: EquationSet,
              courant_target: float = 0.9, dt_max: float = np.inf) -> float:
    """Coarse-level dt from the CFL target; finer levels subcycle by ratio."""
    if not (0.0 < courant_target <= 1.0):
        raise ValueError("courant_target must be in (0, 1]")
    max_speed = 0.0
    for p in hierarchy.patches(1):
        sl = p.spec.interior_slices()
        max_speed = max(max_speed, float(np.max(equation.max_speed(p.aux[sl]),
                                                initial=0.0)))
    if max_speed == 0.0:
        return dt_max
    dx = hierarchy.widths(1)[0]
    dy = hierarchy.widths(1)[1]
    dt = courant_target * dx / max_speed
    if hierarchy.ndim == 2:
        dt = min(dt, courant_target * dy / max_speed)
    return min(dt, dt_max)


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
    sl = patch.spec.interior_slices()
    max_speed = float(np.max(equation.max_speed(patch.aux[sl]), initial=0.0))
    if dt_fixed is not None:
        base_dt = dt_fixed
    elif max_speed == 0.0:
        base_dt = dt_max
    else:
        base_dt = courant_target * patch.spec.dx / max_speed
        if patch.spec.ndim == 2:
            base_dt = min(base_dt, courant_target * patch.spec.dy / max_speed)
        base_dt = min(base_dt, dt_max)

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
