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
    """Apply the wave limiter comparing each wave with its upwind neighbor."""
    if limiter == "none":
        return waves
    ax = 2 + axis  # waves axes: (family, component, interfaces...)
    dots = np.sum(waves * waves, axis=1)
    up = np.roll(waves, 1, axis=ax)
    dn = np.roll(waves, -1, axis=ax)
    up[_along(waves.ndim, ax, slice(0, 1))] = 0.0
    dn[_along(waves.ndim, ax, slice(-1, None))] = 0.0
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
    ml = SweMaterial.create(-dl, 0.0, matl.gravity)
    mr = SweMaterial.create(-dr, 0.0, matl.gravity)
    return ql_eff, qr_eff, ml, mr, ww, dd


def _swe_transverse_material(mat):
    """Clamp dry cells to unit depth so transverse algebra stays finite."""
    return SweMaterial.create(-np.where(mat.wet, mat.depth, 1.0), 0.0, mat.gravity)


def _solve_axis(patch, equation, axis, swe):
    """All interface solves along one axis from the patch's current state."""
    q = patch.state
    aux = patch.aux
    sl_l = _along(q.ndim - 1, axis, slice(None, -1))
    sl_r = _along(q.ndim - 1, axis, slice(1, None))
    ql = q[(slice(None), *sl_l)]
    qr = q[(slice(None), *sl_r)]
    matl = aux[sl_l]
    matr = aux[sl_r]
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


def step_patch(patch: Patch, dt: float, equation: EquationSet,
               limiter: str = "MC") -> float:
    """Advance one patch by dt and return the step's Courant number.

    The Courant number is max|s|·dt/dx over the interfaces that touch the
    interior.  Raises CflViolationError above 1 and NumericalBlowupError on a
    non-finite result, both naming the patch (level, box, time).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    spec = patch.spec
    nd = spec.ndim
    g = spec.ghost_width
    q = patch.state
    n = q.shape[1:]
    swe = equation.is_swe
    dtd = [dt / w for w in spec.widths]

    res, ww = zip(*(_solve_axis(patch, equation, a, swe) for a in range(nd)))
    cfl = 0.0
    for a in range(nd):
        # interfaces along axis a with an interior cell on at least one side
        touching = tuple(slice(g - 1, n[b] - g) if b == a else slice(g, n[b] - g)
                         for b in range(nd))
        cfl = max(cfl, float(np.max(np.abs(res[a].speeds[(slice(None), *touching)]),
                                    initial=0.0)) * dtd[a])
    if cfl > 1.0 + 1e-12:
        raise CflViolationError(f"{patch}: Courant number {cfl:.4f} > 1")

    dq = np.zeros_like(q)
    for a in range(nd):
        dq[_along(q.ndim, 1 + a, slice(1, None))] -= dtd[a] * res[a].fluct_plus
        dq[_along(q.ndim, 1 + a, slice(None, -1))] -= dtd[a] * res[a].fluct_minus
    flux = [_correction_flux(res[a].waves, res[a].speeds, dtd[a], limiter, a, res[a].fwave)
            for a in range(nd)]
    if nd == 2:
        # transverse splits of the x-interface fluctuations feed the y
        # correction fluxes in the rows above and below, and vice versa
        ftil, gtil = flux
        resx, resy = res
        dtdx, dtdy = dtd
        nx, ny = n
        tr_aux = _swe_transverse_material(patch.aux) if swe else patch.aux
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
        for f, w in zip(flux, ww):
            f[:, ~w] = 0.0
    for a in range(nd):
        ax = 1 + a
        dq[_along(q.ndim, ax, slice(1, -1))] -= dtd[a] * (
            flux[a][_along(q.ndim, ax, slice(1, None))]
            - flux[a][_along(q.ndim, ax, slice(None, -1))])
    if swe:
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
