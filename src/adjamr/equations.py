"""Hyperbolic equation sets with interface Riemann solvers.

Forward systems (variable-coefficient acoustics and linearized shallow water)
use the wave form: the interface jump in the state is split onto the local
eigenvectors and fluctuations are speed-weighted waves.  Adjoint systems are
in conservation form with flux transpose(A)·q and use the f-wave form: the
interface jump in the *flux* is split, and fluctuations are sums of f-waves.

All solvers are vectorized: states are (m, ...) arrays over any batch shape,
materials (rows, ...) arrays over the same batch shape.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np


class InvalidMaterialError(ValueError):
    """Nonpositive bulk modulus, density, or other bad material data."""


class DryCellError(ValueError):
    """A shallow-water Riemann solve was asked to use a dry cell."""


# ---------------------------------------------------------------------------
# Materials: one float array (rows, *cells) per patch or level, like
# Clawpack's `aux`, copied, packed and ghost-filled the way the state is.
# Row C is the wave speed in every system; a cell is dry where it is 0.

ACOUSTICS_ROWS = ("c", "z", "bulk", "rho")
SWE_ROWS = ("c", "depth", "gravity")
C, Z, BULK, RHO = range(4)
DEPTH, GRAVITY = 1, 2


def acoustics_material(bulk, rho) -> np.ndarray:
    """Rows (c, z, bulk, rho) of per-cell bulk modulus and density, with the
    sound speed c = √(bulk/rho) and impedance z = rho·c; both must be positive."""
    bulk = np.asarray(bulk, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if (bulk <= 0).any() or (rho <= 0).any():
        raise InvalidMaterialError("bulk modulus and density must be positive")
    aux = np.empty((4, *np.broadcast(bulk, rho).shape))
    aux[BULK], aux[RHO] = bulk, rho
    np.sqrt(np.divide(bulk, rho, out=aux[C]), out=aux[C])
    np.multiply(rho, aux[C], out=aux[Z])
    return aux


def swe_material(bathymetry, sea_level: float, gravity: float) -> np.ndarray:
    """Rows (c, depth, gravity): background depth h̄ = η̄ − B and the gravity
    wave speed √(g·max(h̄, 0))."""
    b = np.asarray(bathymetry, dtype=float)
    aux = np.empty((3, *b.shape))
    np.subtract(sea_level, b, out=aux[DEPTH])
    np.maximum(aux[DEPTH], 0.0, out=aux[C])
    np.sqrt(np.multiply(gravity, aux[C], out=aux[C]), out=aux[C])
    aux[GRAVITY] = gravity
    return aux


def wet(aux) -> np.ndarray:
    """The wet cells of a material: those of positive wave speed (every
    acoustics cell)."""
    return aux[C] > 0


# ---------------------------------------------------------------------------
# Riemann results


@dataclass
class RiemannResult:
    """Waves/f-waves, speeds, and left/right-going fluctuations of one solve.

    waves has shape (nwaves, m, ...), speeds (nwaves, ...), fluctuations
    (m, ...).  In wave form sum(waves) equals the state jump and fluctuations
    are sum(speed*wave) split by sign; in f-wave form sum(waves) equals the
    flux jump and fluctuations are plain sums of f-waves split by speed sign.
    """

    waves: np.ndarray
    speeds: np.ndarray
    fluct_minus: np.ndarray
    fluct_plus: np.ndarray
    fwave: bool = False


def _check_acoustics(*mats):
    for m in mats:
        if np.any(m[BULK] <= 0) or np.any(m[RHO] <= 0):
            raise InvalidMaterialError("bulk modulus and density must be positive")


def _check_wet(mat_l, mat_r, message: str):
    if not (wet(mat_l).all() and wet(mat_r).all()):
        raise DryCellError(message)


def split_jump(dp, dr, x, xs, den, a, w):
    """Split the jump (dp, dr) onto the two moving wave families.

    In every system here the left-going eigenvector has 1 in a component p
    and −x_l in a component r, the right-going 1 and x_r; x is the impedance
    (acoustics) or the wave speed (shallow water).  `x` stacks (x_l, x_r),
    `xs` (x_r, x_l), and den = x_l + x_r.  Writes family k's (k = 0
    left-going) component-p entry into a[k], its component-r entry into w[k].
    """
    np.multiply(xs, dp, out=a)
    np.subtract(a[0], dr, out=a[0])
    np.add(a[1], dr, out=a[1])
    np.divide(a, den, out=a)
    np.multiply(a, x, out=w)
    np.negative(w[0], out=w[0])


def transverse_parts(fp, fr, x, xs, c, den, t, bp, br):
    """Split a fluctuation's (fp, fr) onto the down- and up-going transverse
    families, weighted by their speeds (−c_b, +c_a): `split_jump` across the
    face normal with x = (x_b, x_a), xs = (x_a, x_b), c = (c_b, c_a), den =
    x_b + x_a and work space t.  Writes component p of the (down, up) parts
    into bp, component r into br.  fp or fr may be one signed zero (x·fp = fp).
    """
    if np.ndim(fp):
        np.multiply(xs, fp, out=t)
        np.subtract(t[0], fr, out=t[0])
        np.add(t[1], fr, out=t[1])
    else:
        np.subtract(fp, fr, out=t[0])
        np.add(fp, fr, out=t[1])
    np.divide(t, den, out=t)
    np.multiply(c, t, out=bp)
    np.negative(bp[0], out=bp[0])
    np.multiply(t, x, out=br)
    np.multiply(br, c, out=br)


def _two_wave_solve(d, p: int, r: int, x_l, x_r, c_l, c_r, m: int, fwave: bool,
                    zero_wave=None) -> RiemannResult:
    """`split_jump` of the jump `d` (of the state, or of the flux in f-wave
    form) as a RiemannResult of m families.  In 2D a middle family of speed
    exactly 0 carries `zero_wave` = (component, values).  As c > 0, the
    left-going fluctuation is the first family alone, the right-going one
    the last: speed-weighted in wave form, the f-waves in f-wave form.
    """
    buf = np.zeros((m, m + 1, *np.shape(d[p])))
    waves, speeds = buf[:, :m], buf[:, m]
    x = np.stack(np.broadcast_arrays(x_l, x_r, d[p])[:2])
    split_jump(d[p], d[r], x, x[::-1], x[0] + x[1], waves[::m - 1, p], waves[::m - 1, r])
    np.negative(c_l, out=speeds[0])
    speeds[-1] = c_r
    if zero_wave is not None:
        waves[1, zero_wave[0]] = zero_wave[1]
    moving = slice(None, None, m - 1)       # the first and the last family
    if fwave:
        fluct = waves[moving].copy()
    else:
        fluct = speeds[moving, None] * waves[moving]
    return RiemannResult(waves, speeds, fluct[0], fluct[1], fwave=fwave)


def _transverse_split(f, p: int, r: int, x_b, x_a, c_b, c_a):
    """`transverse_parts` of the fluctuation f: (down-going, up-going)."""
    out = np.zeros((3, *f.shape))           # down-going, up-going, work space
    x, c = (np.stack(np.broadcast_arrays(u, v, f[p])[:2]) for u, v in ((x_b, x_a), (c_b, c_a)))
    transverse_parts(f[p], f[r], x, x[::-1], c, x[0] + x[1], out[2, :2], out[:2, p], out[:2, r])
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Acoustics, forward (wave form)


def acoustics_rp_1d(q_l, q_r, mat_l, mat_r) -> RiemannResult:
    """Variable-coefficient 1D acoustics: two waves along (−Z_l,1) and (Z_r,1)."""
    _check_acoustics(mat_l, mat_r)
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    return _two_wave_solve(dq, 1, 0, mat_l[Z], mat_r[Z], mat_l[C], mat_r[C], 2, False)


def acoustics_rp_normal_2d(axis: int, q_l, q_r, mat_l, mat_r) -> RiemannResult:
    """Normal Riemann solve for 2D acoustics (axis 0 = x, 1 = y).

    Three wave families ordered by speed (−c, 0, +c); the transverse velocity
    jump rides the zero-speed family and never propagates.
    """
    _check_acoustics(mat_l, mat_r)
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    mu, mv = 1 + axis, 2 - axis          # normal and transverse velocity components
    return _two_wave_solve(dq, mu, 0, mat_l[Z], mat_r[Z], mat_l[C], mat_r[C], 3, False,
                           zero_wave=(mv, dq[mv]))


def acoustics_rp_transverse_2d(axis: int, fluct, mat_below, mat_above):
    """Split a normal fluctuation into (down-going, up-going) speed-weighted
    parts across the face normal (y for an x-face fluctuation, and vice versa)."""
    _check_acoustics(mat_below, mat_above)
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis          # velocity component transverse to the face normal
    return _transverse_split(f, mv, 0, mat_below[Z], mat_above[Z],
                             mat_below[C], mat_above[C])


# ---------------------------------------------------------------------------
# Linearized shallow water, forward (wave form)


def swe_linear_rp(axis: int, q_l, q_r, mat_l, mat_r) -> RiemannResult:
    """Linear SWE normal solve: gravity waves (1, ±√(g·h̄), 0) at speeds ∓√(g·h̄).
    Both sides must be wet; the step kernel handles coastlines."""
    _check_wet(mat_l, mat_r, "swe_linear_rp requires wet cells on both sides")
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    mu, mv = 1 + axis, 2 - axis
    return _two_wave_solve(dq, 0, mu, mat_l[C], mat_r[C], mat_l[C], mat_r[C], 3, False,
                           zero_wave=(mv, dq[mv]))


def swe_linear_transverse(axis: int, fluct, mat_below, mat_above):
    """Transverse split of a linear SWE fluctuation (wave form)."""
    _check_wet(mat_below, mat_above, "swe_linear_transverse requires wet cells")
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis
    return _transverse_split(f, 0, mv, mat_below[C], mat_above[C],
                             mat_below[C], mat_above[C])


# ---------------------------------------------------------------------------
# Adjoint systems (f-wave form, flux transpose(A)·q̂)


def _adjoint_flux_parts(system: str, axis: int, q, mat) -> dict:
    """The nonzero components of transpose(A)·q̂: {component: values}."""
    mu = 1 + axis
    if system in ("acoustics-1d", "acoustics-2d"):
        return {0: q[mu] / mat[RHO], mu: mat[BULK] * q[0]}
    if system == "swe-linear-2d":
        return {0: mat[GRAVITY] * mat[DEPTH] * q[mu], mu: q[0]}
    raise ValueError(f"unknown system {system!r}")


def adjoint_flux(system: str, axis: int, q, mat):
    """Adjoint flux transpose(A)·q̂ (or transpose(B)·q̂ for the y axis)."""
    q = np.asarray(q, dtype=float)
    f = np.zeros_like(q)
    for comp, values in _adjoint_flux_parts(system, axis, q, mat).items():
        f[comp] = values
    return f


def adjoint_fwave_rp(system: str, axis: int, q_l, q_r, mat_l, mat_r) -> RiemannResult:
    """f-wave Riemann solve for the adjoint of one of the three systems: the
    flux jump split onto eigenvectors of the transposed coefficient matrix,
    left-going families with the left cell's material, right-going with the
    right's, so speed sets match the forward solver."""
    fl = _adjoint_flux_parts(system, axis, np.asarray(q_l, dtype=float), mat_l)
    fr = _adjoint_flux_parts(system, axis, np.asarray(q_r, dtype=float), mat_r)
    df = {comp: fr[comp] - fl[comp] for comp in fl}
    mu = 1 + axis
    m = 2 if system == "acoustics-1d" else 3
    if system == "swe-linear-2d":
        _check_wet(mat_l, mat_r, "adjoint SWE solve requires wet cells")
        return _two_wave_solve(df, mu, 0, mat_l[C], mat_r[C], mat_l[C], mat_r[C], m, True)
    _check_acoustics(mat_l, mat_r)
    return _two_wave_solve(df, 0, mu, mat_l[Z], mat_r[Z], mat_l[C], mat_r[C], m, True)


def adjoint_transverse(system: str, axis: int, fluct, mat_below, mat_above):
    """Transverse split of an adjoint fluctuation onto transpose eigenvectors."""
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis
    if system == "acoustics-2d":
        _check_acoustics(mat_below, mat_above)
        return _transverse_split(f, 0, mv, mat_below[Z], mat_above[Z],
                                 mat_below[C], mat_above[C])
    if system == "swe-linear-2d":
        _check_wet(mat_below, mat_above, "adjoint SWE transverse solve requires wet cells")
        return _transverse_split(f, mv, 0, mat_below[C], mat_above[C],
                                 mat_below[C], mat_above[C])
    raise ValueError(f"no transverse solve for system {system!r}")


# ---------------------------------------------------------------------------
# Material models (analytic, sampled onto patch grids)


class MaterialModel:
    """Analytic material definition, sampled per patch at cell centers."""

    def sample(self, *coords: np.ndarray):
        """Material at the points `coords`, one array per axis."""
        raise NotImplementedError


class AcousticsMaterialModel(MaterialModel):
    def __init__(self, bulk_fn, rho_fn):
        self.bulk_fn = bulk_fn
        self.rho_fn = rho_fn

    def sample(self, *coords):
        return acoustics_material(self.bulk_fn(*coords), self.rho_fn(*coords))


class SweMaterialModel(MaterialModel):
    def __init__(self, bathymetry_fn, sea_level: float = 0.0, gravity: float = 9.81):
        self.bathymetry_fn = bathymetry_fn
        self.sea_level = sea_level
        self.gravity = gravity

    def sample(self, *coords):
        return swe_material(self.bathymetry_fn(*coords), self.sea_level, self.gravity)


# ---------------------------------------------------------------------------
# Equation sets


class EquationSet:
    """One hyperbolic system bound to a material model.

    Subclasses provide their adjoint counterpart.  The step kernel reads
    their two-family structure: `p_slot`, the slot of p of `split_jump`
    among (component 0, normal component); `x_field`, the name of its
    material row x; whether the flux jump is
    split (`fwave`) and the flux negated (`time_reversed`).
    """

    name: str
    m: int
    rows = ACOUSTICS_ROWS       # the names of the material's rows
    is_swe = False
    p_slot = 1
    x_field = "z"
    fwave = False
    time_reversed = False

    def __init__(self, material: MaterialModel):
        self.material = material

    def sample_material(self, *coords):
        return self.material.sample(*coords)

    def normal_component(self, axis: int) -> int:
        """State component mirrored with a sign flip at a wall on this axis."""
        return 1 if self.m == 2 else 1 + axis

    def adjoint(self) -> "EquationSet":
        raise NotImplementedError


class Acoustics1D(EquationSet):
    name = "acoustics-1d"
    m = 2

    def adjoint(self):
        return AdjointAcoustics1D(self.material)


class Acoustics2D(EquationSet):
    name = "acoustics-2d"
    m = 3

    def adjoint(self):
        return AdjointAcoustics2D(self.material)


class SweLinear2D(EquationSet):
    name = "swe-linear-2d"
    m = 3
    is_swe = True
    rows = SWE_ROWS
    p_slot = 0
    x_field = "c"

    def adjoint(self):
        return AdjointSweLinear2D(self.material)


class _AdjointBase(EquationSet):
    p_slot = 0
    fwave = True

    def reversed(self) -> "_AdjointBase":
        """The flux-negated system, so the backward problem runs forward."""
        rev = copy.copy(self)
        rev.time_reversed, rev.name = True, self.name + "-reversed"
        return rev


class AdjointAcoustics1D(_AdjointBase):
    name = "adjoint-acoustics-1d"
    m = 2


class AdjointAcoustics2D(_AdjointBase):
    name = "adjoint-acoustics-2d"
    m = 3


class AdjointSweLinear2D(_AdjointBase):
    name = "adjoint-swe-linear-2d"
    m = 3
    is_swe = True
    rows = SWE_ROWS
    p_slot = 1
    x_field = "c"

