"""Hyperbolic equation sets with interface Riemann solvers.

Forward systems (variable-coefficient acoustics and linearized shallow water)
use the wave form: the interface jump in the state is split onto the local
eigenvectors and fluctuations are speed-weighted waves.  Adjoint systems are
in conservation form with flux transpose(A)·q and use the f-wave form: the
interface jump in the *flux* is split, and fluctuations are sums of f-waves.

All solvers are vectorized: states are (m, ...) arrays over any batch shape,
materials are per-cell arrays of the same batch shape.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np


class InvalidMaterialError(ValueError):
    """Nonpositive bulk modulus, density, or other bad material data."""


class DryCellError(ValueError):
    """A shallow-water Riemann solve was asked to use a dry cell."""


# ---------------------------------------------------------------------------
# Materials


@dataclass(frozen=True)
class AcousticsMaterial:
    """Per-cell bulk modulus and density with derived sound speed and impedance.

    `validated` marks a material made by `create`, which rejects nonpositive
    bulk modulus or density; slices keep the mark, so the Riemann solvers
    check only hand-built materials.  The mark is not a constructor field,
    so a hand-built material or a `dataclasses.replace` copy is checked again.
    """

    bulk: np.ndarray
    rho: np.ndarray
    c: np.ndarray
    z: np.ndarray
    validated: bool = field(default=False, init=False, repr=False, compare=False)

    @classmethod
    def create(cls, bulk, rho) -> "AcousticsMaterial":
        bulk = np.asarray(bulk, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if np.any(bulk <= 0) or np.any(rho <= 0):
            raise InvalidMaterialError("bulk modulus and density must be positive")
        c = np.sqrt(bulk / rho)
        return cls(bulk=bulk, rho=rho, c=c, z=rho * c)._marked()

    def __getitem__(self, sl) -> "AcousticsMaterial":
        sub = AcousticsMaterial(self.bulk[sl], self.rho[sl], self.c[sl], self.z[sl])
        return sub._marked() if self.validated else sub

    def _marked(self) -> "AcousticsMaterial":
        object.__setattr__(self, "validated", True)
        return self


@dataclass(frozen=True)
class SweMaterial:
    """Per-cell background depth h̄ = η̄ − B, wet mask, and gravity wave speed."""

    bathymetry: np.ndarray
    depth: np.ndarray
    wet: np.ndarray
    c: np.ndarray
    gravity: float

    @classmethod
    def create(cls, bathymetry, sea_level: float, gravity: float) -> "SweMaterial":
        b = np.asarray(bathymetry, dtype=float)
        depth = sea_level - b
        wet = depth > 0.0
        c = np.sqrt(gravity * np.maximum(depth, 0.0))
        return cls(bathymetry=b, depth=depth, wet=wet, c=c, gravity=gravity)

    def __getitem__(self, sl) -> "SweMaterial":
        return SweMaterial(self.bathymetry[sl], self.depth[sl], self.wet[sl],
                           self.c[sl], self.gravity)


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


def _check_acoustics(*mats: AcousticsMaterial):
    for m in mats:
        if not m.validated and (np.any(m.bulk <= 0) or np.any(m.rho <= 0)):
            raise InvalidMaterialError("bulk modulus and density must be positive")


def _check_wet(mat_l: SweMaterial, mat_r: SweMaterial, message: str):
    if not (mat_l.wet.all() and mat_r.wet.all()):
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


def acoustics_rp_1d(q_l, q_r, mat_l: AcousticsMaterial, mat_r: AcousticsMaterial) -> RiemannResult:
    """Variable-coefficient 1D acoustics: two waves along (−Z_l,1) and (Z_r,1)."""
    _check_acoustics(mat_l, mat_r)
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    return _two_wave_solve(dq, 1, 0, mat_l.z, mat_r.z, mat_l.c, mat_r.c, 2, False)


def acoustics_rp_normal_2d(axis: int, q_l, q_r, mat_l: AcousticsMaterial,
                           mat_r: AcousticsMaterial) -> RiemannResult:
    """Normal Riemann solve for 2D acoustics (axis 0 = x, 1 = y).

    Three wave families ordered by speed (−c, 0, +c); the transverse velocity
    jump rides the zero-speed family and never propagates.
    """
    _check_acoustics(mat_l, mat_r)
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    mu, mv = 1 + axis, 2 - axis          # normal and transverse velocity components
    return _two_wave_solve(dq, mu, 0, mat_l.z, mat_r.z, mat_l.c, mat_r.c, 3, False,
                           zero_wave=(mv, dq[mv]))


def acoustics_rp_transverse_2d(axis: int, fluct, mat_below: AcousticsMaterial,
                               mat_above: AcousticsMaterial):
    """Split a normal fluctuation into (down-going, up-going) speed-weighted
    parts across the face normal (y for an x-face fluctuation, and vice versa)."""
    _check_acoustics(mat_below, mat_above)
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis          # velocity component transverse to the face normal
    return _transverse_split(f, mv, 0, mat_below.z, mat_above.z,
                             mat_below.c, mat_above.c)


# ---------------------------------------------------------------------------
# Linearized shallow water, forward (wave form)


def swe_linear_rp(axis: int, q_l, q_r, mat_l: SweMaterial, mat_r: SweMaterial) -> RiemannResult:
    """Linear SWE normal solve: gravity waves (1, ±√(g·h̄), 0) at speeds ∓√(g·h̄).
    Both sides must be wet; the step kernel handles coastlines."""
    _check_wet(mat_l, mat_r, "swe_linear_rp requires wet cells on both sides")
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    mu, mv = 1 + axis, 2 - axis
    return _two_wave_solve(dq, 0, mu, mat_l.c, mat_r.c, mat_l.c, mat_r.c, 3, False,
                           zero_wave=(mv, dq[mv]))


def swe_linear_transverse(axis: int, fluct, mat_below: SweMaterial,
                          mat_above: SweMaterial):
    """Transverse split of a linear SWE fluctuation (wave form)."""
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis
    return _transverse_split(f, 0, mv, mat_below.c, mat_above.c,
                             mat_below.c, mat_above.c)


# ---------------------------------------------------------------------------
# Adjoint systems (f-wave form, flux transpose(A)·q̂)


def _adjoint_flux_parts(system: str, axis: int, q, mat) -> dict:
    """The nonzero components of transpose(A)·q̂: {component: values}."""
    mu = 1 + axis
    if system in ("acoustics-1d", "acoustics-2d"):
        return {0: q[mu] / mat.rho, mu: mat.bulk * q[0]}
    if system == "swe-linear-2d":
        return {0: mat.gravity * mat.depth * q[mu], mu: q[0]}
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
        return _two_wave_solve(df, mu, 0, mat_l.c, mat_r.c, mat_l.c, mat_r.c, m, True)
    _check_acoustics(mat_l, mat_r)
    return _two_wave_solve(df, 0, mu, mat_l.z, mat_r.z, mat_l.c, mat_r.c, m, True)


def adjoint_transverse(system: str, axis: int, fluct, mat_below, mat_above):
    """Transverse split of an adjoint fluctuation onto transpose eigenvectors."""
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis
    if system == "acoustics-2d":
        _check_acoustics(mat_below, mat_above)
        return _transverse_split(f, 0, mv, mat_below.z, mat_above.z,
                                 mat_below.c, mat_above.c)
    if system == "swe-linear-2d":
        return _transverse_split(f, mv, 0, mat_below.c, mat_above.c,
                                 mat_below.c, mat_above.c)
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
        return AcousticsMaterial.create(self.bulk_fn(*coords), self.rho_fn(*coords))


class SweMaterialModel(MaterialModel):
    def __init__(self, bathymetry_fn, sea_level: float = 0.0, gravity: float = 9.81):
        self.bathymetry_fn = bathymetry_fn
        self.sea_level = sea_level
        self.gravity = gravity

    def sample(self, *coords):
        return SweMaterial.create(self.bathymetry_fn(*coords), self.sea_level, self.gravity)


# ---------------------------------------------------------------------------
# Equation sets


class EquationSet:
    """One hyperbolic system bound to a material model.

    Subclasses provide the per-cell maximum signal speed and their adjoint
    counterpart.  The step kernel reads their two-family structure:
    `p_slot`, the slot of p of `split_jump` among (component 0, normal
    component); `x_field`, its material field x; whether the flux jump is
    split (`fwave`) and the flux negated (`time_reversed`).
    """

    name: str
    m: int
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

    def max_speed(self, mat) -> np.ndarray:
        return mat.c

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
    p_slot = 1
    x_field = "c"

