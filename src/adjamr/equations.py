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


def _two_wave_solve(d, p: int, r: int, x_l, x_r, c_l, c_r, m: int, fwave: bool,
                    zero_wave=None) -> RiemannResult:
    """Split the jump `d` onto the two moving wave families.

    Every system here has m components, m wave families and the same
    structure: the left-going family (first, speed −c_l) has eigenvector 1
    in component p and −x_l in component r, the right-going family (last,
    speed +c_r) 1 and x_r; x is the impedance (acoustics) or the wave speed
    (shallow water).  In 2D a middle family of speed exactly 0 carries
    `zero_wave` = (component, values), the state jump transverse to the
    face (zero in f-wave form).  `d` is the state jump in wave form and the
    flux jump in f-wave form; only its components p and r are read.

    Waves and speeds are written into one zeroed array.  Because c > 0 for
    every valid material, the left-going fluctuation is the first family
    alone and the right-going one the last: speed-weighted in wave form,
    the f-waves themselves in f-wave form.
    """
    buf = np.zeros((m, m + 1, *d[p].shape))
    waves, speeds = buf[:, :m], buf[:, m]
    a1, a2 = waves[0, p], waves[-1, p]
    den = x_l + x_r
    np.multiply(x_r, d[p], out=a1)
    a1 -= d[r]
    a1 /= den
    np.multiply(x_l, d[p], out=a2)
    a2 += d[r]
    a2 /= den
    np.multiply(a1, x_l, out=waves[0, r])
    np.negative(waves[0, r], out=waves[0, r])
    np.multiply(a2, x_r, out=waves[-1, r])
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
    """Split a fluctuation onto the down- and up-going transverse families.

    The same structure as `_two_wave_solve` across the face normal: the
    down-going eigenvector has 1 in component p and −x_b in component r, the
    up-going 1 and x_a; each part is weighted by its speed (−c_b, +c_a).
    Returns (down-going, up-going).
    """
    den = x_b + x_a
    bd = x_a * f[p]
    bd -= f[r]
    bd /= den
    bu = x_b * f[p]
    bu += f[r]
    bu /= den
    bm, bp = np.zeros((2, *f.shape))
    np.multiply(c_b, bd, out=bm[p])
    np.negative(bm[p], out=bm[p])
    np.multiply(bd, x_b, out=bm[r])
    bm[r] *= c_b
    np.multiply(c_a, bu, out=bp[p])
    np.multiply(bu, x_a, out=bp[r])
    bp[r] *= c_a
    return bm, bp


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
    mu = 1 + axis          # normal velocity component
    mv = 2 - axis          # transverse velocity component
    return _two_wave_solve(dq, mu, 0, mat_l.z, mat_r.z, mat_l.c, mat_r.c, 3, False,
                           zero_wave=(mv, dq[mv]))


def acoustics_rp_transverse_2d(axis: int, fluct, mat_below: AcousticsMaterial,
                               mat_above: AcousticsMaterial):
    """Split a normal fluctuation into transverse down/up-going parts.

    For an x-face fluctuation the transverse direction is y and vice versa.
    Returns (down-going, up-going) speed-weighted contributions.
    """
    _check_acoustics(mat_below, mat_above)
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis          # velocity component transverse to the face normal
    return _transverse_split(f, mv, 0, mat_below.z, mat_above.z,
                             mat_below.c, mat_above.c)


# ---------------------------------------------------------------------------
# Linearized shallow water, forward (wave form)


def swe_linear_rp(axis: int, q_l, q_r, mat_l: SweMaterial, mat_r: SweMaterial) -> RiemannResult:
    """Linear SWE normal solve: gravity waves (1, ±√(g·h̄), 0) at speeds ∓√(g·h̄).

    Both sides must be wet; coastline handling lives in the solver's
    wet/dry masking, not here.
    """
    _check_wet(mat_l, mat_r, "swe_linear_rp requires wet cells on both sides")
    dq = np.asarray(q_r, dtype=float) - np.asarray(q_l, dtype=float)
    mu = 1 + axis
    mv = 2 - axis
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
    """f-wave Riemann solve for the adjoint of one of the three systems.

    The flux jump is split onto eigenvectors of the transposed coefficient
    matrix, left-going families using left-cell material and right-going
    using right-cell material, so speed sets match the forward solver.
    """
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

    Subclasses provide normal/transverse interface solvers, the per-cell
    maximum signal speed, and their adjoint counterpart.
    """

    name: str
    m: int
    is_swe = False

    def __init__(self, material: MaterialModel):
        self.material = material

    def sample_material(self, *coords):
        return self.material.sample(*coords)

    def normal_component(self, axis: int) -> int:
        """State component mirrored with a sign flip at a wall on this axis."""
        return 1 if self.m == 2 else 1 + axis

    def normal_rp(self, axis, ql, qr, matl, matr) -> RiemannResult:
        raise NotImplementedError

    def transverse_rp(self, axis, fluct, mat_below, mat_above):
        raise NotImplementedError

    def max_speed(self, mat) -> np.ndarray:
        return mat.c

    def adjoint(self) -> "EquationSet":
        raise NotImplementedError


class Acoustics1D(EquationSet):
    name = "acoustics-1d"
    m = 2

    def normal_rp(self, axis, ql, qr, matl, matr):
        return acoustics_rp_1d(ql, qr, matl, matr)

    def adjoint(self):
        return AdjointAcoustics1D(self.material)


class Acoustics2D(EquationSet):
    name = "acoustics-2d"
    m = 3

    def normal_rp(self, axis, ql, qr, matl, matr):
        return acoustics_rp_normal_2d(axis, ql, qr, matl, matr)

    def transverse_rp(self, axis, fluct, mat_below, mat_above):
        return acoustics_rp_transverse_2d(axis, fluct, mat_below, mat_above)

    def adjoint(self):
        return AdjointAcoustics2D(self.material)


class SweLinear2D(EquationSet):
    name = "swe-linear-2d"
    m = 3
    is_swe = True

    def normal_rp(self, axis, ql, qr, matl, matr):
        return swe_linear_rp(axis, ql, qr, matl, matr)

    def transverse_rp(self, axis, fluct, mat_below, mat_above):
        return swe_linear_transverse(axis, fluct, mat_below, mat_above)

    def adjoint(self):
        return AdjointSweLinear2D(self.material)


class _AdjointBase(EquationSet):
    system: str

    def normal_rp(self, axis, ql, qr, matl, matr):
        return adjoint_fwave_rp(self.system, axis, ql, qr, matl, matr)

    def transverse_rp(self, axis, fluct, mat_below, mat_above):
        return adjoint_transverse(self.system, axis, fluct, mat_below, mat_above)

    def reversed(self) -> "TimeReversed":
        return TimeReversed(self)


class AdjointAcoustics1D(_AdjointBase):
    name = "adjoint-acoustics-1d"
    system = "acoustics-1d"
    m = 2


class AdjointAcoustics2D(_AdjointBase):
    name = "adjoint-acoustics-2d"
    system = "acoustics-2d"
    m = 3


class AdjointSweLinear2D(_AdjointBase):
    name = "adjoint-swe-linear-2d"
    system = "swe-linear-2d"
    m = 3
    is_swe = True


class TimeReversed(EquationSet):
    """Flux-negated wrapper so a backward-in-time problem runs forward.

    If the wrapped system has flux f(q), this one has flux −f(q): every wave
    flips sign and speed, and the left/right fluctuations swap (negated).
    """

    def __init__(self, inner: EquationSet):
        super().__init__(inner.material)
        self.inner = inner
        self.name = inner.name + "-reversed"
        self.m = inner.m
        self.is_swe = inner.is_swe

    def normal_component(self, axis):
        return self.inner.normal_component(axis)

    def normal_rp(self, axis, ql, qr, matl, matr):
        # the inner result is fresh, so it is flipped in place; f-waves are
        # flux jumps and flip with the flux, state-jump waves do not
        res = self.inner.normal_rp(axis, ql, qr, matl, matr)
        if res.fwave:
            np.negative(res.waves, out=res.waves)
        for a in (res.speeds, res.fluct_minus, res.fluct_plus):
            np.negative(a, out=a)
        return RiemannResult(
            waves=res.waves[::-1],
            speeds=res.speeds[::-1],
            fluct_minus=res.fluct_plus,
            fluct_plus=res.fluct_minus,
            fwave=res.fwave,
        )

    def transverse_rp(self, axis, fluct, mat_below, mat_above):
        bm, bp = self.inner.transverse_rp(axis, fluct, mat_below, mat_above)
        np.negative(bm, out=bm)
        np.negative(bp, out=bp)
        return bp, bm

    def max_speed(self, mat):
        return self.inner.max_speed(mat)
