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

from dataclasses import dataclass

import numpy as np


class InvalidMaterialError(ValueError):
    """Nonpositive bulk modulus, density, or other bad material data."""


class DryCellError(ValueError):
    """A shallow-water Riemann solve was asked to use a dry cell."""


# ---------------------------------------------------------------------------
# Materials


@dataclass(frozen=True)
class AcousticsMaterial:
    """Per-cell bulk modulus and density with derived sound speed and impedance."""

    bulk: np.ndarray
    rho: np.ndarray
    c: np.ndarray
    z: np.ndarray

    @classmethod
    def create(cls, bulk, rho) -> "AcousticsMaterial":
        bulk = np.asarray(bulk, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if np.any(bulk <= 0) or np.any(rho <= 0):
            raise InvalidMaterialError("bulk modulus and density must be positive")
        c = np.sqrt(bulk / rho)
        return cls(bulk=bulk, rho=rho, c=c, z=rho * c)

    def __getitem__(self, sl) -> "AcousticsMaterial":
        return AcousticsMaterial(self.bulk[sl], self.rho[sl], self.c[sl], self.z[sl])


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
        if np.any(m.bulk <= 0) or np.any(m.rho <= 0):
            raise InvalidMaterialError("bulk modulus and density must be positive")


def _fluctuations(waves, speeds):
    """Speed-weighted fluctuation split for wave-form results."""
    neg = np.minimum(speeds, 0.0)[:, None]
    pos = np.maximum(speeds, 0.0)[:, None]
    amdq = np.sum(neg * waves, axis=0)
    apdq = np.sum(pos * waves, axis=0)
    return amdq, apdq


def _fwave_fluctuations(waves, speeds):
    """Sign-split sums for f-wave results; zero-speed f-waves split evenly."""
    wneg = np.where(speeds[:, None] < 0, 1.0, np.where(speeds[:, None] == 0, 0.5, 0.0))
    amdq = np.sum(wneg * waves, axis=0)
    apdq = np.sum((1.0 - wneg) * waves, axis=0)
    return amdq, apdq


# ---------------------------------------------------------------------------
# Acoustics, forward (wave form)


def acoustics_rp_1d(q_l, q_r, mat_l: AcousticsMaterial, mat_r: AcousticsMaterial) -> RiemannResult:
    """Variable-coefficient 1D acoustics: two waves along (−Z_l,1) and (Z_r,1)."""
    _check_acoustics(mat_l, mat_r)
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    dq = q_r - q_l
    zl, zr = mat_l.z, mat_r.z
    a1 = (-dq[0] + zr * dq[1]) / (zl + zr)
    a2 = (dq[0] + zl * dq[1]) / (zl + zr)
    waves = np.stack([
        np.stack([-a1 * zl, a1]),
        np.stack([a2 * zr, a2]),
    ])
    speeds = np.stack([-mat_l.c, mat_r.c])
    amdq, apdq = _fluctuations(waves, speeds)
    return RiemannResult(waves, speeds, amdq, apdq)


def acoustics_rp_normal_2d(axis: int, q_l, q_r, mat_l: AcousticsMaterial,
                           mat_r: AcousticsMaterial) -> RiemannResult:
    """Normal Riemann solve for 2D acoustics (axis 0 = x, 1 = y).

    Three wave families ordered by speed (−c, 0, +c); the transverse velocity
    jump rides the zero-speed family and never propagates.
    """
    _check_acoustics(mat_l, mat_r)
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    dq = q_r - q_l
    mu = 1 + axis          # normal velocity component
    mv = 2 - axis          # transverse velocity component
    zl, zr = mat_l.z, mat_r.z
    a1 = (-dq[0] + zr * dq[mu]) / (zl + zr)
    a2 = (dq[0] + zl * dq[mu]) / (zl + zr)
    zero = np.zeros_like(a1)
    w1 = [None] * 3
    w2 = [None] * 3
    w0 = [None] * 3
    w1[0], w1[mu], w1[mv] = -a1 * zl, a1, zero
    w2[0], w2[mu], w2[mv] = a2 * zr, a2, zero
    w0[0], w0[mu], w0[mv] = zero, zero, dq[mv]
    waves = np.stack([np.stack(w1), np.stack(w0), np.stack(w2)])
    speeds = np.stack([-mat_l.c, zero, mat_r.c])
    amdq, apdq = _fluctuations(waves, speeds)
    return RiemannResult(waves, speeds, amdq, apdq)


def acoustics_rp_transverse_2d(axis: int, fluct, mat_below: AcousticsMaterial,
                               mat_above: AcousticsMaterial):
    """Split a normal fluctuation into transverse down/up-going parts.

    For an x-face fluctuation the transverse direction is y and vice versa.
    Returns (down-going, up-going) speed-weighted contributions.
    """
    _check_acoustics(mat_below, mat_above)
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis          # velocity component transverse to the face normal
    zb, za = mat_below.z, mat_above.z
    bd = (-f[0] + za * f[mv]) / (zb + za)
    bu = (f[0] + zb * f[mv]) / (zb + za)
    bm = np.zeros_like(f)
    bp = np.zeros_like(f)
    bm[0] = -mat_below.c * (-bd * zb)
    bm[mv] = -mat_below.c * bd
    bp[0] = mat_above.c * (bu * za)
    bp[mv] = mat_above.c * bu
    return bm, bp


# ---------------------------------------------------------------------------
# Linearized shallow water, forward (wave form)


def swe_linear_rp(axis: int, q_l, q_r, mat_l: SweMaterial, mat_r: SweMaterial) -> RiemannResult:
    """Linear SWE normal solve: gravity waves (1, ±√(g·h̄), 0) at speeds ∓√(g·h̄).

    Both sides must be wet; coastline handling lives in the solver's
    wet/dry masking, not here.
    """
    if np.any(~mat_l.wet) or np.any(~mat_r.wet):
        raise DryCellError("swe_linear_rp requires wet cells on both sides")
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    dq = q_r - q_l
    mu = 1 + axis
    mv = 2 - axis
    cl, cr = mat_l.c, mat_r.c
    a1 = (cr * dq[0] - dq[mu]) / (cl + cr)
    a2 = (cl * dq[0] + dq[mu]) / (cl + cr)
    zero = np.zeros_like(a1)
    w1 = [None] * 3
    w2 = [None] * 3
    w0 = [None] * 3
    w1[0], w1[mu], w1[mv] = a1, -a1 * cl, zero
    w2[0], w2[mu], w2[mv] = a2, a2 * cr, zero
    w0[0], w0[mu], w0[mv] = zero, zero, dq[mv]
    waves = np.stack([np.stack(w1), np.stack(w0), np.stack(w2)])
    speeds = np.stack([-cl, zero, cr])
    amdq, apdq = _fluctuations(waves, speeds)
    return RiemannResult(waves, speeds, amdq, apdq)


def swe_linear_transverse(axis: int, fluct, mat_below: SweMaterial,
                          mat_above: SweMaterial):
    """Transverse split of a linear SWE fluctuation (wave form)."""
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis
    cb, ca = mat_below.c, mat_above.c
    den = cb + ca
    bd = (ca * f[0] - f[mv]) / den
    bu = (cb * f[0] + f[mv]) / den
    bm = np.zeros_like(f)
    bp = np.zeros_like(f)
    bm[0] = -cb * bd
    bm[mv] = -cb * (-bd * cb)
    bp[0] = ca * bu
    bp[mv] = ca * (bu * ca)
    return bm, bp


# ---------------------------------------------------------------------------
# Adjoint systems (f-wave form, flux transpose(A)·q̂)


def adjoint_flux(system: str, axis: int, q, mat):
    """Adjoint flux transpose(A)·q̂ (or transpose(B)·q̂ for the y axis)."""
    q = np.asarray(q, dtype=float)
    f = np.zeros_like(q)
    if system == "acoustics-1d":
        f[0] = q[1] / mat.rho
        f[1] = mat.bulk * q[0]
    elif system == "acoustics-2d":
        mu = 1 + axis
        f[0] = q[mu] / mat.rho
        f[mu] = mat.bulk * q[0]
    elif system == "swe-linear-2d":
        mu = 1 + axis
        f[0] = mat.gravity * mat.depth * q[mu]
        f[mu] = q[0]
    else:
        raise ValueError(f"unknown system {system!r}")
    return f


def adjoint_fwave_rp(system: str, axis: int, q_l, q_r, mat_l, mat_r) -> RiemannResult:
    """f-wave Riemann solve for the adjoint of one of the three systems.

    The flux jump is split onto eigenvectors of the transposed coefficient
    matrix, left-going families using left-cell material and right-going
    using right-cell material, so speed sets match the forward solver.
    """
    fl = adjoint_flux(system, axis, q_l, mat_l)
    fr = adjoint_flux(system, axis, q_r, mat_r)
    df = fr - fl
    zero = np.zeros_like(df[0])
    if system == "acoustics-1d":
        _check_acoustics(mat_l, mat_r)
        zl, zr = mat_l.z, mat_r.z
        b1 = (zr * df[0] - df[1]) / (zl + zr)
        b2 = (zl * df[0] + df[1]) / (zl + zr)
        waves = np.stack([
            np.stack([b1, -b1 * zl]),
            np.stack([b2, b2 * zr]),
        ])
        speeds = np.stack([-mat_l.c, mat_r.c])
    elif system == "acoustics-2d":
        _check_acoustics(mat_l, mat_r)
        mu = 1 + axis
        mv = 2 - axis
        zl, zr = mat_l.z, mat_r.z
        b1 = (zr * df[0] - df[mu]) / (zl + zr)
        b2 = (zl * df[0] + df[mu]) / (zl + zr)
        w1 = [None] * 3
        w2 = [None] * 3
        w1[0], w1[mu], w1[mv] = b1, -b1 * zl, zero
        w2[0], w2[mu], w2[mv] = b2, b2 * zr, zero
        waves = np.stack([np.stack(w1), np.zeros_like(np.stack(w1)), np.stack(w2)])
        speeds = np.stack([-mat_l.c, zero, mat_r.c])
    elif system == "swe-linear-2d":
        if np.any(~mat_l.wet) or np.any(~mat_r.wet):
            raise DryCellError("adjoint SWE solve requires wet cells")
        mu = 1 + axis
        mv = 2 - axis
        cl, cr = mat_l.c, mat_r.c
        b1 = (cr * df[mu] - df[0]) / (cl + cr)
        b2 = (cl * df[mu] + df[0]) / (cl + cr)
        w1 = [None] * 3
        w2 = [None] * 3
        w1[0], w1[mu], w1[mv] = -b1 * cl, b1, zero
        w2[0], w2[mu], w2[mv] = b2 * cr, b2, zero
        waves = np.stack([np.stack(w1), np.zeros_like(np.stack(w1)), np.stack(w2)])
        speeds = np.stack([-cl, zero, cr])
    else:
        raise ValueError(f"unknown system {system!r}")
    amdq, apdq = _fwave_fluctuations(waves, speeds)
    return RiemannResult(waves, speeds, amdq, apdq, fwave=True)


def adjoint_transverse(system: str, axis: int, fluct, mat_below, mat_above):
    """Transverse split of an adjoint fluctuation onto transpose eigenvectors."""
    f = np.asarray(fluct, dtype=float)
    mv = 2 - axis
    bm = np.zeros_like(f)
    bp = np.zeros_like(f)
    if system == "acoustics-2d":
        _check_acoustics(mat_below, mat_above)
        zb, za = mat_below.z, mat_above.z
        bd = (za * f[0] - f[mv]) / (zb + za)
        bu = (zb * f[0] + f[mv]) / (zb + za)
        bm[0] = -mat_below.c * bd
        bm[mv] = -mat_below.c * (-bd * zb)
        bp[0] = mat_above.c * bu
        bp[mv] = mat_above.c * (bu * za)
    elif system == "swe-linear-2d":
        cb, ca = mat_below.c, mat_above.c
        den = cb + ca
        bd = (ca * f[mv] - f[0]) / den
        bu = (cb * f[mv] + f[0]) / den
        bm[0] = -cb * (-bd * cb)
        bm[mv] = -cb * bd
        bp[0] = ca * (bu * ca)
        bp[mv] = ca * bu
    else:
        raise ValueError(f"no transverse solve for system {system!r}")
    return bm, bp


# ---------------------------------------------------------------------------
# Material models (analytic, sampled onto patch grids)


class MaterialModel:
    """Analytic material definition, sampled per patch at cell centers."""

    def sample(self, x: np.ndarray, y: np.ndarray | None = None):
        raise NotImplementedError


class AcousticsMaterialModel(MaterialModel):
    def __init__(self, bulk_fn, rho_fn):
        self.bulk_fn = bulk_fn
        self.rho_fn = rho_fn

    def sample(self, x, y=None):
        if y is None:
            return AcousticsMaterial.create(self.bulk_fn(x), self.rho_fn(x))
        return AcousticsMaterial.create(self.bulk_fn(x, y), self.rho_fn(x, y))


class SweMaterialModel(MaterialModel):
    def __init__(self, bathymetry_fn, sea_level: float = 0.0, gravity: float = 9.81):
        self.bathymetry_fn = bathymetry_fn
        self.sea_level = sea_level
        self.gravity = gravity

    def sample(self, x, y=None):
        return SweMaterial.create(self.bathymetry_fn(x, y), self.sea_level, self.gravity)


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

    def sample_material(self, x, y=None):
        return self.material.sample(x, y)

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

    def sample_material(self, x, y=None):
        return self.inner.sample_material(x, y)

    def normal_component(self, axis):
        return self.inner.normal_component(axis)

    def normal_rp(self, axis, ql, qr, matl, matr):
        res = self.inner.normal_rp(axis, ql, qr, matl, matr)
        # f-waves are flux jumps and flip with the flux; state-jump waves do not
        waves = -res.waves[::-1] if res.fwave else res.waves[::-1]
        return RiemannResult(
            waves=waves,
            speeds=-res.speeds[::-1],
            fluct_minus=-res.fluct_plus,
            fluct_plus=-res.fluct_minus,
            fwave=res.fwave,
        )

    def transverse_rp(self, axis, fluct, mat_below, mat_above):
        bm, bp = self.inner.transverse_rp(axis, fluct, mat_below, mat_above)
        return -bp, -bm

    def max_speed(self, mat):
        return self.inner.max_speed(mat)
