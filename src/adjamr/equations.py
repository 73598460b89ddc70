"""Hyperbolic equation sets with interface Riemann solvers.

Forward systems (variable-coefficient acoustics and linearized shallow water)
use the wave form: the interface jump in the state is split onto the local
eigenvectors and fluctuations are speed-weighted waves.  Adjoint systems are
in conservation form with flux transpose(A)·q and use the f-wave form: the
interface jump in the *flux* is split, and fluctuations are sums of f-waves.

All solvers are vectorized: states are (m, ...) arrays over any batch shape,
materials (rows, ...) arrays over the same batch shape.  An `EquationSet` is
one record per system and form; `adjoint()` and `reversed()` copy it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

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
# Equation sets


def AcousticsMaterialModel(bulk_fn, rho_fn):
    """The sampler coords -> acoustics material of the analytic bulk modulus
    and density, one array per axis in `coords`."""
    return lambda *coords: acoustics_material(bulk_fn(*coords), rho_fn(*coords))


def SweMaterialModel(bathymetry_fn, sea_level: float = 0.0, gravity: float = 9.81):
    """The sampler coords -> shallow-water material of the analytic bathymetry."""
    return lambda *coords: swe_material(bathymetry_fn(*coords), sea_level, gravity)


@dataclass(frozen=True, eq=False)
class EquationSet:
    """One hyperbolic system bound to its material sampler.

    `sample_material(*coords)` gives the (rows, *cells) material at the
    points `coords`.  The step kernel reads the two-family structure, all
    derived from `is_swe` and `fwave`: `rows`, the material's row names;
    `x_field`, the row x of `split_jump`; `p_slot`, the slot of its p among
    (component 0, normal component).  `fwave` splits the flux jump and
    `time_reversed` negates the flux.  Equality is identity, so kernel and
    ghost-fill plans keyed on an equation set stay its own.
    """

    name: str
    m: int
    sample_material: Callable[..., np.ndarray]
    is_swe: bool = False
    fwave: bool = False
    time_reversed: bool = False

    @property
    def rows(self) -> tuple[str, ...]:
        return SWE_ROWS if self.is_swe else ACOUSTICS_ROWS

    @property
    def x_field(self) -> str:
        return "c" if self.is_swe else "z"

    @property
    def p_slot(self) -> int:
        return int(self.is_swe == self.fwave)

    def normal_component(self, axis: int) -> int:
        """State component mirrored with a sign flip at a wall on this axis."""
        return 1 if self.m == 2 else 1 + axis

    def adjoint(self) -> "EquationSet":
        """The adjoint system, in f-wave form with flux transpose(A)·q̂."""
        if self.fwave:
            raise NotImplementedError(f"{self.name} is already an adjoint system")
        return replace(self, name="adjoint-" + self.name, fwave=True)

    def reversed(self) -> "EquationSet":
        """The flux-negated adjoint system, so the backward problem runs forward."""
        if not self.fwave:
            raise NotImplementedError(f"{self.name} is not an adjoint system")
        return replace(self, name=self.name + "-reversed", time_reversed=True)


def Acoustics1D(material) -> EquationSet:
    return EquationSet("acoustics-1d", 2, material)


def Acoustics2D(material) -> EquationSet:
    return EquationSet("acoustics-2d", 3, material)


def SweLinear2D(material) -> EquationSet:
    return EquationSet("swe-linear-2d", 3, material, is_swe=True)
