"""Time stepping with the second-order wave-propagation scheme, a level at a time.

A step applies first-order Godunov fluctuations, limited second-order
correction fluxes, and (in 2D) transverse corrections, all computed from the
state at the step's start.  Ghost cells must be filled beforehand; wet/dry
masking for shallow water is handled inside the step by mirroring interface
states, discarding updates into dry cells, and suppressing correction fluxes
across wet/dry faces so closed basins conserve mass to roundoff.

A `LevelLayout` packs the ghost-padded patches of one level into one array,
so a level steps and fills its ghosts in a few array operations however many
patches it has; every run, a uniform one included, steps levels this way
through `amr.advance_hierarchy`.  The one-patch entry points (`step_patch`,
`integrate_patch`, ... at the end) run the same code on a layout of that patch
alone, rebinding its arrays; they are kept only for tests and perfbench's `LAYERS`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .equations import (AcousticsMaterial, EquationSet, InvalidMaterialError, SweMaterial,
                        _check_acoustics, split_jump, transverse_parts)
from .geometry import (Patch, PatchHierarchy, Stencil, apply_stencil,
                       build_stencil, patch_stencil)

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
    interfaces inside the domain; that logic lives in the step kernel.
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


def _phi_ops(name: str, theta, out, work):
    """phi(theta) of the named limiter as array operations into `out`
    (which may be theta itself), with `work` an array of theta's shape."""
    def into(ufunc, a, b, to):
        return partial(ufunc, out=to), a, b

    ops = {"none": [(np.copyto, out, 1.0)],
           "minmod": [into(np.minimum, 1.0, theta, out)],
           "MC": [into(np.add, 1.0, theta, work), into(np.divide, work, 2.0, work),
                  into(np.minimum, work, 2.0, work), into(np.multiply, 2.0, theta, out),
                  into(np.minimum, work, out, out)],
           "superbee": [into(np.multiply, 2.0, theta, work), into(np.minimum, 1.0, work, work),
                        into(np.minimum, 2.0, theta, out), into(np.maximum, work, out, out)]}
    if name not in ops:
        raise ValueError(f"unknown limiter {name!r}")
    return ops[name] + ([] if name == "none" else [into(np.maximum, 0.0, out, out)])


def limiter_phi(name: str, theta: np.ndarray) -> np.ndarray:
    """Flux-limiter function phi(theta) for each supported limiter."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for op, *args in _phi_ops(name, theta, out, np.empty_like(theta)):
        op(*args)
    return out


# ---------------------------------------------------------------------------
# Ghost filling


def space_time_interp(coarse: Patch, pts, t: float):
    """Sample a coarse patch at points `pts` (one array per axis) and time t."""
    return space_time_apply(coarse, patch_stencil(coarse.spec, *pts), t)


def space_time_apply(coarse, stencil: Stencil, t: float):
    """Linear-in-time blend of one spatial stencil on state_old and state of a
    patch or a level layout."""
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


# ---------------------------------------------------------------------------
# Wave-propagation stepping


def _pair(a, shift: int, n: int):
    """One read-only view stacking a[..., k] and a[..., k + shift] for k < n;
    its first axis picks the side."""
    first = a[..., :n]
    return as_strided(first, (2, *first.shape), (shift * a.strides[-1], *first.strides),
                      writeable=False)


def _face_speeds(c, dry):
    """Each face's max|s|: the larger c of its two sides, 0 on dry/dry faces."""
    speed = np.maximum(c[0], c[1])
    return speed if dry is None else np.where(dry, 0.0, speed)


class _Scratch:
    """The band step's work arrays, one set that every band of every level
    reuses.  It grows to the largest plan carved; the plans carved before
    drop their operations (freeing the old set) and are built again."""

    floats, flags, gen, plans = np.empty(0), np.empty(0, dtype=bool), 0, weakref.WeakSet()

    @classmethod
    def carve(cls, shapes, temp: int, flags: int):
        """Views of `shapes`, then `temp` floats and `flags` bools (flat)."""
        sizes = [math.prod(s) for s in shapes]
        if sum(sizes) + temp > len(cls.floats) or flags > len(cls.flags):
            for plan in cls.plans:
                plan.ops, plan.gen = None, -1
            size, nflags = max(sum(sizes) + temp, len(cls.floats)), max(flags, len(cls.flags))
            cls.floats = cls.flags = None           # freed before the new set is taken
            cls.floats, cls.flags = np.empty(size), np.empty(nflags, dtype=bool)
            cls.gen += 1
        ends = np.cumsum([0, *sizes]).tolist()
        return ([cls.floats[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)],
                cls.floats[ends[-1]:ends[-1] + temp], cls.flags[:flags])


class _BandPlan:
    """One band's step as a fixed run of array operations on views of its
    state, its (face) materials and the shared `_Scratch`, built once per
    band, equation set and limiter; `dtd` holds the step's dt/dx.

    Every operation is a run over the band's cells flat, in packed order:
    face k of axis a joins cells k and k + steps[a], and the transverse
    splits reach steps[b] cells to either side.  Axis 1's face from a row's
    last cell to the next row's first joins ghost or padding cells (every
    box has two ghost columns), so no interior reads its finite values.
    The splits read only the waves' component-0 halves, so axis 0's other
    half is stored where axis 1's component-0 half goes.

    On axis a only components 0 and 1 + a (the "slots") and the two moving
    families enter: the 2D middle family has speed 0.  Every valid, padding
    and clamped material has c > 0 (checked here), so the left-going family
    moves at −c of the face's left material, the right-going one at +c of
    its right (swapped for a time-reversed system), and the left-going one
    compares with the next face in the limiter, the right-going one with
    the previous.  The README's design notes give the signed zeros.
    """

    def __init__(self, lay: "LevelLayout", band: int, eq: EquationSet, limiter: str):
        x, nd = lay.bands[band], lay.interior.ndim
        inside, aux = lay.interior[x].reshape(-1), lay.aux[x]
        size, q = len(inside), lay.state[:, x].reshape(len(lay.state), -1)
        self.steps = [math.prod(lay.state.shape[2 + a:]) for a in range(nd)]
        if eq.is_swe:       # dry cells clamped to unit depth, so solves there stay finite
            wet = aux.wet.reshape(size)
            gd = aux.gravity * np.where(wet, aux.depth.reshape(size), 1.0)
            cells = {"c": np.sqrt(gd), "gd": gd} if eq.fwave else {"c": np.sqrt(gd)}
        else:
            _check_acoustics(aux)
            cells = {k: getattr(aux, k).reshape(size) for k in ("z", "c", "rho", "bulk")}
        if not (cells["c"] > 0).all():
            k = lay._owner[x].reshape(size)[np.argmin(cells["c"] > 0)]
            raise InvalidMaterialError(f"{lay.patches[k]}: wave speeds must be positive")
        faces = [size - s for s in self.steps]
        views, tmp, flags = _Scratch.carve(
            [(eq.m, size), *((2, f) for f in faces), (2 * faces[0] + 2 * nd * faces[-1],)],
            10 * size, 2 * size)
        self.band, self.gen = band, _Scratch.gen
        _Scratch.plans.add(self)

        def work(start: int, *shape):
            """Work space `start` band sizes in: at 0 four sizes, at 4, 6 and 8 two."""
            return tmp[start * size:][:math.prod(shape)].reshape(shape)

        # each axis's waves, (slot, family, face)
        fls = [views[-1][2 * faces[0] * a:][:4 * f].reshape(2, 2, f) for a, f in enumerate(faces)]
        p, left, fwave = eq.p_slot, int(eq.time_reversed), eq.fwave    # left: left-going family
        sign_half = np.array([0.5, -0.5] if left else [-0.5, 0.5]).reshape(2, 1)
        dq = views[0]
        self.dtd = [np.zeros(()) for _ in range(2 * nd)]       # dt/dx per axis, then halves
        ops, tail, self.faces, self.speeds = [(np.copyto, dq, 0.0)], [], [], []
        for a, (s, nf, d) in enumerate(zip(self.steps, faces, self.dtd)):
            cs = slice(0, 2 + a, 1 + a)
            lo, hi = slice(0, nf), slice(s, size)
            fl, flux = fls[a], views[1 + a]     # waves, then fluctuations
            qs, dry = _pair(q[cs], s, nf), None     # (side, slot, faces)
            if eq.is_swe:
                wl, wr = wet[lo], wet[hi]
                mat = {k: np.stack((np.where(~wl & wr, v[hi], v[lo]),
                                    np.where(wl & ~wr, v[lo], v[hi]))) for k, v in cells.items()}
                dry = ~wl & ~wr
                raw, qs = qs, work(0, 2, 2, nf)       # states mirrored across wet/dry faces
                ops += [(np.multiply, raw[::-1], np.array([1.0, -1.0]).reshape(2, 1), qs),
                        (np.copyto, qs, raw, "same_kind", _pair(wet[None], s, nf))]
                tail.append((np.copyto, flux, 0.0, "same_kind", ~(wl & wr)))
            else:
                mat = {k: _pair(v, s, nf) for k, v in cells.items()}
            jump, den, c, xm = work(4, 2, nf), work(6, nf), mat["c"], mat[eq.x_field]
            if not fwave:       # the jump in the state, or in the flux for f-waves
                ops.append((np.subtract, qs[1], qs[0], jump))
            elif eq.is_swe:
                ff = work(6, 2, nf)
                ops += [(np.multiply, mat["gd"], qs[:, 1], ff),
                        (np.subtract, ff[1], ff[0], jump[0]),
                        (np.subtract, qs[1, 0], qs[0, 0], jump[1])]
            else:
                ff = work(0, 2, 2, nf)
                ops += [(np.divide, qs[:, 1], mat["rho"], ff[0]),
                        (np.multiply, mat["bulk"], qs[:, 0], ff[1]),
                        (np.subtract, ff[:, 1], ff[:, 0], jump)]
            ops += [(np.add, xm[0], xm[1], den),
                    (split_jump, jump[p], jump[1 - p], xm, xm[::-1], den, fl[p], fl[1 - p])]
            if fwave and left:
                ops.append((np.negative, fl, fl))
            if dry is not None:
                ops.append((np.copyto, fl, 0.0, "same_kind", dry))
            t4, waves = work(0, 2, 2, nf), fl
            if limiter != "none":
                # each family's dot with itself and the products with the next
                # face, padded by zeros at both ends, read at its upwind side
                dots, pairs, theta = work(4, 2, nf), work(6, 2, size), work(8, 2, nf)
                t4_lo, mask = t4[:, :, :nf - s], flags[:2 * nf].reshape(2, nf)
                upwind = _pair(pairs.reshape(-1)[(1 - left) * s:], size + (2 * left - 1) * s, nf)
                ops += [(np.multiply, fl, fl, t4), (np.add, t4[0], t4[1], dots),
                        (np.multiply, fl[:, :, :nf - s], fl[:, :, s:], t4_lo),
                        (np.add, t4_lo[0], t4_lo[1], pairs[:, s:nf]),
                        (np.copyto, pairs.reshape(2, -1, s)[:, ::size // s - 1], 0.0),
                        (np.greater, dots, 0.0, mask), (np.copyto, theta, 0.0),
                        (partial(np.divide, where=mask), upwind, dots, theta),
                        *_phi_ops(limiter, theta, theta, work(6, 2, nf)),
                        (np.multiply, theta, fl, t4)]
                waves = t4
            coef = work(4, 2, nf)
            ops += [(np.multiply, d, c, coef), (np.subtract, 1.0, coef, coef)]
            if fwave:
                ops.append((np.multiply, sign_half, coef, coef))
            else:
                half = work(8, 2, nf)
                ops += [(np.multiply, 0.5, c, half), (np.multiply, half, coef, coef)]
            ops += [(np.multiply, coef, waves, t4), (np.add, t4[:, 0], t4[:, 1], flux)]
            if not fwave:       # the fluctuations: speed-weighted waves, or the f-waves
                ops += [(np.multiply, c, fl, fl), (np.negative, fl[:, left], fl[:, left])]
                if dry is not None:
                    ops.append((np.copyto, fl, 0.0, "same_kind", dry))
            dq_l, dq_r, mid, diff = dq[cs, lo], dq[cs, hi], dq[cs, s:nf], work(4, 2, nf - s)
            ops += [(np.multiply, d, fl, t4), (np.subtract, dq_r, t4[:, 1 - left], dq_r),
                    (np.subtract, dq_l, t4[:, left], dq_l)]
            tail += [(np.subtract, flux[:, s:], flux[:, :nf - s], diff),
                     (np.multiply, d, diff, diff), (np.subtract, mid, diff, mid)]
            self.faces.append((c, dry))
            self.speeds.append(float(np.max(_face_speeds(c, dry), initial=0.0,
                                            where=inside[lo] | inside[hi])))
        # transverse splits of each side's axis-a fluctuations feed the
        # other axis's fluxes at the faces below and above the cell entered
        zeros = (-0.0, -0.0) if fwave and left else (0.0, 0.0) if fwave else (-0.0, 0.0)
        update = np.add if left else np.subtract
        for a in range(nd if nd == 2 else 0):
            sa, sb, flux = self.steps[a], self.steps[1 - a], views[2 - a]
            n = size - sb - max(sa, sb)     # from c0: cells with a side-h face, ±sb neighbours
            for h, side, zero in ((0, left, zeros[0]), (1, 1 - left, zeros[1])):
                c0 = max(sb, h * sa)
                fl0 = fls[a][0, side, c0 - h * sa:][:n]
                xt, ct = (_pair(cells[k][c0 - sb:], 2 * sb, n) for k in (eq.x_field, "c"))
                k, den = work(0, 2, 2, n), work(6, n)
                lo_t, hi_t = flux[:, c0 - sb:c0 - sb + n], flux[:, c0:c0 + n]
                ops += [(np.add, xt[0], xt[1], den),
                        (transverse_parts, *((zero, fl0) if p else (fl0, zero)), xt, xt[::-1], ct,
                         den, work(4, 2, n), k[:, p], k[:, 1 - p]),
                        (np.multiply, self.dtd[nd + a], k, k),
                        (update, lo_t, k[left], lo_t), (update, hi_t, k[1 - left], hi_t)]
        if eq.is_swe:
            tail.append((np.multiply, dq, wet, dq))
        self.ops = ops + tail + [(partial(np.add, where=inside), q, dq, q)]


# ---------------------------------------------------------------------------
# Level layouts

# A level steps in bands of whole shelves of at most about this many cells,
# and samples its parent in blocks of this many; it bounds the step's work
# arrays (a first step of an 8,100-cell band peaks at 1.6 MB in tracemalloc).
BAND_CELLS = 8192


# Shelf widths tried, as multiples of the square root of the boxes' total
# area; the first wins ties, so no level packs larger than at that width.
SHELF_FACTORS = (1.0, 0.7, 0.8, 0.9, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0)


def _shelf_pack(boxes):
    """Box offsets, the packed extent, and bands (x-ranges of whole shelves
    of at most BAND_CELLS cells).  2D boxes go thickest first onto shelves
    filled along y up to a width; shelves stack along x.  The width is the
    one of max(widest box, f·√(total area)), f in SHELF_FACTORS, that packs
    into the smallest area with no shelf over BAND_CELLS cells (which would
    widen the kernel's temporaries); the first width is always a candidate.
    A 1D box is a shelf of its own."""
    nd = len(boxes[0])
    order = sorted(range(len(boxes)), key=lambda k: -boxes[k][0])
    root, widest = math.sqrt(sum(math.prod(b) for b in boxes)), max(b[-1] for b in boxes)
    factors = SHELF_FACTORS if nd == 2 else SHELF_FACTORS[:1]     # 1D: any width alike
    packs = [_shelves(boxes, order, w)
             for w in dict.fromkeys(max(widest, math.ceil(f * root)) for f in factors)]
    offsets, shelves, ny = min((p for k, p in enumerate(packs)
                                if k == 0 or max(p[1]) * p[2] <= BAND_CELLS),
                               key=lambda p: sum(p[1]) * p[2])
    edges, bands = np.cumsum(shelves).tolist(), [[0, 0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if bands[-1][1] > 0 and (hi - bands[-1][0]) * ny > BAND_CELLS:
            bands.append([lo, lo])
        bands[-1][1] = hi
    return offsets, (edges[-1], ny)[:nd], bands


def _shelves(boxes, order, width):
    """Offsets, shelf thicknesses (after a leading 0) and the filled y-extent
    of the boxes laid in `order` onto shelves `width` wide."""
    nd = len(boxes[0])
    offsets, shelves, x, y, ny = [None] * len(boxes), [0], 0, width, 1
    for k in order:
        if nd == 1 or y + boxes[k][1] > width:
            x += shelves[-1]
            shelves.append(boxes[k][0])
            y = 0
        offsets[k] = (x, y)[:nd]
        if nd == 2:
            y += boxes[k][1]
            ny = max(ny, y)
    return offsets, shelves, ny


def _padding_material(like, shape):
    """Padding of `like`'s kind in which solves stay finite: dry, or unit."""
    if isinstance(like, SweMaterial):
        return SweMaterial.create(np.zeros(shape), 0.0, like.gravity)
    return AcousticsMaterial.create(np.ones(shape), np.ones(shape))


class LevelLayout:
    """One level's ghost-padded patches shelf-packed into one array.

    `state` (m, NX[, NY]), the saved `state_old` and the material `aux` hold
    every patch's box; each patch's `state`, `state_old` and `aux` are views of
    them.  Padding holds zero state and a material in which solves stay
    finite (dry, or unit).  A lone contiguous patch is adopted without a
    copy.  The layout and its cached plans hold while the level is the same
    patches with the same views (`matches`); patches hold their layout,
    which holds them weakly.  Ghost fills are copies over the packed arrays,
    and the coarse one a stencil over the packed parent level.  A step
    writes interiors only: ghosts keep their last fill, padding its zeros.
    """

    def __init__(self, patches, sample=None):
        """Pack `patches`, copying their state and material, or with `sample` =
        (equation, boundary, level_shape) sampling the material at each box
        cell's center straight into the packed arrays; behind a domain side it
        is then copied along the physical ghost fill's map (materials are
        pointwise, so copying equals sampling at the mirrored or edge cell)."""
        self._refs = tuple(weakref.ref(p) for p in patches)
        p0 = patches[0]
        self.level = p0.spec.level
        if len(patches) == 1 and p0.state.flags.c_contiguous:
            self.offsets, bands = [(0,) * p0.spec.ndim], [[0, p0.state.shape[1]]]
            self.state, self.state_old, self.aux = p0.state, p0.state_old, p0.aux
        else:
            self.offsets, shape, bands = _shelf_pack([p.spec.total_shape for p in patches])
            self.state = np.zeros((p0.num_components, *shape))
            self.state_old = (None if any(p.state_old is None for p in patches)
                              else self.state.copy())
            self.aux = None if p0.aux is None or sample else _padding_material(p0.aux, shape)
            if self.aux is not None and not all(
                    getattr(p.aux, "validated", True) for p in patches):
                self.aux = replace(self.aux)      # unmarked: the solvers check it
            for p, box in zip(patches, self._boxes()):
                self.state[(slice(None), *box)] = p.state
                p.state = self.state[(slice(None), *box)]
                if self.state_old is not None:
                    self.state_old[(slice(None), *box)] = p.state_old
                    p.state_old = self.state_old[(slice(None), *box)]
                if self.aux is not None:
                    for f in fields(self.aux):
                        if isinstance(getattr(self.aux, f.name), np.ndarray):
                            getattr(self.aux, f.name)[box] = getattr(p.aux, f.name)
                    p.aux = self.aux[box]
        self.bands = [slice(a, b) for a, b in bands]
        self.flat = self.state.reshape(self.state.shape[0], -1)
        self.cells = sum(math.prod(p.spec.shape) for p in patches)
        shape = self.state.shape[1:]
        self.interior, self._ghost = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        gidx = [np.zeros(shape, dtype=np.int32) for _ in shape]
        self._owner = np.zeros(shape, dtype=np.int32)       # the patch holding each box cell
        for k, (p, box) in enumerate(zip(patches, self._boxes())):
            g = p.spec.ghost_width
            self._owner[box] = k
            self._ghost[box] = True
            self.interior[tuple(slice(b.start + g, b.stop - g) for b in box)] = True
            for a, i in enumerate(gidx):
                i[box] = np.arange(p.spec.lo[a] - g, p.spec.hi[a] + g + 1).reshape(
                    [-1 if c == a else 1 for c in range(len(shape))])
        self._ghost &= ~self.interior
        # packed flat and global indices of every interior, then ghost, cell;
        # `cover` looks global indices up in the interiors' bounding box
        self.interior_cells, (ghost, gi) = [
            (np.flatnonzero(m).astype(np.int32), tuple(i[m] for i in gidx))
            for m in (self.interior, self._ghost)]
        flat, inner = self.interior_cells
        lo = [int(i.min()) - 1 for i in inner]
        self._table = lo, np.full([int(i.max()) - l + 2 for i, l in zip(inner, lo)], -1,
                                  dtype=np.int32)
        self._table[1][tuple(i - l for i, l in zip(inner, lo))] = flat
        src = self.cover(gi)
        self.same_level = (ghost[src >= 0], src[src >= 0])
        self._open = (ghost[src < 0], tuple(i[src < 0] for i in gi))   # for the coarse fill
        self._coarse = self._physical = self._kernel = None
        self.memo = {}     # plans other modules derive from these patches
        if sample:
            _, behind, reads, _ = self._physical_plan(sample[1], sample[0], sample[2])
            at = (self.interior | self._ghost).reshape(-1)
            at[behind], at[reads] = False, True       # a copy's source is sampled
            sampled = sample[0].sample_material(*(o + (i.reshape(-1)[at] + 0.5) * w for o, i, w
                                                  in zip(p0.spec.origin, gidx, p0.spec.widths)))
            self.aux = _padding_material(sampled, shape)
            for f in fields(self.aux):
                if isinstance(a := getattr(self.aux, f.name), np.ndarray):
                    a.reshape(-1)[at] = getattr(sampled, f.name)
                    a.reshape(-1)[behind] = a.reshape(-1)[reads]
            for p, box in zip(patches, self._boxes()):
                p.aux = self.aux[box]
        for p in patches:
            p.layout = self
        self._bind()

    patches = property(lambda self: tuple(r() for r in self._refs))
    time = property(lambda self: self._refs[0]().time)
    time_old = property(lambda self: self._refs[0]().time_old)

    def _boxes(self):
        return [tuple(slice(o, o + n) for o, n in zip(off, p.spec.total_shape))
                for off, p in zip(self.offsets, self.patches)]

    def _bind(self):
        self._views = [(p.state, p.state_old, p.aux) for p in self.patches]

    def matches(self, patches) -> bool:
        """True while `patches` are this layout's patches holding its views."""
        return len(patches) == len(self._refs) and all(
            p is r() and p.state is s and p.state_old is o and p.aux is a
            for p, r, (s, o, a) in zip(patches, self._refs, self._views))

    @classmethod
    def of(cls, patches) -> "LevelLayout":
        """The layout the patches hold, or a new one when it does not match."""
        lay = patches[0].layout
        return lay if lay is not None and lay.matches(patches) else cls(patches)

    def save_old(self):
        """Save every patch's state and time for space-time interpolation."""
        if self.state_old is None:
            self.state_old = np.empty_like(self.state)
            for p, box in zip(self.patches, self._boxes()):
                p.state_old = self.state_old[(slice(None), *box)]
            self._bind()
        np.copyto(self.state_old, self.state)
        for p in self.patches:
            p.time_old = p.time

    def cover(self, idx):
        """The packed flat index of the interior cell holding each global index
        of `idx` (one broadcastable array per axis): -1 where none does, the
        last in packed order where interiors overlap."""
        lo, table = self._table
        return table[tuple(np.clip(i - l, 0, n - 1) for i, l, n in zip(idx, lo, table.shape))]

    def centers(self):
        """Cell-center coordinates of the interior cells, one array per axis."""
        spec = self._refs[0]().spec
        return tuple(spec.origin[a] + (i + 0.5) * spec.widths[a]
                     for a, i in enumerate(self.interior_cells[1]))

    def fill_ghosts(self, hierarchy: PatchHierarchy, t: float, boundary: BoundarySpec,
                    equation: EquationSet):
        """Coarse space-time interpolation, same-level copies, then the
        physical boundary conditions."""
        if self.level >= 2:
            self.fill_from_coarse(hierarchy, t)
        self.fill_same_level()
        self.fill_physical(boundary, equation, hierarchy.level_shape(self.level))

    def fill_same_level(self):
        dst, src = self.same_level
        if len(dst):
            self.flat[:, dst] = self.flat[:, src]

    def fill_physical(self, boundary: BoundarySpec, equation: EquationSet, level_shape):
        _, dst, src, sign = self._physical_plan(boundary, equation, level_shape)
        vals = self.flat[:, src]
        vals *= sign
        self.flat[:, dst] = vals

    def _physical_plan(self, boundary: BoundarySpec, equation: EquationSet, level_shape):
        """(key, dst, src, sign): every ghost behind a domain side, the cell
        it reads and the sign per component, packed flat.  Such ghosts are
        all open (no interior holds them).  Behind a wall a ghost reads its
        mirror cell with the normal component negated, behind an outflow
        side the edge cell; a corner ghost does both.  The source lies in
        the ghost's own box, so its packed index is the ghost's plus the
        index shift along each axis times that axis's packed stride."""
        key = (boundary, equation, tuple(level_shape))
        if self._physical is None or self._physical[0] != key:
            ghost, gi = self._open
            out = np.any([(i < 0) | (i >= n) for i, n in zip(gi, level_shape)], axis=0)
            shape = self.state.shape[1:]
            dst = ghost[out].astype(np.intp)
            src, sign = dst.copy(), np.ones((self.state.shape[0], len(dst)))
            for a, (i, n) in enumerate(zip(gi, level_shape)):
                i = i[out]
                low, high = i < 0, i >= n
                wall_lo, wall_hi = (boundary.side(a, h) == "wall" for h in (False, True))
                j = np.where(low, -1 - i if wall_lo else 0,
                             np.where(high, 2 * n - 1 - i if wall_hi else n - 1, i))
                src += (j - i) * math.prod(shape[a + 1:])
                sign[equation.normal_component(a), (low & wall_lo) | (high & wall_hi)] *= -1.0
            self._physical = (key, dst, src, sign)
        return self._physical

    def fill_from_coarse(self, hierarchy: PatchHierarchy, t: float):
        """In-domain ghosts that no same-level interior covers, interpolated
        in space and time from the parent level."""
        parent = level_layout(hierarchy, self.level - 1)
        if parent is None:
            return
        if self._coarse is None or self._coarse[0] is not parent:
            ghost, gi = self._open
            inside = np.all([(i >= 0) & (i < n) for i, n
                             in zip(gi, hierarchy.level_shape(self.level))], axis=0)
            pos, stencil = self._parent_stencil(hierarchy, parent, tuple(i[inside] for i in gi))
            self._coarse = (parent, ghost[inside][pos], stencil)
        _, dst, stencil = self._coarse
        if len(dst):
            self.flat[:, dst] = space_time_apply(parent, stencil, t)

    def fill_new(self, hierarchy: PatchHierarchy, t: float, old: "LevelLayout | None"):
        """A new level's interiors: the old level's interior data wherever it
        covers them, the parent level at time t elsewhere."""
        parent = level_layout(hierarchy, self.level - 1)
        cells, gi = self.interior_cells
        if old is not None:
            src = old.cover(gi)
            self.flat[:, cells[src >= 0]] = old.flat[:, src[src >= 0]]
            rest = np.flatnonzero(src < 0)
            cells, gi = cells[rest], tuple(i[rest] for i in gi)
        for k in range(0, len(cells), BAND_CELLS):     # bounds the temporaries
            part = slice(k, k + BAND_CELLS)
            pos, st = self._parent_stencil(hierarchy, parent, tuple(i[part] for i in gi))
            self.flat[:, cells[part][pos]] = space_time_apply(parent, st, t)

    def _parent_stencil(self, hierarchy: PatchHierarchy, parent: "LevelLayout", idx):
        """The positions in `idx` (global indices on this level) whose parent
        cell a parent interior holds, and the stencil there over the packed
        parent, each point read in the box of the patch holding it."""
        held = parent.cover([i // hierarchy.ratio_to_finer(self.level - 1) for i in idx])
        pos = np.flatnonzero(held >= 0)
        k = parent._owner.reshape(-1)[held[pos]]
        specs, ws = [p.spec for p in parent.patches], self._refs[0]().spec.widths
        g, widths = specs[0].ghost_width, specs[0].widths
        lo, n = (np.array([getattr(s, f) for s in specs])[k].T for f in ("lo", "total_shape"))
        centers = [o + (i[pos] + 0.5) * w for o, i, w in zip(hierarchy.origin, idx, ws)]
        return pos, build_stencil(centers, [o + (l - g) * w for o, l, w in zip(
            hierarchy.origin, lo, widths)], widths, tuple(n), parent.state.shape[1:],
            tuple(np.array(parent.offsets)[k].T))

    def step(self, dt: float, equation: EquationSet, limiter: str = "MC") -> float:
        """Advance every patch by dt; the Courant number is max|s|·dt/dx over
        interfaces touching a patch interior.  CflViolationError (above 1)
        and NumericalBlowupError name the offending patch.  An interior
        update reads only its own box: each cell gets its patch's own step.
        A band steps by its `_BandPlan`, whose max|s| (of the material only)
        gives a Courant number equal to the largest of its patches'.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self._kernel is None or self._kernel[:2] != (equation, limiter):
            self._kernel = (equation, limiter, [None] * len(self.bands))
        plans, dtd = self._kernel[2], [dt / w for w in self._refs[0]().spec.widths]
        courant = 0.0
        for b, plan in enumerate(plans):
            if plan is None or plan.gen != _Scratch.gen:
                plan = plans[b] = _BandPlan(self, b, equation, limiter)
            band = max(0.0, *(s * d for s, d in zip(plan.speeds, dtd)))
            if band > 1.0 + 1e-12:
                patch, cfl = self._cfl_offender(plan, dtd)
                raise CflViolationError(f"{patch}: Courant number {cfl:.4f} > 1")
            for a, d in enumerate(dtd):
                plan.dtd[a][...], plan.dtd[len(dtd) + a][...] = d, 0.5 * d
            for op, *args in plan.ops:
                op(*args)
            courant = max(courant, band)
        for r in self._refs:
            r().time += dt
        if not np.isfinite(self.state).all():
            for p in self.patches:
                if not np.isfinite(p.interior()).all():
                    raise NumericalBlowupError(f"{p}: non-finite state after the step")
        return courant

    def _cfl_offender(self, plan: _BandPlan, dtd):
        """The band's first patch above the unit Courant number, and its
        Courant number: each interface touching an interior is charged to
        that interior's patch."""
        x = self.bands[plan.band]
        inside, owner = self.interior[x].reshape(-1), self._owner[x].reshape(-1)
        cfl = np.zeros(len(self.offsets))
        for (c, dry), s, d in zip(plan.faces, plan.steps, dtd):      # d > 0: max(v)·d = max(v·d)
            lo, hi = slice(0, len(inside) - s), slice(s, None)
            touch = inside[lo] | inside[hi]
            np.maximum.at(cfl, np.where(inside[lo], owner[lo], owner[hi])[touch],
                          _face_speeds(c, dry)[touch] * d)
        k = int(np.argmax(cfl > 1.0 + 1e-12))
        return self._refs[k](), float(cfl[k])


def level_layout(hierarchy: PatchHierarchy, level: int) -> LevelLayout | None:
    """The layout of a level's patches (None for an empty level)."""
    patches = hierarchy.patches(level)
    return LevelLayout.of(patches) if patches else None


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


def march(clock, advance, t_end: float, dt: float, output_times=(), on_output=None):
    """Call advance(step) until clock() reaches t_end, in steps of at most dt
    clipped so every output time is hit exactly; on_output(t) fires once at
    each (including the start when listed)."""
    pending = sorted(output_times)
    eps = 1e-9 * max(abs(t_end), 1.0)

    def flush_outputs():
        while pending and pending[0] <= clock() + eps:
            t_out = pending.pop(0)
            if on_output is not None:
                on_output(t_out)

    flush_outputs()
    while (t := clock()) < t_end - eps:
        step = min(dt, t_end - t)
        if pending:
            step = min(step, pending[0] - t)
        advance(step)
        flush_outputs()


# ---------------------------------------------------------------------------
# One-patch entry points, kept only for tests and perfbench's `LAYERS`: no run
# calls them.  Each rebinds the patch's arrays to a layout of it alone, which
# detaches a patch of a multi-patch level from its level's layout.


def sample_patch_material(patch: Patch, equation: EquationSet,
                          boundary: BoundarySpec, level_shape: tuple[int, ...]):
    """Sample the material at every cell center, interior and ghost (the
    rule of `LevelLayout`'s `sample`, on a layout of this patch alone)."""
    LevelLayout([patch], sample=(equation, boundary, level_shape))
    return patch.aux


def fill_ghost_physical(patch: Patch, boundary: BoundarySpec, equation: EquationSet,
                        level_shape: tuple[int, ...]):
    """Fill the ghosts behind domain sides: a wall mirrors the interior with
    the normal velocity/momentum negated, an outflow side copies the edge
    cell, and a corner ghost outside the domain in both directions takes both."""
    LevelLayout.of([patch]).fill_physical(boundary, equation, level_shape)


def fill_ghost_same_level(patch: Patch, level_patches: list[Patch]):
    """Copy same-level interior data into the ghosts of `patch` and of every
    other patch of `level_patches`, its level."""
    LevelLayout.of(level_patches).fill_same_level()


def fill_ghost_from_coarse(fine_patch: Patch, hierarchy: PatchHierarchy, t: float):
    """Fill in-domain ghosts by bilinear-in-space, linear-in-time interpolation
    of the parent level, which must hold a saved (time_old, state_old) pair
    bracketing t; anything else is a driver scheduling bug."""
    if fine_patch.spec.level >= 2:
        LevelLayout.of([fine_patch]).fill_from_coarse(hierarchy, t)


def step_patch(patch: Patch, dt: float, equation: EquationSet,
               limiter: str = "MC") -> float:
    """Advance one patch by dt and return the step's Courant number
    (`LevelLayout.step` on a layout of this patch alone)."""
    return LevelLayout.of([patch]).step(dt, equation, limiter)


def integrate_patch(patch: Patch, equation: EquationSet, boundary: BoundarySpec,
                    level_shape: tuple[int, ...], t_end: float, *,
                    courant_target: float = 0.9, limiter: str = "MC",
                    dt_max: float = np.inf, dt_fixed: float | None = None,
                    output_times=(), on_output=None, on_step=None):
    """Advance one uniform patch to t_end with physical boundaries only.

    Steps go through `march`; on_output(t, patch) fires at each output time,
    and on_step(patch) after every accepted step.
    """
    dt = dt_fixed if dt_fixed is not None else _cfl_dt(
        [patch], equation, patch.spec.widths, courant_target, dt_max)

    def advance(step):
        LevelLayout.of([patch]).fill_physical(boundary, equation, level_shape)
        LevelLayout.of([patch]).step(step, equation, limiter)
        if on_step is not None:
            on_step(patch)

    march(lambda: patch.time, advance, t_end, dt, output_times,
          None if on_output is None else lambda t: on_output(t, patch))
