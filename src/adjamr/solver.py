"""Time stepping with the second-order wave-propagation scheme, a level at a time.

A step applies first-order Godunov fluctuations, limited second-order
correction fluxes, and (in 2D) transverse corrections, all computed from the
state at the step's start.  Ghost cells must be filled beforehand; wet/dry
masking for shallow water is handled inside the step by mirroring interface
states, discarding updates into dry cells, and suppressing correction fluxes
across wet/dry faces so closed basins conserve mass to roundoff.

A `LevelLayout` owns one level's data: its ghost-padded boxes packed into
one array, so a level steps and fills its ghosts in a few array operations
however many patches it has; every run, a uniform one included, steps levels
this way through `amr.advance_hierarchy`.  A patch is a view of its level.
The one-patch entry points (`step_patch`, ... at the end) run the same code
on a free patch's one-patch level; they are kept only for tests and
perfbench's `LAYERS`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .equations import (C, EquationSet, InvalidMaterialError, split_jump, transverse_parts,
                        wet as wet_cells)
from .geometry import (Patch, PatchHierarchy, PatchSpec, Stencil, apply_stencil,
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


def _source(i, n: int, boundary: BoundarySpec, axis: int):
    """The index of the cell a ghost fill reads for each global index `i` on
    an axis of n cells: behind a wall the mirror cell, behind an outflow
    side the edge cell, and inside the domain `i` itself."""
    wall_lo, wall_hi = (boundary.side(axis, h) == "wall" for h in (False, True))
    i = np.maximum(i, -1 - i if wall_lo else 0)
    return np.minimum(i, 2 * n - 1 - i if wall_hi else n - 1)


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
    state, its (face) material rows and the shared `_Scratch`, built once
    per band, equation set and limiter; `dtd` holds the step's dt/dx.
    Material rows are read by name (`EquationSet.rows`).

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
        inside, aux = lay.interior[x].reshape(-1), lay.aux[:, x].reshape(len(lay.aux), -1)
        size, q = len(inside), lay.state[:, x].reshape(len(lay.state), -1)
        self.steps = [math.prod(lay.state.shape[2 + a:]) for a in range(nd)]
        cells = dict(zip(eq.rows, aux))
        if eq.is_swe:       # dry cells clamped to unit depth, so solves there stay finite
            wet = wet_cells(aux)
            gd = cells["gravity"] * np.where(wet, cells["depth"], 1.0)
            cells = {"c": np.sqrt(gd), "gd": gd} if eq.fwave else {"c": np.sqrt(gd)}
        if not (cells["c"] > 0).all():
            k = lay._owner[x].reshape(size)[np.argmin(cells["c"] > 0)]
            raise InvalidMaterialError(f"{Patch.view(lay, int(k))}: wave speeds must be positive")
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


class LevelLayout:
    """The one owner of a level's data: its ghost-padded boxes shelf-packed
    into one array.  `state` (m, NX[, NY]), the saved `state_old` and the
    material rows `aux` (rows, NX[, NY]) hold every box, and `time` and
    `time_old` are the level's; its patches (`Patch.view`) are views of it.
    It keeps specs, not patches, so a replaced level is freed by reference
    counting.  Padding holds zero state and unit material rows, in which
    solves stay finite (wet, for shallow water).  Ghost fills are copies over
    the packed arrays, and the coarse one a `stencil` over the packed parent
    level.  A step writes interiors only: ghosts keep their last fill,
    padding its zeros.
    """

    def __init__(self, specs: list[PatchSpec], num_components: int, time: float = 0.0):
        """Zero state over the boxes of `specs`, one level's, at `time`."""
        self.specs, spec = tuple(specs), specs[0]
        self.level, self.time, self.time_old = spec.level, float(time), None
        self.offsets, shape, bands = _shelf_pack([s.total_shape for s in self.specs])
        self.boxes = [tuple(slice(o, o + n) for o, n in zip(off, s.total_shape))
                      for off, s in zip(self.offsets, self.specs)]
        self.state, self.state_old, self.aux = np.zeros((num_components, *shape)), None, None
        self.bands = [slice(a, b) for a, b in bands]
        self.flat = self.state.reshape(self.state.shape[0], -1)
        self.cells = sum(math.prod(s.shape) for s in self.specs)
        self.interior, self._ghost = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        gidx = [np.zeros(shape, dtype=np.int32) for _ in shape]
        self._owner = np.zeros(shape, dtype=np.int32)       # the patch holding each box cell
        g = spec.ghost_width
        for k, (s, box) in enumerate(zip(self.specs, self.boxes)):
            self._owner[box] = k
            self._ghost[box] = True
            self.interior[tuple(slice(b.start + g, b.stop - g) for b in box)] = True
            for a, i in enumerate(gidx):
                i[box] = np.arange(s.lo[a] - g, s.hi[a] + g + 1).reshape(
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
        self.memo = {}     # plans other modules derive from this level

    def save_old(self):
        """Save the level's state and time for space-time interpolation."""
        if self.state_old is None:
            self.state_old = np.empty_like(self.state)
        np.copyto(self.state_old, self.state)
        self.time_old = self.time

    def sample_material(self, equation: EquationSet, boundary: BoundarySpec,
                        level_shape: tuple[int, ...]):
        """Sample the material into each box of `aux` (allocated at the first
        sample, padding unit rows) on `np.ix_` axes built once for the level,
        at the cell centers of `_source`: a ghost behind a domain side holds
        the material of the cell its fill reads."""
        spec, g = self.specs[0], self.specs[0].ghost_width
        axes = [o + (_source(np.arange(-g, n + g), n, boundary, a) + 0.5) * w
                for a, (o, w, n) in enumerate(zip(spec.origin, spec.widths, level_shape))]
        if self.aux is None:
            self.aux = np.ones((len(equation.rows), *self.state.shape[1:]))
        for s, box in zip(self.specs, self.boxes):
            # a material constant along an axis broadcasts
            self.aux[(slice(None), *box)] = equation.sample_material(*np.ix_(
                *(x[l:h + 2 * g + 1] for x, l, h in zip(axes, s.lo, s.hi))))

    def cover(self, idx):
        """The packed flat index of the interior cell holding each global index
        of `idx` (one broadcastable array per axis): -1 where none does, the
        last in packed order where interiors overlap."""
        lo, table = self._table
        return table[tuple(np.clip(i - l, 0, n - 1) for i, l, n in zip(idx, lo, table.shape))]

    def centers(self, idx=None):
        """Cell-center coordinates of the global indices `idx` on this level
        (one array per axis), by default of the interior cells."""
        spec = self.specs[0]
        return tuple(o + (i + 0.5) * w for o, i, w in zip(
            spec.origin, self.interior_cells[1] if idx is None else idx, spec.widths))

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
        it reads (`_source` on each axis) and the sign per component, packed
        flat.  Such ghosts are all open (no interior holds them).  Behind a
        wall the normal component is negated.  The source lies in the
        ghost's own box, so its packed index is the ghost's plus the index
        shift along each axis times that axis's packed stride."""
        key = (boundary, equation, tuple(level_shape))
        if self._physical is None or self._physical[0] != key:
            ghost, gi = self._open
            out = np.any([(i < 0) | (i >= n) for i, n in zip(gi, level_shape)], axis=0)
            shape = self.state.shape[1:]
            dst = ghost[out].astype(np.intp)
            src, sign = dst.copy(), np.ones((self.state.shape[0], len(dst)))
            for a, (i, n) in enumerate(zip(gi, level_shape)):
                i = i[out]
                src += (_source(i, n, boundary, a) - i) * math.prod(shape[a + 1:])
                wall_lo, wall_hi = (boundary.side(a, h) == "wall" for h in (False, True))
                sign[equation.normal_component(a), (i < 0) & wall_lo | (i >= n) & wall_hi] *= -1.0
            self._physical = (key, dst, src, sign)
        return self._physical

    def fill_from_coarse(self, hierarchy: PatchHierarchy, t: float):
        """In-domain ghosts that no same-level interior covers, interpolated
        in space and time from the parent level (none on level 1)."""
        parent = level_layout(hierarchy, self.level - 1)
        if parent is None:
            return
        if self._coarse is None or self._coarse[0] is not parent:
            ghost, gi = self._open
            inside = np.all([(i >= 0) & (i < n) for i, n
                             in zip(gi, hierarchy.level_shape(self.level))], axis=0)
            pos, stencil = parent.stencil(hierarchy, self.centers(tuple(i[inside] for i in gi)))
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
            pos, st = parent.stencil(hierarchy, self.centers(tuple(i[part] for i in gi)))
            self.flat[:, cells[part][pos]] = space_time_apply(parent, st, t)

    def stencil(self, hierarchy: PatchHierarchy, coords, ghosts: bool = True):
        """(pos, stencil): the positions in `coords` (points in the domain, one
        array per axis) whose cell an interior of this level holds (the last
        cell on the domain's upper side), and the stencil there over the
        packed arrays.  Each point is read in the box of the patch holding it,
        with its ghosts or clamped to its interior (for stale ghosts)."""
        spec, shape = self.specs[0], hierarchy.level_shape(self.level)
        held = self.cover([np.minimum(np.floor((c - o) / w).astype(int), n - 1)
                           for c, o, w, n in zip(coords, spec.origin, spec.widths, shape)])
        pos = np.flatnonzero(held >= 0)
        k = self._owner.reshape(-1)[held[pos]]
        g, inset = spec.ghost_width, 0 if ghosts else spec.ghost_width
        lo, n = (np.array([getattr(s, f) for s in self.specs])[k].T
                 for f in ("lo", "total_shape"))
        first = [o + (l - g + inset) * w for o, l, w in zip(spec.origin, lo, spec.widths)]
        return pos, build_stencil([c[pos] for c in coords], first, spec.widths, tuple(n - 2 * inset),
                                  self.state.shape[1:], tuple(np.array(self.offsets)[k].T + inset))

    def step(self, dt: float, equation: EquationSet, limiter: str = "MC") -> float:
        """Advance the level by dt; the Courant number is max|s|·dt/dx over
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
        plans, dtd = self._kernel[2], [dt / w for w in self.specs[0].widths]
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
        self.time += dt
        if not np.isfinite(self.state).all():       # the first patch with a non-finite interior
            bad = self._owner[self.interior & ~np.isfinite(self.state).all(axis=0)]
            if len(bad):
                raise NumericalBlowupError(
                    f"{Patch.view(self, int(bad.min()))}: non-finite state after the step")
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
        return Patch.view(self, k), float(cfl[k])


def level_layout(hierarchy: PatchHierarchy, level: int) -> LevelLayout | None:
    """The layout that owns a level (None for an empty level)."""
    patches = hierarchy.patches(level)
    return _layout_of(patches, f"level {level}") if patches else None


def _layout_of(patches, what: str) -> LevelLayout:
    """The layout whose patches are exactly `patches`, in order."""
    lay = patches[0].layout
    if [(p.layout, p.index) for p in patches] != [(lay, k) for k in range(len(lay.specs))]:
        raise ValueError(f"{what}: not one layout's patches in order")
    return lay


def _cfl_dt(lay: LevelLayout, courant_target: float, dt_max: float) -> float:
    """The dt at the target Courant number for the fastest interior cell of
    a level (the largest of material row C), capped at dt_max."""
    max_speed = float(np.max(lay.aux[C][lay.interior], initial=0.0))
    if max_speed == 0.0:
        return dt_max
    return min(min(courant_target * w / max_speed for w in lay.specs[0].widths), dt_max)


def select_dt(hierarchy: PatchHierarchy, courant_target: float = 0.9,
              dt_max: float = np.inf) -> float:
    """Coarse-level dt from the CFL target; finer levels subcycle by ratio.
    The wave speed is row C of every system's material."""
    if not (0.0 < courant_target <= 1.0):
        raise ValueError("courant_target must be in (0, 1]")
    return _cfl_dt(level_layout(hierarchy, 1), courant_target, dt_max)


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
# calls them.  Each runs on the one-patch level of a free patch (`alone`).


def alone(patch: Patch) -> LevelLayout:
    """The level of a free patch; ValueError for a patch that shares its level."""
    if len(patch.layout.specs) > 1:
        raise ValueError(f"{patch} shares its level with {len(patch.layout.specs) - 1} others")
    return patch.layout


def fill_ghost_physical(patch: Patch, boundary: BoundarySpec, equation: EquationSet,
                        level_shape: tuple[int, ...]):
    """Fill the ghosts behind domain sides: a wall mirrors the interior with
    the normal velocity/momentum negated, an outflow side copies the edge
    cell, and a corner ghost outside the domain in both directions takes both."""
    alone(patch).fill_physical(boundary, equation, level_shape)


def fill_ghost_same_level(patch: Patch, level_patches: list[Patch]):
    """Same-level copies into the ghosts of `level_patches`, `patch`'s level."""
    _layout_of(level_patches, repr(patch)).fill_same_level()


def fill_ghost_from_coarse(fine_patch: Patch, hierarchy: PatchHierarchy, t: float):
    """Fill in-domain ghosts by bilinear-in-space, linear-in-time interpolation
    of the parent level, which must hold a saved (time_old, state_old) pair
    bracketing t; anything else is a driver scheduling bug."""
    alone(fine_patch).fill_from_coarse(hierarchy, t)


def sample_patch_material(patch: Patch, equation: EquationSet,
                          boundary: BoundarySpec, level_shape: tuple[int, ...]):
    """`LevelLayout.sample_material` of a free patch."""
    alone(patch).sample_material(equation, boundary, level_shape)


def step_patch(patch: Patch, dt: float, equation: EquationSet,
               limiter: str = "MC") -> float:
    """Advance one patch by dt and return the step's Courant number."""
    return alone(patch).step(dt, equation, limiter)


def integrate_patch(patch: Patch, equation: EquationSet, boundary: BoundarySpec,
                    level_shape: tuple[int, ...], t_end: float, *,
                    courant_target: float = 0.9, limiter: str = "MC",
                    dt_max: float = np.inf, dt_fixed: float | None = None,
                    output_times=(), on_output=None, on_step=None):
    """Advance one uniform patch to t_end with physical boundaries only.

    Steps go through `march`; on_output(t, patch) fires at each output time,
    and on_step(patch) after every accepted step.
    """
    lay = alone(patch)
    dt = dt_fixed if dt_fixed is not None else _cfl_dt(lay, courant_target, dt_max)

    def advance(step):
        lay.fill_physical(boundary, equation, level_shape)
        lay.step(step, equation, limiter)
        if on_step is not None:
            on_step(patch)

    march(lambda: patch.time, advance, t_end, dt, output_times,
          None if on_output is None else lambda t: on_output(t, patch))
