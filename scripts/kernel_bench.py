#!/usr/bin/env python3
"""Microbenchmark of the step kernel: `LevelLayout.step` cell-updates per second.

Each equation set (1D and 2D acoustics with variable material, linear
shallow water with a dry shelf, and the time-reversed adjoint of each)
steps a level of one uniform patch of edge 16, 32 and 64 cells from a
seeded random state at Courant number 0.9, refilling its wall ghosts
(`fill_physical`) before every step;
the 1D sets also step a 1000-cell patch, the one band of the 1d-interface
x-t map run, and the 2D sets a 50 x 50 patch, a 54 x 54 band with its
ghosts: the most common band of both 2d-walls runs.
Each 2D set then steps a level shaped like the median finest-level layout
of the 2d-walls-timerange run under adjoint flagging (12 patches of edge
12 to 16), as free patches (`geometry.Patch`, a one-patch level each) and
as one level built as runs build them, by `amr.new_level`.
Only the steps are timed; a line reports the best of REPEATS runs of
SECONDS each, and next to it tracemalloc's peak over one later step (the
third, once plans are built and work arrays carved), in KiB.

    PYTHONPATH=src python3 scripts/kernel_bench.py
"""

import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
from adjamr import equations as eqs
from adjamr.amr import AmrContext, EverywhereFlagging, new_level
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import BoundarySpec, sample_patch_material

EDGES = (16, 32, 64)
XT_EDGE = 1000      # the 1d-interface grid: x-t map runs step one such band
BAND_EDGE = 50      # the 2d-walls runs' most common band: 54 x 54 with ghosts
SECONDS = 0.3       # timed seconds of steps per run
REPEATS = 3         # runs per line; the best is kept
LEVEL_EDGES = (12, 13, 14, 14, 15, 16, 12, 14, 14, 15, 13, 16)


def _acoustics_1d():
    return eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: 1.0 + 0.5 * np.sin(3.0 * x), lambda x: 1.0 + 0.3 * x))


def _acoustics_2d():
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 1.0 + 0.5 * np.sin(3.0 * x) * np.cos(2.0 * y),
        lambda x, y: 1.0 + 0.3 * x + 0.2 * y))


def _swe():
    # sea level 0; the shelf rises above it for x > 0.8
    return eqs.SweLinear2D(eqs.SweMaterialModel(
        lambda x, y: -10.0 + 12.5 * x + 0.5 * y, sea_level=0.0, gravity=9.81))


EQUATIONS = (("acoustics-1d", _acoustics_1d), ("acoustics-2d", _acoustics_2d),
             ("swe-linear-2d", _swe))


def _patches(equation, h, boxes):
    """The patches of level 1 of `h` over the index boxes (lo, hi), packed
    into one layout with walls on every side."""
    ctx = AmrContext(equation=equation, boundary=BoundarySpec(), strategy=EverywhereFlagging())
    return new_level(h, 1, boxes, ctx, 0.0)


def _free_patch(equation, h, box):
    """A free patch of level 1 of `h` over the index box (lo, hi): a level
    of its own, its material sampled with walls on every side."""
    p = Patch(h.make_spec(1, *box), equation.m)
    sample_patch_material(p, equation, BoundarySpec(), h.level_shape(1))
    return p


def uniform_patch(equation, edge: int, seed: int = 0):
    """A seeded edge^ndim patch on the unit square (or interval) with walls,
    the one patch of its level (`p.layout`); dt at Courant 0.9 and the level shape."""
    nd = 1 if equation.m == 2 else 2
    shape = (edge,) * nd
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None if nd == 1 else (0.0, 1.0),
                       base_shape=shape, ratios=[])
    p, = _patches(equation, h, [((0,) * nd, tuple(n - 1 for n in shape))])
    p.interior()[...] = np.random.default_rng(seed).normal(size=p.interior().shape)
    if equation.is_swe:
        p.interior()[...] *= eqs.wet(p.aux)[p.spec.interior_slices()]
    speed = float(np.max(p.aux[eqs.C]))
    return p, 0.9 * min(p.spec.widths) / speed, shape


def later_step_peak(step, before=lambda: None) -> float:
    """tracemalloc's peak in KiB over the third call of `step`, each call
    after one of `before` (untraced)."""
    for k in range(3):
        before()
        if k == 2:
            tracemalloc.start()
        step()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1024


def cell_updates_per_s(equation, edge: int, seconds: float, repeats: int):
    """(best cell-updates/s, later-step peak KiB) of one uniform patch."""
    best = 0.0
    for _ in range(repeats):
        p, dt, shape = uniform_patch(equation, edge)
        cells = int(np.prod(shape))
        steps, spent = 0, 0.0
        while spent < seconds:
            p.layout.fill_physical(BoundarySpec(), equation, shape)
            t0 = time.perf_counter()
            p.layout.step(dt, equation, "MC")
            spent += time.perf_counter() - t0
            steps += 1
        best = max(best, cells * steps / spent)
    p, dt, shape = uniform_patch(equation, edge)
    return best, later_step_peak(lambda: p.layout.step(dt, equation, "MC"),
                                 lambda: p.layout.fill_physical(BoundarySpec(), equation, shape))


def level_patches(equation, as_level: bool = True):
    """LEVEL_EDGES square patches, 4 x 3 and 18 cells apart, on a 72 x 54
    level of the unit square, with seeded interiors, one level or
    (`as_level` False) free patches, a one-patch level each; and dt at
    Courant 0.9."""
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=(0.0, 1.0), base_shape=(72, 54), ratios=[])
    boxes = [((18 * (k % 4), 18 * (k // 4)), (18 * (k % 4) + edge - 1, 18 * (k // 4) + edge - 1))
             for k, edge in enumerate(LEVEL_EDGES)]
    patches = (_patches(equation, h, boxes) if as_level else
               [_free_patch(equation, h, box) for box in boxes])
    rng = np.random.default_rng(0)
    for p in patches:
        p.interior()[...] = rng.normal(size=p.interior().shape)
        if equation.is_swe:
            p.interior()[...] *= eqs.wet(p.aux)[p.spec.interior_slices()]
    speed = max(float(np.max(p.aux[eqs.C])) for p in patches)
    return patches, 0.9 * min(h.widths(1)) / speed


def level_cell_updates_per_s(equation, seconds: float, repeats: int):
    """(patch by patch, as one level) cell-updates/s on `level_patches`, and
    their later-step peaks in KiB."""
    def stepper(as_level):
        patches, dt = level_patches(equation, as_level)
        layouts = {p.layout: None for p in patches}       # one, or one per patch
        return patches, lambda: [lay.step(dt, equation, "MC") for lay in layouts]

    rates, peaks = [], []
    for as_level in (False, True):
        best = 0.0
        for _ in range(repeats):
            patches, step = stepper(as_level)
            cells = sum(int(np.prod(p.spec.shape)) for p in patches)
            steps, t0 = 0, time.perf_counter()
            while time.perf_counter() - t0 < seconds:
                step()
                steps += 1
            best = max(best, cells * steps / (time.perf_counter() - t0))
        rates.append(best)
        patches, step = stepper(as_level)
        peaks.append(later_step_peak(step))
    return rates, peaks


def main():
    print(f"{'equation':32s} {'edge':>5s} {'cell-updates/s':>15s} {'peak KiB':>9s}")
    for name, make in EQUATIONS:
        forward = make()
        for eq in (forward, forward.adjoint().reversed()):
            for edge in EDGES + ((XT_EDGE,) if eq.m == 2 else (BAND_EDGE,)):
                rate, peak = cell_updates_per_s(eq, edge, SECONDS, REPEATS)
                print(f"{eq.name:32s} {edge:5d} {rate:15.4g} {peak:9.1f}", flush=True)
            if eq.m == 3:
                (by_patch, as_level), (peak_patch, peak_level) = level_cell_updates_per_s(
                    eq, SECONDS, REPEATS)
                print(f"{eq.name:32s} {'level':>5s} {by_patch:15.4g} {peak_patch:9.1f} patch by "
                      f"patch, {as_level:.4g} {peak_level:.1f} as one level", flush=True)


if __name__ == "__main__":
    main()
