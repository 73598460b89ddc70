#!/usr/bin/env python3
"""Microbenchmark of the step kernel: `step_patch` cell-updates per second.

Each equation set (1D and 2D acoustics with variable material, linear
shallow water with a dry shelf, and the time-reversed adjoint of each)
steps one uniform patch of edge 16, 32 and 64 cells from a seeded random
state at Courant number 0.9, refilling its wall ghosts before every step.
Only the `step_patch` calls are timed; a line reports the best of
REPEATS runs of SECONDS each.

    PYTHONPATH=src python3 scripts/kernel_bench.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
from adjamr import equations as eqs
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import (BoundarySpec, fill_ghost_physical,
                           sample_patch_material, step_patch)

EDGES = (16, 32, 64)
SECONDS = 0.3       # timed step_patch seconds per run
REPEATS = 3         # runs per line; the best is kept


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


def uniform_patch(equation, edge: int, seed: int = 0):
    """A seeded edge^ndim patch on the unit square (or interval) with walls."""
    nd = 1 if equation.m == 2 else 2
    shape = (edge,) * nd
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None if nd == 1 else (0.0, 1.0),
                       base_shape=shape, ratios=[])
    p = Patch(h.make_spec(1, (0,) * nd, tuple(n - 1 for n in shape)), equation.m)
    sample_patch_material(p, equation, BoundarySpec(), shape)
    p.interior()[...] = np.random.default_rng(seed).normal(size=p.interior().shape)
    if equation.is_swe:
        p.interior()[...] *= p.aux.wet[p.spec.interior_slices()]
    speed = float(np.max(equation.max_speed(p.aux)))
    return p, 0.9 * min(p.spec.widths) / speed, shape


def cell_updates_per_s(equation, edge: int, seconds: float, repeats: int) -> float:
    best = 0.0
    for _ in range(repeats):
        p, dt, shape = uniform_patch(equation, edge)
        cells = int(np.prod(shape))
        steps, spent = 0, 0.0
        while spent < seconds:
            fill_ghost_physical(p, BoundarySpec(), equation, shape)
            t0 = time.perf_counter()
            step_patch(p, dt, equation, "MC")
            spent += time.perf_counter() - t0
            steps += 1
        best = max(best, cells * steps / spent)
    return best


def main():
    print(f"{'equation':32s} {'edge':>5s} {'cell-updates/s':>15s}")
    for name, make in EQUATIONS:
        forward = make()
        for eq in (forward, forward.adjoint().reversed()):
            for edge in EDGES:
                rate = cell_updates_per_s(eq, edge, SECONDS, REPEATS)
                print(f"{eq.name:32s} {edge:5d} {rate:15.4g}", flush=True)


if __name__ == "__main__":
    main()
