"""Workload definitions and the seeded config generator.

Seed 0 returns each bundled config byte for byte.  Any other seed shifts the
initial-condition centre by one seeded offset, and the functional's box or
disk together with its gauge by a second one.  Each offset is drawn per axis
from [-1, 1] coarse cells, so the scenario keeps its character while the
waves, the region of interest and the gauge move off the shipped grid
alignment.  The program only ever sees the generated text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # file under configs/
    why: str
    adjoint: bool        # the run computes (or reads) an adjoint store


WORKLOADS = {w.name: w for w in (
    Workload("walls-adjoint", "2d-walls-timerange.cfg",
             "regrid-heavy: adjoint flagging in memory; the windowed inner "
             "product and level rebuilds dominate", adjoint=True),
    Workload("walls-difference", "2d-walls-timepoint.cfg",
             "step kernel and ghost fill dominate: difference flagging, no "
             "store, so the inner product never runs", adjoint=False),
    Workload("basin-cli", "swe-basin.cfg",
             "the user's CLI path: shallow-water solvers, wet/dry masks, and "
             "the store, snapshots and gauges written and read as text", adjoint=True),
    Workload("interface-xt", "1d-interface.cfg",
             "no AMR: the 1D kernel, the largest adjoint solve and per-step "
             "window sampling, plus 17 MB of x-t masks", adjoint=True),
)}


def _fmt(v: float) -> str:
    return repr(round(v, 9))


def _coarse_widths(text: str) -> tuple[float, float | None]:
    def nums(key):
        m = re.search(rf"^{key}\s*=\s*([^#\n]+)", text, re.M)
        return None if m is None else [float(t) for t in m.group(1).split()]
    xlim, ylim, nx, ny = nums("xlim"), nums("ylim"), nums("nx"), nums("ny")
    wx = (xlim[1] - xlim[0]) / nx[0]
    wy = None if ylim is None else (ylim[1] - ylim[0]) / ny[0]
    return wx, wy


def _shift_line(text: str, key: str, first: int, shifts) -> str:
    """Add `shifts` to the numbers of `key = ...` starting at token `first`.

    A shift of None leaves that token alone; the trailing comment and the
    other tokens are kept as written.
    """
    pat = re.compile(rf"^({key}\s*=\s*)([^#\n]*?)(\s*(#.*)?)$", re.M)

    def sub(m):
        toks = m.group(2).split()
        for k, d in enumerate(shifts):
            if d is not None:
                toks[first + k] = _fmt(float(toks[first + k]) + d)
        return m.group(1) + " ".join(toks) + m.group(3)

    new, n = pat.subn(sub, text)
    if n == 0:
        raise ValueError(f"config has no '{key}' line to shift")
    return new


def generate(text: str, seed: int) -> str:
    """The config text for `seed`; seed 0 is `text` unchanged."""
    if seed == 0:
        return text
    rng = random.Random(seed)
    wx, wy = _coarse_widths(text)
    two_d = wy is not None

    def offset():
        return (rng.uniform(-1, 1) * wx,
                rng.uniform(-1, 1) * wy if two_d else None)

    ic = offset()
    roi = offset()

    # profile = cosine_hump amp x0 y0 ...  |  gaussian amp x0 [y0] beta
    text = _shift_line(text, "profile", 2, ic if two_d else ic[:1])

    shape = re.search(r"^shape\s*=\s*(\w+)", text, re.M).group(1)
    if shape == "box":
        if two_d:
            text = _shift_line(text, "shape", 1,
                               (roi[0], roi[0], roi[1], roi[1]))
        else:
            text = _shift_line(text, "shape", 1, (roi[0], roi[0]))
    elif shape == "disk":
        text = _shift_line(text, "shape", 1, roi)
    else:
        raise ValueError(f"unsupported functional shape {shape!r}")

    if re.search(r"^gauge\s*=", text, re.M):
        text = _shift_line(text, "gauge", 1, roi if two_d else roi[:1])
    return text


def refined_uniform(text: str, factor: int) -> str:
    """The same scenario on one uniform grid `factor` times finer per axis.

    With the finest AMR level's resolution this is the run that refinement
    everywhere converges to; it is the accuracy reference for gauge_err.
    """
    def scale(m):
        return f"{m.group(1)}{int(m.group(2)) * factor}"
    text = re.sub(r"^(n[xy]\s*=\s*)(\d+)", scale, text, flags=re.M)
    text = re.sub(r"^max_levels\s*=.*$", "max_levels = 1", text, flags=re.M)
    text = re.sub(r"^ratios\s*=.*\n", "", text, flags=re.M)
    return text
