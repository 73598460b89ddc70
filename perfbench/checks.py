"""Output checks and the untimed references they compare against.

Nothing here runs inside a timed region.  The references are computed once
per generated config and version of the program, and cached under the
checkout's `.perfbench/cache/`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import scenarios

# Max-abs gauge difference allowed against the uniform reference, as a share
# of the reference gauge's peak |value|: twice the largest share seen on
# seeds 0-9 (0.088 walls-adjoint, 0.111 walls-difference, 0.022 basin-cli).
# Runs that under-refine exceed it on every one of those seeds: one level
# gave at least 0.37, 0.28 and 0.23, two levels with difference flagging at
# least 0.32, 0.30 and 0.075.
GAUGE_REL_TOL = {"walls-adjoint": 0.18, "walls-difference": 0.22, "basin-cli": 0.045}


def source_digest(src: str) -> str:
    """sha256 over the paths and contents of the program's `*.py` files."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "adjamr")
    paths = sorted(os.path.join(d, n) for d, _, names in os.walk(pkg)
                   for n in names if n.endswith(".py"))
    for path in paths:
        h.update(os.path.relpath(path, pkg).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def cache_key(text: str, src: str) -> str:
    """Key of one generated config run by one version of the program.

    The counts and references in a cache file are only compared within that
    version: a change to the program may change them on purpose.
    """
    return hashlib.sha256(text.encode() + b"\0" + source_digest(src).encode()).hexdigest()[:20]


class Cache:
    """One JSON file per generated config and program version: the
    references, the verification run's values and the counts seen."""

    def __init__(self, root: str, text: str, src: str):
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, cache_key(text, src) + ".json")
        self.data = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.data = json.load(f)

    def save(self):
        tmp = self.path + f".{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, sort_keys=True)
        os.replace(tmp, self.path)


def finest_factor(cfg) -> int:
    f = 1
    for r in cfg.ratios[:cfg.max_levels - 1]:
        f *= r
    return f


def component(cfg) -> int:
    """The state component the functional weights (pressure or elevation)."""
    return int(np.argmax(np.abs(cfg.functional.weights)))


def gauge_reference(text: str) -> dict:
    """Gauge 1 of the scenario on one uniform grid at the finest AMR width."""
    from adjamr import driver
    from adjamr.config import parse_config
    cfg = parse_config(text)
    fine = parse_config(scenarios.refined_uniform(text, finest_factor(cfg)))
    res = driver.run_forward(fine, strategy_name="everywhere")
    t, v = res.gauges[1].as_arrays()
    comp = component(cfg)
    return {"times": t.tolist(), "values": v[:, comp].tolist()}


def gauge_error(cfg, times, values, ref: dict) -> float:
    """Max-abs difference of the functional's component against `ref`."""
    from adjamr.runio import GaugeSeries, compare_gauges
    comp = component(cfg)
    a = GaugeSeries(1, (), list(ref["times"]), [np.array([v]) for v in ref["values"]])
    b = GaugeSeries(1, (), list(times), [np.array([row[comp]]) for row in values])
    max_abs, _ = compare_gauges(a, b)
    return float(max_abs[0])


def xt_counts_of_masks(xs, times, masks) -> dict:
    return {"rows": int(len(times)), "cells": int(len(xs)),
            **{k: int(np.count_nonzero(m)) for k, m in masks.items()}}


def xt_reference(text: str, threshold: float) -> dict:
    """Mask cell counts from the in-memory x-t run of the same config."""
    from adjamr import driver
    from adjamr.config import parse_config
    cfg = parse_config(text)
    store, _ = driver.run_adjoint(cfg)
    xs, times, mq, mqh, mi = driver.run_xt_map(cfg, store, threshold)
    return xt_counts_of_masks(xs, times, {"q": mq, "qhat": mqh, "inner": mi})


def xt_counts_of_files(out_dir: str) -> dict:
    """The same counts read from the `xt_*.txt` tables a run wrote."""
    counts = {}
    for key in ("q", "qhat", "inner"):
        rows = ones = cells = 0
        with open(os.path.join(out_dir, f"xt_{key}.txt")) as f:
            for line in f:
                if line.startswith("#"):
                    cells = len(line.split()) - 2
                    continue
                rows += 1
                ones += line.count(" 1")
        counts[key] = ones
        counts["rows"], counts["cells"] = rows, cells
    return counts


def frame_of(hierarchy) -> list:
    """A copy of every patch's interior: [(level, lo, hi, values)]."""
    return [(p.spec.level, p.spec.lo, p.spec.hi, p.interior().copy())
            for level in range(1, hierarchy.num_levels() + 1)
            for p in hierarchy.patches(level)]


def _hierarchy(cfg, frame, t):
    from adjamr.geometry import Patch, PatchHierarchy
    h = PatchHierarchy(xlim=cfg.xlim, ylim=cfg.ylim, base_shape=cfg.base_shape,
                       ratios=list(cfg.ratios))
    for level, lo, hi, values in frame:
        while len(h.levels) < level:
            h.levels.append([])
        p = Patch(h.make_spec(level, tuple(lo), tuple(hi)), values.shape[0], time=t)
        p.interior()[...] = values
        h.levels[level - 1].append(p)
    return h


def j_drift(cfg, store, frames) -> float:
    """max |J(t) - J(t0)| / |J(t0)| over the output frames [(t, frame)]."""
    from adjamr.adjoint import evaluate_J
    js = [evaluate_J(_hierarchy(cfg, fr, t), store, t) for t, fr in frames]
    if js[0] == 0.0:
        return math.inf
    return max(abs(j - js[0]) for j in js) / abs(js[0])


def frames_from_snapshots(snap_dir: str) -> list:
    """Output frames read back from `snapshots/`.

    The time comes from the base patch's header: under numpy 2 the index
    file writes it as `np.float64(...)`, which is not a number.
    """
    from adjamr.runio import read_snapshot
    frames = []
    with open(os.path.join(snap_dir, "index.txt")) as f:
        for line in f:
            recs = read_snapshot(os.path.join(snap_dir, line.split()[0]))
            frames.append((recs[0].time, [(r.level, r.lo, r.hi, r.values) for r in recs]))
    return frames
