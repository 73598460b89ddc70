#!/usr/bin/env python3
"""Print a sha256 digest of the outputs of every bundled config.

Each config runs `run_forward` twice: with its own strategy (adjoint configs
get an in-memory adjoint store first), then with the strategy it is
compared against, difference flagging (surface flagging for shallow water),
one line each.  The digest covers every gauge series (times
and values) and every output frame: all patches of all levels, with their
level, index box, time and interior values.  1D configs also digest the
three x-t masks of `run_xt_map`.  Two versions of the program whose outputs
are bitwise equal print the same lines.

    PYTHONPATH=src python3 scripts/output_digest.py [--config-dir configs]
"""

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
from adjamr.config import parse_config
from adjamr.driver import run_adjoint, run_forward, run_xt_map

XT_THRESHOLD = 0.1


def _update(digest, *arrays):
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())


def frame_hasher(digest):
    def on_output(t, h):
        _update(digest, np.float64(t))
        for level in range(1, h.num_levels() + 1):
            for p in sorted(h.patches(level), key=lambda q: q.spec.lo):
                _update(digest, np.array([level, *p.spec.lo, *p.spec.hi]),
                        np.float64(p.time), p.interior())
    return on_output


def digest_run(cfg, strategy: str, store) -> str:
    digest = hashlib.sha256()
    res = run_forward(cfg, strategy_name=strategy, store=store,
                      on_output=frame_hasher(digest))
    for gid in sorted(res.gauges):
        times, values = res.gauges[gid].as_arrays()
        _update(digest, np.array([gid]), times, values)
    return f"{strategy} {digest.hexdigest()} cell_steps={res.timing.total_cell_steps}"


def digest_config(path: str):
    """Yield the own-strategy line, then the comparison-strategy line."""
    with open(path) as f:
        cfg = parse_config(f.read())
    name = os.path.basename(path)
    store = None
    if cfg.strategy == "adjoint" or cfg.ndim == 1:
        store, _ = run_adjoint(cfg)
    line = f"{name} {digest_run(cfg, cfg.strategy, store)}"
    if cfg.ndim == 1:
        xt = hashlib.sha256()
        _update(xt, *run_xt_map(cfg, store, XT_THRESHOLD))
        line += f" xt={xt.hexdigest()}"
    yield line
    other = "surface" if cfg.equation.startswith("swe") else "difference"
    yield f"{name} {digest_run(cfg, other, store)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config-dir",
                    default=os.path.join(os.path.dirname(__file__), "..", "configs"))
    args = ap.parse_args()
    for name in sorted(os.listdir(args.config_dir)):
        if name.endswith(".cfg"):
            for line in digest_config(os.path.join(args.config_dir, name)):
                print(line, flush=True)


if __name__ == "__main__":
    main()
