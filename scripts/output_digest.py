#!/usr/bin/env python3
"""Print a sha256 digest of the outputs of every bundled config.

Each config runs `run_forward` twice: with its own strategy (adjoint configs
get an in-memory adjoint store first), then with the strategy it is
compared against, difference flagging (surface flagging for shallow water),
one line each.  The digest covers every gauge series (times
and values) and every output frame: all patches of all levels, with their
level, index box, time and interior values.  1D configs also digest the
three x-t masks of `run_xt_map`.  Each line whose run solved an adjoint
ends with `store=`, a digest of the store's snapshot times and stacked
values, so a change to the adjoint solve shows even when it flips no flag.
Two versions of the program whose outputs are bitwise equal print the same
lines.

With `--files` it digests the files the command line writes instead, one
line per file: for each config, `run-adjoint` then `run-forward` with the
config's strategy, `compare` of that strategy against the comparison one,
and, for 1D configs, `xt-map --threshold 0.1`.  The values of the
`*wall_seconds` lines of `timing.txt` and `compare.txt` are masked, as they
hold wall times.  Two versions of the program that write the same bytes
print the same lines.

    PYTHONPATH=src python3 scripts/output_digest.py [--files] [--config-dir configs]
"""

import argparse
import contextlib
import hashlib
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
from adjamr import cli
from adjamr.config import parse_config
from adjamr.driver import run_adjoint, run_forward, run_xt_map

XT_THRESHOLD = 0.1


def comparison_strategy(cfg) -> str:
    """The strategy a config's own is compared against."""
    return "surface" if cfg.equation.startswith("swe") else "difference"


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
    tail = ""
    if store is not None:
        digest = hashlib.sha256()
        _update(digest, store.times, store.stack)
        tail = f" store={digest.hexdigest()}"
    line = f"{name} {digest_run(cfg, cfg.strategy, store)}"
    if cfg.ndim == 1:
        xt = hashlib.sha256()
        _update(xt, *run_xt_map(cfg, store, XT_THRESHOLD))
        line += f" xt={xt.hexdigest()}"
    yield line + tail
    yield f"{name} {digest_run(cfg, comparison_strategy(cfg), store)}{tail}"


WALL_LINE = re.compile(rb"^(\w*wall_seconds = ).*$", re.M)


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) in ("timing.txt", "compare.txt"):
        data = WALL_LINE.sub(rb"\1*", data)
    return hashlib.sha256(data).hexdigest()


def digest_files(path: str):
    """Yield `<config> <file> <sha256>` for every file the CLI writes."""
    with open(path) as f:
        cfg = parse_config(f.read())
    other = comparison_strategy(cfg)
    name = os.path.basename(path)
    runs = [("run", ["run-adjoint"]), ("run", ["run-forward", "--strategy", cfg.strategy]),
            ("compare", ["compare", cfg.strategy, other])]
    if cfg.ndim == 1:
        runs.append(("xt", ["xt-map", "--threshold", repr(XT_THRESHOLD)]))
    with tempfile.TemporaryDirectory() as tmp:
        for sub, (command, *rest) in runs:
            argv = [command, "--config", path, "--out", os.path.join(tmp, sub), *rest]
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
            if rc != 0:
                sys.exit(f"adjamr {' '.join(argv)} failed")
        for root, _, files in sorted(os.walk(tmp)):
            for fname in sorted(files):
                full = os.path.join(root, fname)
                yield f"{name} {os.path.relpath(full, tmp)} {file_digest(full)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config-dir",
                    default=os.path.join(os.path.dirname(__file__), "..", "configs"))
    ap.add_argument("--files", action="store_true",
                    help="digest the files the command line writes")
    args = ap.parse_args()
    digest = digest_files if args.files else digest_config
    for name in sorted(os.listdir(args.config_dir)):
        if name.endswith(".cfg"):
            for line in digest(os.path.join(args.config_dir, name)):
                print(line, flush=True)


if __name__ == "__main__":
    main()
