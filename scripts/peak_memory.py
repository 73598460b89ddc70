#!/usr/bin/env python3
"""Print the peak resident set (VmHWM) of each bundled config's run.

Each config runs in a fresh `python3` process with the benchmark's BLAS
thread pins, PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1, as the
benchmark starts its children.  The process reports its VmHWM, in MB,
from /proc/self/status at three points: after importing numpy and adjamr,
after the in-memory adjoint solve, and after the forward run with the
config's own strategy.  For 1D configs the forward run is instead
`run_xt_map` at threshold 0.1 with a sink that discards each block.  The
output is `key = value` lines, `<config stem>.<point>_mb = <MB>`.

    python3 scripts/peak_memory.py [--config-dir configs]
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def vmhwm_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(path: str):
    """One config's run, in this process."""
    import numpy  # noqa: F401
    from adjamr.config import parse_config
    from adjamr.driver import run_adjoint, run_forward, run_xt_map
    print(f"imports_mb = {vmhwm_mb():.2f}")
    with open(path) as f:
        cfg = parse_config(f.read())
    store, _ = run_adjoint(cfg)
    print(f"adjoint_mb = {vmhwm_mb():.2f}")
    if cfg.ndim == 1:
        run_xt_map(cfg, store, 0.1, sink=lambda xs, times, masks: None)
    else:
        run_forward(cfg, store=store)
    print(f"forward_mb = {vmhwm_mb():.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config-dir", default=os.path.join(ROOT, "configs"))
    args = ap.parse_args()
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from run import THREAD_PINS
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               **{v: "1" for v in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH"))))
    for name in sorted(os.listdir(args.config_dir)):
        if name.endswith(".cfg"):
            out = subprocess.run([sys.executable, __file__, "--child",
                                  os.path.join(args.config_dir, name)],
                                 env=env, check=True, capture_output=True, text=True).stdout
            for line in out.splitlines():
                print(f"{name[:-4]}.{line}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
