"""Show where the gauge tolerance sits: the program's own error against runs
that under-refine.

    python3 perfbench/tolerance.py [--workloads a,b] [--seeds 0-9]

Run from the repository root.  For each workload with a gauge check and
each seed, gauge 1's max-abs error against the uniform reference is printed
as a share of the reference peak, for three runs of the generated config:
the three-level run the workload makes, the base grid alone, and two levels
with difference flagging.  The tolerance (checks.GAUGE_REL_TOL) is sound
when it passes every first run and fails every other one; the exit code is
1 when it does not.  Nothing is timed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import scenarios  # noqa: E402
from report import parse_seeds  # noqa: E402


def shares(workload: str, seed: int) -> tuple[float, float, float]:
    from adjamr import driver
    from adjamr.config import parse_config
    scen = scenarios.WORKLOADS[workload]
    with open(os.path.join(ROOT, "configs", scen.config)) as f:
        text = scenarios.generate(f.read(), seed)
    cache = checks.Cache(os.path.join(ROOT, ".perfbench", "cache"), text, SRC)
    if "gauge" not in cache.data:
        cache.data["gauge"] = checks.gauge_reference(text)
        cache.save()
    ref = cache.data["gauge"]
    peak = max(abs(v) for v in ref["values"])
    cfg = parse_config(text)

    def share(c, strategy, store=None):
        t, v = driver.run_forward(c, strategy_name=strategy, store=store).gauges[1].as_arrays()
        return checks.gauge_error(cfg, t, v, ref) / peak

    store = driver.run_adjoint(cfg)[0] if scen.adjoint else None
    full = share(cfg, "adjoint" if scen.adjoint else "difference", store)
    one = share(replace(cfg, max_levels=1, ratios=()), "difference")
    two = share(replace(cfg, max_levels=2, ratios=cfg.ratios[:1]), "difference")
    return full, one, two


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(checks.GAUGE_REL_TOL))
    ap.add_argument("--seeds", default="0-9")
    args = ap.parse_args(argv)
    ok = True
    for w in args.workloads.split(","):
        tol = checks.GAUGE_REL_TOL[w]
        print(f"{w}: tolerance {tol}")
        print(f"  {'seed':>4} {'3 levels':>9} {'1 level':>9} {'2 levels':>9}")
        for seed in parse_seeds(args.seeds):
            full, one, two = shares(w, seed)
            good = full <= tol < min(one, two)
            ok &= good
            print(f"  {seed:>4} {full:>9.4f} {one:>9.4f} {two:>9.4f}"
                  + ("" if good else "  <- tolerance does not separate these"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
