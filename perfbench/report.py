"""Run every workload on several seeds and print the end-to-end summary.

    python3 perfbench/report.py [--workloads a,b] [--seeds 0-9]
                                [--seconds 10] [--trace] [--out FILE]

Run from the repository root.  Each (workload, seed) is one
`perfbench/run.py` process, run one after another.  For every end-to-end
metric that applies to a workload the table gives unit, median, quartiles,
spread (interquartile range over median), the high percentile, the sample
count and the failure share.  The high percentile is the highest one with
at least ten samples above it; with fewer than twenty samples it is the
maximum, and the table says so.  With --trace, one traced run per workload
(the first seed) adds the per-layer breakdown.  --out writes everything as
JSON.  The exit code is 1 when any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import scenarios  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                           + proc.stderr[-2000:])
    detail, line = json.loads(lines[-2]), json.loads(lines[-1])
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return detail, line


def high_percentile(values: list[float]) -> tuple[str, float]:
    n = len(values)
    if n < 20:
        return "max", max(values)
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100)[p - 1]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    label, hi = high_percentile(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "high_label": label, "high": hi, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(scenarios.WORKLOADS))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    any_failed = False
    for w in args.workloads.split(","):
        values, units = {}, {}
        attempted = failed = 0
        host = None
        for seed in seeds:
            detail, line = run_one(w, seed, args.seconds, trace=False)
            attempted += line["attempted"]
            failed += line["failed"]
            any_failed |= not line["correct"]
            host = detail["host"]
            for k, v in detail["e2e"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        entry = {"why": scenarios.WORKLOADS[w].why, "attempted": attempted,
                 "failed": failed, "host": host,
                 "e2e": {k: {"unit": units[k], **summarize(v), "values": v}
                         for k, v in values.items()}}
        print(f"\n{w}: {scenarios.WORKLOADS[w].why}")
        print(f"  runs {len(seeds)}, solutions attempted {attempted}, "
              f"failure share {failed / max(attempted, 1):.3f}")
        print(f"  {'metric':<12} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'high':>15} {'n':>3}")
        for k, s in entry["e2e"].items():
            print(f"  {k:<12} {s['unit']:<6} {s['median']:>11.5g} {s['q1']:>11.5g} "
                  f"{s['q3']:>11.5g} {s['spread']:>7.3f} "
                  f"{s['high_label'] + ' ' + format(s['high'], '.5g'):>15} {s['n']:>3}")
        if args.trace:
            detail, line = run_one(w, seeds[0], args.seconds, trace=True)
            any_failed |= not line["correct"]
            entry["per_layer"] = {"seed": seeds[0], "metrics": line["metrics"],
                                  "counts": detail["counts"],
                                  "self_s": detail.get("trace_self_s", {})}
            print(f"  per-layer (traced, seed {seeds[0]}):")
            for k, v in line["metrics"].items():
                if v["value"]:
                    print(f"    {k:<34} {v['value']:>14.6g} {v['unit']}")
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
