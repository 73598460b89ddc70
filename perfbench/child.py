"""One process of the benchmark: a timed in-memory solve or `adjamr` command
line, or the untimed verification run of an in-memory adjoint workload.

    python3 perfbench/child.py MODE --workload W --config CFG --out DIR
        --result FILE --spawn T [--trace 0|1] [--setup-only 0|1] [-- CLI ARGS]

MODE is `solve`, `cli` or `verify`.  `--spawn` is the parent's wall clock
(time.time()) just before starting this process, so the reported import
time includes interpreter start-up.  With `--setup-only 1` a solve or CLI
process stops once its set-up is over.  The result is one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["solve", "cli", "verify"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    args.cli_args = argv[cut + 1:]
    return args


def peak_rss_mb() -> float:
    """This process's own peak resident set.

    `ru_maxrss` is not used: Linux carries the forking parent's resident size
    across exec into it, so a child would report at least the parent's size.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def tracer_report(tr, wall: float) -> dict:
    return {
        "stats": [[n, p, *v] for (n, p), v in tr.stats.items()],
        "counters": dict(tr.counters),
        "outer_s": dict(tr.outer_s),
        "hook_s": tr.hook_s,
        "spans": len(tr.span_start),
        "wall_s": wall,
    }


class SetupDone(BaseException):
    """Ends a set-up-only process.  Not an Exception, so that the CLI's own
    error handling lets it through."""


def stop_after_setup():
    """Make the first return of `driver.init_hierarchy` end the process.

    Set-up is everything before that return, so a set-up-only process runs
    the solution's own code path up to there and no further.
    """
    from adjamr import driver
    init = driver.init_hierarchy

    def init_then_stop(*args, **kwargs):
        init(*args, **kwargs)
        raise SetupDone

    driver.init_hierarchy = init_then_stop


def solve(args, scen, tr) -> dict:
    """The in-memory workloads: parse, adjoint (if any), forward; no files."""
    from adjamr import config, driver

    def body():
        with open(args.config) as f:
            cfg = config.parse_config(f.read())
        store = driver.run_adjoint(cfg)[0] if scen.adjoint else None
        return driver.run_forward(cfg, strategy_name="adjoint" if scen.adjoint else "difference",
                                  store=store)

    res = tr.run("bench.solve", body)
    times, values = res.gauges[1].as_arrays()
    return {"cell_steps": res.timing.total_cell_steps,
            "gauge_times": times.tolist(), "gauge_values": values.tolist()}


def verify(args) -> dict:
    """The untimed verification run of an in-memory adjoint workload: the
    same solve, with every output frame kept for j_drift."""
    import checks
    from adjamr import config, driver

    frames = []
    with open(args.config) as f:
        cfg = config.parse_config(f.read())
    store, _ = driver.run_adjoint(cfg)
    driver.run_forward(cfg, strategy_name="adjoint", store=store,
                       on_output=lambda t, h: frames.append((t, checks.frame_of(h))))
    return {"j_drift": checks.j_drift(cfg, store, frames)}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import numpy  # noqa: F401  (part of the measured import)
    import adjamr.cli
    import_s = time.time() - args.spawn

    import layers
    import scenarios
    from spans import Tracer

    scen = scenarios.WORKLOADS[args.workload]
    result = {"import_s": import_s, "rc": 0}
    if args.mode == "verify":
        result.update(verify(args))
    else:
        tr = Tracer()
        layers.install(tr, full=bool(args.trace))
        if args.setup_only:
            stop_after_setup()
        t0 = perf_counter()
        try:
            if args.mode == "solve":
                result.update(solve(args, scen, tr))
            else:
                result["rc"] = tr.run("cli.main", adjamr.cli.main, args.cli_args)
        except SetupDone:
            pass
        result["wall_s"] = perf_counter() - t0
        tr.uninstall()
        result["trace"] = tracer_report(tr, result["wall_s"])
        if args.trace:
            tr.save(os.path.join(args.out, f"spans_{args.mode}_{os.getpid()}.tsv"))
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result.update(rss_mb=peak_rss_mb(), user_s=ru.ru_utime, sys_s=ru.ru_stime,
                      minor_faults=ru.ru_minflt)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
