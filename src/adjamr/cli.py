"""Command-line entry point.

Subcommands: run-adjoint, run-forward, compare, convergence, xt-map.
All take --config PATH and --out DIR; outputs land under --out with fixed
names (adjoint/, snapshots/, gauges/, timing.txt, compare.txt, xt_*.txt,
convergence.txt).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import driver
from .adjoint import ConfigurationError
from .config import STRATEGY_NAMES, ConfigError, parse_config
from .runio import compare_gauges, load_store


def _load_config(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def cmd_run_adjoint(args) -> int:
    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    warnings = []
    store, wall = driver.run_adjoint(cfg, out_dir=args.out,
                                     log=lambda msg: warnings.append(msg))
    for w in warnings:
        print(w, file=sys.stderr)
    print(f"adjoint store: {len(store.times)} snapshots "
          f"over [{store.times[0]:g}, {store.times[-1]:g}] "
          f"-> {os.path.join(args.out, 'adjoint')} ({wall:.2f}s)")
    return 0


def _get_store(args, required: bool):
    adj_dir = os.path.join(args.out, "adjoint")
    if os.path.exists(os.path.join(adj_dir, "index.txt")):
        return load_store(adj_dir)
    if required:
        raise ConfigurationError(
            f"adjoint-flagged run needs a store; run-adjoint first (looked in {adj_dir})")
    return None


def cmd_run_forward(args) -> int:
    cfg = _load_config(args.config)
    strategy = args.strategy or cfg.strategy
    os.makedirs(args.out, exist_ok=True)
    store = _get_store(args, required=(strategy == "adjoint"))
    res = driver.run_forward(cfg, strategy_name=strategy, store=store, out_dir=args.out)
    print(f"forward[{strategy}]: {len(res.snapshot_paths)} snapshots, "
          f"cell steps {res.timing.cell_steps} "
          f"({res.timing.forward_wall_seconds:.2f}s)")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    if len(args.strategies) < 2:
        print("compare needs at least two strategies", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    store = None
    adj_wall = 0.0
    if "adjoint" in args.strategies:
        store, adj_wall = driver.run_adjoint(cfg, out_dir=args.out)

    results = []
    failures = []
    seen = {}
    for s in args.strategies:
        seen[s] = seen.get(s, 0) + 1
        label = s if seen[s] == 1 else f"{s}.{seen[s]}"
        try:
            res = driver.run_forward(
                cfg, strategy_name=s, store=store,
                out_dir=os.path.join(args.out, label),
                adjoint_wall=adj_wall if s == "adjoint" else 0.0)
        except Exception as exc:       # partial table on sub-run failure
            failures.append(s)
            print(f"strategy {s} failed: {exc}", file=sys.stderr)
            res = None
        results.append((label, res))

    lines = []
    base = results[0][1]
    for k, (label, r) in enumerate(results):
        if r is None:
            lines.append(f"[{label}]\nstatus = failed\n")
            continue
        lines.append(f"[{label}]")
        lines.append("status = ok")
        lines.append(f"wall_seconds = {r.timing.forward_wall_seconds:.6g}")
        lines.append(f"adjoint_wall_seconds = {r.timing.adjoint_wall_seconds:.6g}")
        for lev in sorted(r.timing.cell_steps):
            lines.append(f"cell_steps_level_{lev} = {r.timing.cell_steps[lev]}")
        lines.append(f"total_cell_steps = {r.timing.total_cell_steps}")
        lines.append(f"fine_cell_steps = {r.timing.fine_cell_steps()}")
        lines.append(f"flagged_cells_total = {sum(r.timing.flagged_per_regrid)}")
        if k > 0 and base is not None:
            for gid, series in r.gauges.items():
                max_abs, rms = compare_gauges(base.gauges[gid], series)
                lines.append(f"gauge_{gid}_maxabs = "
                             + " ".join(format(v, ".6g") for v in max_abs))
                lines.append(f"gauge_{gid}_rms = "
                             + " ".join(format(v, ".6g") for v in rms))
        lines.append("")
    with open(os.path.join(args.out, "compare.txt"), "w") as f:
        f.write("\n".join(lines))
    print("\n".join(lines))
    return 1 if failures else 0


def cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    rows = driver.run_convergence(cfg, args.levels_of_resolution)
    lines = ["# cells  l1_error" + ("  order" if len(rows) > 1 else "")]
    for n, err, order in rows:
        line = f"{n} {err:.8e}"
        if order is not None:
            line += f" {order:.3f}"
        lines.append(line)
    out = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "convergence.txt"), "w") as f:
        f.write(out)
    print(out, end="")
    return 0


def cmd_xt_map(args) -> int:
    cfg = _load_config(args.config)
    driver.check_xt_threshold(args.threshold)      # before the adjoint solve
    os.makedirs(args.out, exist_ok=True)
    store = _get_store(args, required=False)
    if store is None:
        store, _ = driver.run_adjoint(cfg, out_dir=args.out)
    xs, times, mq, mqh, mi = driver.run_xt_map(cfg, store, args.threshold)
    driver.write_xt_table(os.path.join(args.out, "xt_q.txt"), xs, times, mq)
    driver.write_xt_table(os.path.join(args.out, "xt_qhat.txt"), xs, times, mqh)
    driver.write_xt_table(os.path.join(args.out, "xt_inner.txt"), xs, times, mi)
    print(f"x-t masks: {len(times)} rows x {len(xs)} cells -> {args.out}/xt_*.txt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adjamr",
        description="Finite-volume wave propagation with adjoint-guided AMR")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("run-adjoint", help="solve and store the adjoint snapshots")
    common(p)
    p.set_defaults(fn=cmd_run_adjoint)

    p = sub.add_parser("run-forward", help="forward AMR run with one strategy")
    common(p)
    p.add_argument("--strategy",
                   choices=STRATEGY_NAMES,
                   help="flagging strategy (default: from config)")
    p.set_defaults(fn=cmd_run_forward)

    p = sub.add_parser("compare", help="run several strategies and compare")
    common(p)
    p.add_argument("strategies", nargs="+",
                   help="two or more flagging strategies; first is the reference")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("convergence", help="uniform-grid resolution study")
    common(p)
    p.add_argument("--levels-of-resolution", type=int, default=3)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("xt-map", help="1D space-time threshold masks")
    common(p)
    p.add_argument("--threshold", type=float, default=0.1)
    p.set_defaults(fn=cmd_xt_map)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ConfigurationError, driver.UnsupportedConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:        # solver failures and the like
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
