"""adjamr benchmark: time to solution on four bundled scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's bundled config is rewritten
for the seed (seed 0 is the config as shipped), then solved again and again,
each time in a fresh process, until S seconds have passed (at least once):
a closed loop with one client.  Every solution's outputs are checked, and
every solution's own set-up phases give one set-up sample; when there are
fewer than SETUP_SAMPLES, further solutions are started and stopped once
their set-up is over.  With --trace 1 the first solution runs untraced and
the rest with a span around every call listed in perfbench/layers.py, which
gives the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1).  The line before it holds every end-to-end value that applies to
the workload, the per-solution samples, the deterministic counts and the
host.  The exit code is 0 when every check passed, 1 when one failed and 2
when the program is not there to run.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread everywhere, set before numpy is imported here or in
# a child.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _v in THREAD_PINS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0
# setup_s is the median of at least this many set-ups per run: those of the
# run's solutions, then probes that stop each solution once set-up is over.
# One sample alone swung by half its median between runs.
SETUP_SAMPLES = 5
XT_THRESHOLD = 0.1

# End-to-end metrics the result line carries (they apply to every
# workload), and the rest that the detail line adds where they apply.
E2E = {"wall_s": "s", "setup_s": "s", "forward_s": "s", "peak_rss_mb": "MB",
       "cell_steps": "count"}
E2E_EXTRA = {"adjoint_s": "s", "gauge_err": "1", "j_drift": "1"}


class CheckFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: str):
        import scenarios
        self.scen = scenarios.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.t_begin = perf_counter()
        self.nchild = 0
        self.cache = None
        self.ref = None
        self.j_drift = None
        with open(os.path.join(ROOT, "configs", self.scen.config)) as f:
            self.text = scenarios.generate(f.read(), seed)
        self.cfg_path = os.path.join(work, "scenario.cfg")
        with open(self.cfg_path, "w") as f:
            f.write(self.text)

    def child(self, mode: str, out: str, trace: bool = False, setup_only: bool = False,
              cli=()) -> dict:
        """Run one child process to completion; returns its result JSON."""
        return self.finish_child(self.start_child(mode, out, trace, setup_only, cli))

    def start_child(self, mode: str, out: str, trace: bool = False,
                    setup_only: bool = False, cli=()) -> tuple:
        self.nchild += 1
        res_path = os.path.join(self.work, f"result_{self.nchild}.json")
        err_path = os.path.join(self.work, f"stderr_{self.nchild}.txt")
        cmd = [sys.executable, CHILD, mode, "--workload", self.scen.name,
               "--config", self.cfg_path, "--out", out, "--result", res_path,
               "--trace", str(int(trace)), "--setup-only", str(int(setup_only))]
        if RUN_LIMIT_S - (perf_counter() - self.t_begin) <= 1.0:
            raise CheckFailed("run time limit reached")
        spawn = time.time()
        t0 = perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd + ["--spawn", repr(spawn), "--", *cli],
                                    env=child_env(), cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
        return proc, t0, res_path, err_path, mode, cli

    def finish_child(self, started: tuple) -> dict:
        """Wait for a started child; returns its result JSON."""
        proc, t0, res_path, err_path, mode, cli = started
        try:
            proc.wait(timeout=RUN_LIMIT_S - (perf_counter() - self.t_begin))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - t0
        with open(err_path) as f:
            stderr = f.read().strip()[-2000:]
        if proc.returncode != 0:
            raise CheckFailed(f"{mode} exited {proc.returncode}: " + stderr)
        with open(res_path) as f:
            res = json.load(f)
        if res.get("rc", 0) != 0:
            raise CheckFailed(f"adjamr {' '.join(cli)} returned {res['rc']}: " + stderr)
        res["process_wall_s"] = wall
        return res

    # -- one solution ------------------------------------------------------

    def processes(self, out: str, trace: bool, setup_only: bool = False) -> list:
        """Run the processes of one solution, one after another."""
        os.makedirs(out, exist_ok=True)
        name = self.scen.name
        if name.startswith("walls-"):
            return [self.child("solve", out, trace, setup_only)]
        if name == "basin-cli":
            common = ["--config", self.cfg_path, "--out", out]
            return [self.child("cli", out, trace, setup_only, ["run-adjoint", *common]),
                    self.child("cli", out, trace, setup_only,
                               ["run-forward", *common, "--strategy", "adjoint"])]
        if name == "interface-xt":
            return [self.child("cli", out, trace, setup_only,
                               ["xt-map", "--config", self.cfg_path, "--out", out,
                                "--threshold", repr(XT_THRESHOLD)])]
        raise ValueError(name)

    def setup_probe(self, out: str) -> float:
        """Set-up seconds of one more solution, stopped once set-up is over."""
        return setup_seconds(self.processes(out, trace=False, setup_only=True))

    def solve(self, out: str, trace: bool, verify_j: bool) -> dict:
        procs = self.processes(out, trace)
        first, last = procs[0]["trace"]["outer_s"], procs[-1]["trace"]["outer_s"]
        gauge = None
        if self.scen.name.startswith("walls-"):
            r = procs[0]
            sample = {"wall_s": r["wall_s"], "cell_steps": r["cell_steps"]}
            gauge = (r["gauge_times"], r["gauge_values"])
        else:
            sample = {"wall_s": sum(p["process_wall_s"] for p in procs)}
        xt = self.scen.name == "interface-xt"
        sample["forward_s"] = last["driver.run_xt_map" if xt else "driver.run_forward"]
        if self.scen.adjoint:
            sample["adjoint_s"] = first["driver.run_adjoint"]
        sample["peak_rss_mb"] = max(p["rss_mb"] for p in procs)
        sample["import_s"] = sum(p["import_s"] for p in procs)
        sample["setup_s"] = setup_seconds(procs)
        for key in ("user_s", "sys_s", "minor_faults"):
            sample[key] = sum(p[key] for p in procs)
        counts = self.verify(out, sample, gauge, verify_j)
        return {"sample": sample, "counts": counts,
                "trace": [p["trace"] for p in procs]}

    def verify(self, out: str, sample: dict, gauge, verify_j: bool) -> dict:
        """Check one solution's outputs; returns its deterministic counts."""
        import checks
        import layers
        from adjamr.config import parse_config
        cfg = parse_config(self.text)
        counts = {}
        name = self.scen.name
        if name == "basin-cli":
            from adjamr.runio import load_store, read_gauge, read_timing
            series = read_gauge(os.path.join(out, "gauges", "gauge_1.csv"))
            gauge = series.as_arrays()
            sample["cell_steps"] = read_timing(os.path.join(out, "timing.txt")).total_cell_steps
            counts["runio.store.bytes"] = layers.dir_bytes(os.path.join(out, "adjoint"))
            snap = os.path.join(out, "snapshots")
            counts["runio.snapshot.bytes"] = sum(
                os.path.getsize(os.path.join(snap, n)) for n in os.listdir(snap)
                if n.startswith("snap_"))
            if verify_j:
                store = load_store(os.path.join(out, "adjoint"))
                self.j_drift = checks.j_drift(cfg, store,
                                              checks.frames_from_snapshots(snap))
        if gauge is not None:
            import numpy as np
            times, values = np.asarray(gauge[0]), np.asarray(gauge[1])
            if len(times) == 0 or not (np.all(np.isfinite(times))
                                       and np.all(np.isfinite(values))):
                raise CheckFailed("gauge 1 is empty or not finite")
            err = checks.gauge_error(cfg, times, values, self.ref)
            sample["gauge_err"] = err
            tol = checks.GAUGE_REL_TOL[name] * max(abs(v) for v in self.ref["values"])
            if not err <= tol:
                raise CheckFailed(f"gauge_err {err:.4g} above tolerance {tol:.4g}")
        if name == "interface-xt":
            got = checks.xt_counts_of_files(out)
            if got != self.ref:
                raise CheckFailed(f"x-t mask counts {got} differ from the reference {self.ref}")
            sample["cell_steps"] = (got["rows"] - 1) * got["cells"]
            counts["driver.xt_table.bytes"] = sum(
                os.path.getsize(os.path.join(out, f"xt_{k}.txt"))
                for k in ("q", "qhat", "inner"))
        counts["cell_steps"] = sample["cell_steps"]
        return counts

    def load_reference(self):
        """Read the reference the checks compare against, computing it once
        per config and program version.  The in-memory adjoint workload also
        gets its verification run (j_drift) here, outside timing."""
        import checks
        self.cache = checks.Cache(os.path.join(ROOT, ".perfbench", "cache"), self.text, SRC)
        data = self.cache.data
        verify = None
        if self.scen.name == "walls-adjoint" and "j_drift" not in data:
            # runs on the second core while the reference is computed here
            out = os.path.join(self.work, "verify")
            os.makedirs(out, exist_ok=True)
            verify = self.start_child("verify", out)
        try:
            if self.scen.name == "interface-xt":
                kind, compute = "xt", lambda: checks.xt_reference(self.text, XT_THRESHOLD)
            else:
                kind, compute = "gauge", lambda: checks.gauge_reference(self.text)
            if kind not in data:
                data[kind] = compute()
                self.cache.save()
            self.ref = data[kind]
        finally:
            if verify is not None:
                data["j_drift"] = self.finish_child(verify)["j_drift"]
                self.cache.save()
        self.j_drift = data.get("j_drift")

    def check_counts(self, counts: dict):
        """Counts must equal those seen before for this config and program
        version, traced or not."""
        seen = self.cache.data.setdefault("counts", {}).setdefault(self.scen.name, {})
        diff = {k: (seen[k], v) for k, v in counts.items() if k in seen and seen[k] != v}
        if diff:
            raise CheckFailed(f"deterministic counts changed (before, now): {diff}")
        seen.update(counts)
        self.cache.save()


def setup_seconds(procs: list) -> float:
    """Set-up of one solution: each process's import plus its set-up phases."""
    import layers
    return sum(p["import_s"] + sum(p["trace"]["outer_s"].get(n, 0.0) for n in layers.SETUP)
               for p in procs)


def merge_traces(traces: list) -> tuple:
    """Sum span aggregates over processes; peaks and store sizes take the max."""
    stats, counters, outer = {}, {}, {}
    hook = wall = 0.0
    spans = 0
    for tr in traces:
        for name, parent, calls, incl, self_s in tr["stats"]:
            s = stats.setdefault((name, parent), [0, 0.0, 0.0])
            s[0] += calls
            s[1] += incl
            s[2] += self_s
        for k, v in tr["counters"].items():
            if "peak" in k or k.endswith("store.bytes"):
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v
        for k, v in tr["outer_s"].items():
            outer[k] = outer.get(k, 0.0) + v
        hook += tr["hook_s"]
        wall += tr["wall_s"]
        spans += tr["spans"]
    totals = {}
    for (name, _), (calls, incl, self_s) in stats.items():
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += calls
        t[1] += incl
        t[2] += self_s
    return stats, totals, counters, outer, hook, wall, spans


def per_layer(sol: dict, untraced_wall: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one traced solution, its deterministic counts,
    and the self seconds of every span name."""
    import layers
    stats, totals, counters, outer, hook, wall, spans = merge_traces(sol["trace"])
    m = layers.layer_metrics(totals, outer, stats, counters)
    roots = ("bench.solve", "cli.main")
    m.update({
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(v[2] for v in totals.values()),
        "trace.unattributed_share": sum(totals[r][2] for r in roots if r in totals) / wall,
        "trace.hook_s": hook,
        "trace.overhead_s": sol["sample"]["wall_s"] - untraced_wall,
        "trace.spans": spans,
        "cli.import_s": sol["sample"]["import_s"],
    })
    counts = {k: m[k] for k in layers.DETERMINISTIC}
    counts.update({k: v for k, v in m.items() if k.endswith(".bytes") and v})
    self_s = dict(sorted(((n, v[2]) for n, v in totals.items()), key=lambda kv: -kv[1]))
    return m, counts, self_s


def host_info() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "thread_pins": {v: os.environ[v] for v in THREAD_PINS}}


def median(xs):
    return statistics.median(xs) if xs else math.nan


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = os.path.join(ROOT, ".perfbench", "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(Runner(workload, seed, work), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def keep_spans(rn: Runner, out: str):
    """Move a traced solution's span files to .perfbench/spans/<workload>/."""
    dest = os.path.join(ROOT, ".perfbench", "spans", rn.scen.name)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for name in os.listdir(out):
        if name.startswith("spans_"):
            shutil.move(os.path.join(out, name), os.path.join(dest, name))


def _run(rn: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    attempted = failed = 0
    errors = []
    samples = []            # untraced solutions: the end-to-end metrics
    layer_samples = []      # traced solutions: the per-layer metrics
    counts = self_s = None
    out = None
    t_start = None
    while True:
        k = attempted
        attempted += 1
        traced = trace and k > 0
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        out = os.path.join(rn.work, f"sol_{k}")
        try:
            if t_start is None:             # the reference is not timed
                rn.load_reference()
                t_start = perf_counter()
            sol = rn.solve(out, traced, verify_j=(k == 0))
            if traced:
                lm, lcounts, sol_self = per_layer(sol, samples[0]["wall_s"])
                sol["counts"].update(lcounts)
                keep_spans(rn, out)
            rn.check_counts(sol["counts"])
            if traced:
                layer_samples.append(lm)
                self_s = self_s or sol_self
            else:
                samples.append(sol["sample"])
            counts = sol["counts"]
        except Exception as exc:       # a failed solution is counted, not fatal
            failed += 1
            errors.append(f"solution {k}: {type(exc).__name__}: {exc}\n"
                          + traceback.format_exc(limit=-3))
            if k == 0:
                break
        now = perf_counter()
        if now - t_start >= seconds and (not trace or attempted >= 2):
            break
        # leave room for one more solution of the same length and the probes
        if 2.0 * (now - rn.t_begin) + 30.0 > RUN_LIMIT_S:
            break

    setups = [s["setup_s"] for s in samples]
    try:
        while samples and len(setups) < SETUP_SAMPLES:
            setups.append(rn.setup_probe(os.path.join(rn.work, f"setup_{len(setups)}")))
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        errors.append(f"setup probe: {exc}")

    e2e = {}
    for key in list(E2E) + list(E2E_EXTRA):
        vals = setups if key == "setup_s" else [s[key] for s in samples if key in s]
        if vals:
            e2e[key] = median(vals)
    if samples and rn.j_drift is not None:
        e2e["j_drift"] = rn.j_drift
    if trace:
        import layers
        metrics = {}
        if layer_samples:
            metrics = {key: {"value": median([lm[key] for lm in layer_samples]), "unit": unit}
                       for key, unit in layers.PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E.items() if k in e2e}
    correct = failed == 0 and not errors and bool(metrics)
    units = {**E2E, **E2E_EXTRA}
    detail = {
        "workload": rn.scen.name, "seed": rn.seed, "why": rn.scen.why,
        "e2e": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "samples": samples,
        "setup_samples": setups,
        "counts": counts or {},
        "errors": errors,
        "host": host_info(),
    }
    if self_s is not None:
        detail["trace_self_s"] = self_s
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return detail, line


def main(argv=None) -> int:
    import scenarios
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adjamr", "cli.py")) or not os.path.isfile(
            os.path.join(ROOT, "configs", scenarios.WORKLOADS[args.workload].config)):
        print(f"error: run from the repository root; no adjamr sources or configs "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    detail, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in detail["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    for k, v in detail["e2e"].items():
        print(f"{args.workload} seed={args.seed} {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
