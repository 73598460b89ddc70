"""Which adjamr functions get a span, and the per-layer metrics built from them.

Span names are `<module>.<function>` of the module that defines the
function.  `LAYERS` lists every wrapped function for the traced run;
`PHASES` names the few of them timed in every run.  Layer times are
inclusive seconds of the named entry points unless the name says `self_s`.
"""

from __future__ import annotations

import os

import numpy as np


def _cells(patch) -> int:
    return int(np.prod(patch.spec.shape))


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, n))
               for n in os.listdir(directory))


def _hook_step(tr, args, kwargs, result):
    cells = _cells(args[0])
    tr.counters["solver.step.cells"] += cells
    if tr.active("adjoint.solve_adjoint"):
        tr.counters["adjoint.solve.cells"] += cells


def _hook_regrid(tr, args, kwargs, result):
    h, level = args[0], args[1]
    deepest = args[3] if len(args) > 3 else kwargs.get("deepest")
    deepest = h.max_levels if deepest is None else deepest
    for lev in range(level, deepest + 1):
        tr.counters[f"amr.regrid.count.L{lev}"] += 1
        key = f"amr.patches.peak.L{lev}"
        tr.counters[key] = max(tr.counters[key], len(h.patches(lev)))


def _hook_flag(tr, args, kwargs, result):
    tr.counters["amr.flag.cells"] += _cells(args[0])
    tr.counters["amr.flag.flagged"] += int(result.flags.sum())


def _hook_cluster(tr, args, kwargs, result):
    tr.counters["amr.cluster.boxes"] += len(result)
    tr.counters["amr.cluster.cells_marked"] += int(np.count_nonzero(args[0]))
    tr.counters["amr.cluster.cells_covered"] += sum(int(np.prod(b.shape)) for b in result)


def _hook_window(tr, args, kwargs, result):
    if tr.active("adjoint.inner_product_field"):
        tr.counters["adjoint.inner_product.snapshots"] += len(result)


def _hook_store(tr, args, kwargs, result):
    store = result[0] if isinstance(result, tuple) else result
    tr.counters["adjoint.store.bytes"] = sum(f.values.nbytes for f in store.fields)


def _hook_interp(tr, args, kwargs, result):
    tr.counters["geometry.interp.points"] += int(np.size(args[1]))


def _hook_save_store(tr, args, kwargs, result):
    tr.counters["runio.store.bytes"] = dir_bytes(args[1])
    _hook_store(tr, args, kwargs, args[0])


def _hook_load_store(tr, args, kwargs, result):
    tr.counters["runio.store.bytes"] = dir_bytes(args[0])
    _hook_store(tr, args, kwargs, result)


def _hook_snapshot(tr, args, kwargs, result):
    if not tr.active("runio.save_store"):
        tr.counters["runio.snapshot.bytes"] += os.path.getsize(args[1])


def _hook_xt(tr, args, kwargs, result):
    tr.counters["driver.xt_table.bytes"] += os.path.getsize(args[0])


# (module, function, hook).  The span is named after the defining module.
LAYERS = (
    ("config", "parse_config", None),
    ("config", "build_equation", None),
    ("driver", "run_adjoint", None),
    ("driver", "run_forward", None),
    ("driver", "run_xt_map", None),
    ("driver", "init_hierarchy", None),
    ("driver", "write_xt_table", _hook_xt),
    ("adjoint", "solve_adjoint", _hook_store),
    ("adjoint", "inner_product_field", None),
    ("adjoint", "query_window_times", _hook_window),
    ("amr", "advance_hierarchy", None),
    ("amr", "fill_level_ghosts", None),
    ("amr", "regrid", _hook_regrid),
    ("amr", "flag_cells", _hook_flag),
    ("amr", "buffer_flags", None),
    ("amr", "cluster", _hook_cluster),
    ("amr", "make_patch", None),
    ("amr", "restrict_fine_to_coarse", None),
    ("solver", "step_patch", _hook_step),
    ("solver", "integrate_patch", None),
    ("solver", "select_dt", None),
    ("solver", "fill_ghost_from_coarse", None),
    ("solver", "fill_ghost_same_level", None),
    ("solver", "fill_ghost_physical", None),
    ("solver", "space_time_interp", None),
    ("solver", "sample_patch_material", None),
    ("equations", "acoustics_rp_1d", None),
    ("equations", "acoustics_rp_normal_2d", None),
    ("equations", "acoustics_rp_transverse_2d", None),
    ("equations", "swe_linear_rp", None),
    ("equations", "swe_linear_transverse", None),
    ("equations", "adjoint_fwave_rp", None),
    ("equations", "adjoint_transverse", None),
    ("geometry", "interpolate_uniform", _hook_interp),
    ("geometry", "interpolate_patch", _hook_interp),
    ("runio", "save_store", _hook_save_store),
    ("runio", "load_store", _hook_load_store),
    ("runio", "write_snapshot", _hook_snapshot),
    ("runio", "record_gauge", None),
    ("runio", "write_gauge", None),
)

# The top-level calls timed in every run, without hooks: a handful of spans
# per run, so a run with only these stays untraced in practice.
PHASES = ("config.parse_config", "config.build_equation", "driver.run_adjoint",
          "driver.run_forward", "driver.run_xt_map", "driver.init_hierarchy",
          "runio.load_store")

# The phases that, with the process's import, make up set-up (setup_s).
SETUP = ("config.parse_config", "config.build_equation", "runio.load_store",
         "driver.init_hierarchy")


def install(tracer, full: bool):
    import importlib
    for mod, fn, hook in LAYERS:
        name = f"{mod}.{fn}"
        if full or name in PHASES:
            tracer.install(importlib.import_module(f"adjamr.{mod}"), fn, name,
                           hook if full else None)


# Per-layer metrics: name -> unit.  Counts marked deterministic must repeat
# exactly between runs of one seed, traced or not.
PER_LAYER = {
    "solver.step.s": "s", "solver.step.cells": "count",
    "solver.step.cells_per_s": "1/s",
    "solver.ghost.coarse.s": "s", "solver.ghost.same.s": "s",
    "solver.ghost.physical.s": "s", "solver.ghost.calls": "count",
    "equations.rp.acoustics.s": "s", "equations.rp.swe.s": "s",
    "equations.rp.adjoint.s": "s", "equations.rp.calls": "count",
    "amr.regrid.s": "s", "amr.regrid.self_s": "s",
    "amr.regrid.count.L2": "count", "amr.regrid.count.L3": "count",
    "amr.flag.s": "s", "amr.flag.cells": "count", "amr.flag.flagged": "count",
    "amr.buffer.s": "s", "amr.cluster.s": "s", "amr.cluster.boxes": "count",
    "amr.cluster.efficiency": "ratio", "amr.patch_fill.s": "s",
    "amr.restrict.s": "s",
    "amr.patches.peak.L2": "count", "amr.patches.peak.L3": "count",
    "adjoint.solve.s": "s", "adjoint.solve.cells": "count",
    "adjoint.inner_product.s": "s", "adjoint.inner_product.calls": "count",
    "adjoint.inner_product.snapshots": "count", "adjoint.store.bytes": "B",
    "geometry.interp.s": "s", "geometry.interp.calls": "count",
    "geometry.interp.points": "count",
    "runio.store.save_s": "s", "runio.store.load_s": "s",
    "runio.store.bytes": "B", "runio.snapshot.s": "s",
    "runio.snapshot.bytes": "B", "runio.gauge.s": "s",
    "driver.xt_table.s": "s", "driver.xt_table.bytes": "B",
    "config.parse_s": "s", "cli.import_s": "s",
    "trace.wall_s": "s", "trace.self_sum_s": "s",
    "trace.unattributed_share": "ratio", "trace.hook_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

DETERMINISTIC = ("solver.step.cells", "amr.regrid.count.L2", "amr.regrid.count.L3",
                 "amr.flag.cells", "amr.flag.flagged", "amr.cluster.boxes",
                 "adjoint.inner_product.snapshots", "adjoint.solve.cells",
                 "equations.rp.calls", "solver.ghost.calls",
                 "geometry.interp.calls", "geometry.interp.points")


def layer_metrics(totals: dict, outer: dict, stats: dict, counters: dict) -> dict:
    """Per-layer values of one traced process from its span aggregates."""
    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    ghosts = ("solver.fill_ghost_from_coarse", "solver.fill_ghost_same_level",
              "solver.fill_ghost_physical")
    rp_ac = ("equations.acoustics_rp_1d", "equations.acoustics_rp_normal_2d",
             "equations.acoustics_rp_transverse_2d")
    rp_swe = ("equations.swe_linear_rp", "equations.swe_linear_transverse")
    rp_adj = ("equations.adjoint_fwave_rp", "equations.adjoint_transverse")
    interp = ("geometry.interpolate_uniform", "geometry.interpolate_patch")
    fill_in_regrid = stats.get(("solver.space_time_interp", "amr.regrid"), (0, 0.0, 0.0))[1]
    snap = sum(v[1] for (n, parent), v in stats.items()
               if n == "runio.write_snapshot" and parent != "runio.save_store")
    step_s = incl("solver.step_patch")
    c = counters
    return {
        "solver.step.s": step_s,
        "solver.step.cells": c.get("solver.step.cells", 0),
        "solver.step.cells_per_s": c.get("solver.step.cells", 0) / step_s if step_s else 0.0,
        "solver.ghost.coarse.s": incl(ghosts[0]),
        "solver.ghost.same.s": incl(ghosts[1]),
        "solver.ghost.physical.s": incl(ghosts[2]),
        "solver.ghost.calls": calls(*ghosts),
        "equations.rp.acoustics.s": incl(*rp_ac),
        "equations.rp.swe.s": incl(*rp_swe),
        "equations.rp.adjoint.s": incl(*rp_adj),
        "equations.rp.calls": calls(*rp_ac, *rp_swe, *rp_adj),
        "amr.regrid.s": outer.get("amr.regrid", 0.0),
        "amr.regrid.self_s": totals.get("amr.regrid", (0, 0.0, 0.0))[2],
        "amr.regrid.count.L2": c.get("amr.regrid.count.L2", 0),
        "amr.regrid.count.L3": c.get("amr.regrid.count.L3", 0),
        "amr.flag.s": incl("amr.flag_cells"),
        "amr.flag.cells": c.get("amr.flag.cells", 0),
        "amr.flag.flagged": c.get("amr.flag.flagged", 0),
        "amr.buffer.s": incl("amr.buffer_flags"),
        "amr.cluster.s": incl("amr.cluster"),
        "amr.cluster.boxes": c.get("amr.cluster.boxes", 0),
        "amr.cluster.efficiency": (c["amr.cluster.cells_marked"] / c["amr.cluster.cells_covered"]
                                   if c.get("amr.cluster.cells_covered") else 0.0),
        "amr.patch_fill.s": incl("amr.make_patch") + fill_in_regrid,
        "amr.restrict.s": incl("amr.restrict_fine_to_coarse"),
        "amr.patches.peak.L2": c.get("amr.patches.peak.L2", 0),
        "amr.patches.peak.L3": c.get("amr.patches.peak.L3", 0),
        "adjoint.solve.s": incl("adjoint.solve_adjoint"),
        "adjoint.solve.cells": c.get("adjoint.solve.cells", 0),
        "adjoint.inner_product.s": incl("adjoint.inner_product_field"),
        "adjoint.inner_product.calls": calls("adjoint.inner_product_field"),
        "adjoint.inner_product.snapshots": c.get("adjoint.inner_product.snapshots", 0),
        "adjoint.store.bytes": c.get("adjoint.store.bytes", 0),
        "geometry.interp.s": incl(*interp),
        "geometry.interp.calls": calls(*interp),
        "geometry.interp.points": c.get("geometry.interp.points", 0),
        "runio.store.save_s": incl("runio.save_store"),
        "runio.store.load_s": incl("runio.load_store"),
        "runio.store.bytes": c.get("runio.store.bytes", 0),
        "runio.snapshot.s": snap,
        "runio.snapshot.bytes": c.get("runio.snapshot.bytes", 0),
        "runio.gauge.s": incl("runio.record_gauge", "runio.write_gauge"),
        "driver.xt_table.s": incl("driver.write_xt_table"),
        "driver.xt_table.bytes": c.get("driver.xt_table.bytes", 0),
        "config.parse_s": incl("config.parse_config"),
    }
