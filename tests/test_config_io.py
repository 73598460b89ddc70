import hashlib
import importlib
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adjamr import equations as eqs
from adjamr.adjoint import AdjointSnapshotStore, TimeWindow, query_window_times
from adjamr.config import (KEYS, ConfigError, build_equation, build_initial, parse_config,
                           standing_mode_solution)
from adjamr.geometry import Patch, PatchHierarchy, UniformField, apply_stencil, build_stencil
from adjamr.runio import (GaugeComparisonError, GaugeSeries, SnapshotFormatError,
                          StoreFormatError, TableFormatError, TimingReport, compare_gauges,
                          load_store, read_gauge, read_snapshot, read_timing,
                          read_uniform_field, record_gauge, save_store,
                          write_gauge, write_snapshot, write_timing)
from adjamr.solver import BoundarySpec, LevelLayout, sample_patch_material

CFG_1D = open("configs/1d-interface.cfg").read()
CFG_2D = open("configs/2d-walls-timepoint.cfg").read()


def test_parse_1d_interface_values():
    cfg = parse_config(CFG_1D)
    assert cfg.equation == "acoustics-1d"
    assert cfg.xlim == (-5.0, 3.0)
    assert cfg.nx == 1000
    assert cfg.t_final == 20.0
    assert cfg.material["density"] == ("piecewise_x", 0.0, 1.0, 4.0)
    assert cfg.initial == ("gaussian", 1.0, -2.0, 50.0)
    assert cfg.t_start == 18.0
    assert cfg.functional.bounds == (1.8, 2.3)
    assert cfg.window().span == pytest.approx(2.0)


def test_parse_default_limiter():
    text = CFG_1D.replace("limiter = MC\n", "")
    assert parse_config(text).limiter == "MC"


def test_parse_key_order_insensitive():
    lines = CFG_1D.splitlines()
    # swap two keys inside [problem]
    i1 = lines.index("xlim = -5 3")
    i2 = lines.index("nx = 1000")
    lines[i1], lines[i2] = lines[i2], lines[i1]
    assert parse_config("\n".join(lines)) == parse_config(CFG_1D)


def test_parse_gauge_outside_domain_names_line():
    text = CFG_1D + "\n[output]\ngauge = 7 99.0\n"
    with pytest.raises(ConfigError, match=r"line \d+.*gauge"):
        parse_config(text)


def test_parse_unknown_key_rejected():
    text = CFG_1D + "\n[solver]\nfancy_knob = 3\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(text)


def test_parse_malformed_number_names_line():
    text = CFG_1D.replace("t_final = 20", "t_final = twenty")
    with pytest.raises(ConfigError,
                       match=r"line 10: \[problem\] t_final has malformed number 'twenty'"):
        parse_config(text)


def test_parse_missing_required_key():
    text = CFG_1D.replace("nx = 1000", "")
    with pytest.raises(ConfigError, match="nx"):
        parse_config(text)


def test_adjoint_strategy_requires_functional():
    text = "\n".join(l for l in CFG_1D.splitlines()
                     if not l.startswith(("shape", "component", "weight",
                                          "t_start", "snapshot_dt",
                                          "[functional]")))
    with pytest.raises(ConfigError, match="functional"):
        parse_config(text)


def case(base, old, new, key, at=None):
    """`base` with `old` replaced by `new` must fail on `key`, at the line
    `at` (by default the last line of `new`)."""
    at = at or new.splitlines()[-1]
    return pytest.param(base.replace(old, new, 1), key, at, id=f"{key}:{at}")


# Every value here was accepted, or failed with no line number, before the
# key table; `key` and its line now lead the message.
BAD_VALUES = [
    case(CFG_2D, "[amr]\n", "[amr]\nregrid_interval = 0\n", "regrid_interval"),
    case(CFG_2D, "[amr]\n", "[amr]\nbuffer_cells = -2\n", "buffer_cells"),
    case(CFG_2D, "[amr]\n", "[amr]\nefficiency = 1.5\n", "efficiency"),
    case(CFG_2D, "[amr]\n", "[amr]\nmax_patch_edge = 0\n", "max_patch_edge"),
    case(CFG_2D, "nx = 50", "nx = 0", "nx"),
    case(CFG_2D, "max_levels = 3", "max_levels = 0", "max_levels"),
    case(CFG_2D, "t_start = 1.5", "t_start = 1.5\nsnapshot_dt = -1", "snapshot_dt"),
    case(CFG_2D, "t_start = 1.5", "t_start = 1.5\nadjoint_nx = 0", "adjoint_nx"),
    case(CFG_2D, "[solver]\n", "[solver]\ndt_fixed = -0.5\n", "dt_fixed"),
    case(CFG_2D, "[solver]\n", "[solver]\ndt_max = 0\n", "dt_max"),
    case(CFG_2D, "num_frames = 6", "num_frames = 0", "num_frames"),
    case(CFG_2D, "weight = 2.0", "t_start = 99\nweight = 2.0", "t_start", "t_start = 1.5"),
    case(CFG_2D, "courant = 0.9", "courant = 0.5\ncourant = 0.9", "courant"),
    case(CFG_2D, "nx = 50", "nx = 50 60", "nx"),
    case(CFG_2D, "limiter = MC", "limiter =", "limiter"),
    case(CFG_2D, "weight = 2.0", "weight = nan", "weight"),
    case(CFG_2D, "tolerance = 0.005", "tolerance = inf", "tolerance"),
    case(CFG_2D, "[solver]\n", "[solver]\ndt_max = inf\n", "dt_max"),
    case(CFG_2D, "[amr]\n", "[amr]\nregion = 3 1 0 1 -4 8 -1 11\n", "region"),
    case(CFG_2D, "[amr]\n", "[amr]\nregion = 1 3 0 1 8 -4 -1 11\n", "region"),
    case(CFG_2D, "profile = cosine_hump 1.0 0.5 1.0 0.5 0.15", "profile = gaussian 1.0 0.5",
         "profile"),
    case(CFG_2D, "profile = cosine_hump 1.0 0.5 1.0 0.5 0.15", "profile = standing_mode",
         "profile"),
    case(CFG_2D, "profile = cosine_hump 1.0 0.5 1.0 0.5 0.15", "profile = standing_mode 1",
         "profile"),
    # an exact error of 0 made the convergence study divide by zero
    case(CFG_1D, "profile = gaussian 1.0 -2.0 50.0", "profile = standing_mode 0", "profile"),
    case(CFG_2D, "profile = cosine_hump 1.0 0.5 1.0 0.5 0.15", "profile = standing_mode 0 0",
         "profile"),
    case(CFG_1D, "profile = gaussian 1.0 -2.0 50.0", "profile = cosine_hump 1 0 0 1 1",
         "profile"),
    case(CFG_1D, "shape = box 1.8 2.3", "shape = disk 1 2 3", "shape"),
    case(CFG_2D, "box 3.32 3.8", "box 3.8 3.32", "shape", "shape = box 3.8 3.32 0.32 0.8"),
    case(CFG_1D, "bulk = constant 1.0", "bulk = piecewise_y 0 1 2", "bulk"),
    case(CFG_2D, "bulk = constant 4.0", "bulk = constant 0", "bulk"),
    case(CFG_2D, "0.5 0.15", "0.5 0", "profile", "profile = cosine_hump 1.0 0.5 1.0 0.5 0"),
    case(CFG_1D, "50.0", "-50", "profile", "profile = gaussian 1.0 -2.0 -50"),
    case(CFG_1D, "nx = 1000", "nx = 1000\nylim = 0 1", "ylim"),
    case(CFG_2D, "ratios = 2 2", "ratios = 2", "max_levels", "max_levels = 3"),
    case(CFG_2D, "t_start = 1.5", "t_start = 2", "t_start"),
    case(CFG_2D, "t_final = 1.5", "t_final = 1", "t_start", "t_start = 1.5"),
    case(CFG_2D, "component = 0", "component = 3", "component"),
    case(CFG_1D, "snapshot_dt = 0.25", "snapshot_dt = 21", "snapshot_dt"),
    case(CFG_1D, "num_frames = 20", "num_frames = 20\ntimes = 0 20", "times"),
    case(CFG_1D, "num_frames = 20", "times = 0 21", "times"),
    case(CFG_2D, "gauge = 1 3.5 0.5", "gauge = 1 3.5 0.5\ngauge = 1 0 0", "gauge"),
    case(CFG_2D, "gauge = 1 3.5 0.5", "gauge = 1 3.5 12", "gauge"),
    case(CFG_1D, "shape = box 1.8 2.3\n", "", "component", "component = 0"),
]


def line_of(text, content):
    """1-based number of the last line whose key = value part is `content`."""
    stripped = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    return len(stripped) - stripped[::-1].index(content)


@pytest.mark.parametrize("text, key, at", BAD_VALUES)
def test_bad_value_names_key_and_line(text, key, at):
    section = [s for s, k, *_ in KEYS if k == key][0]
    with pytest.raises(ConfigError,
                       match=rf"^line {line_of(text, at)}: \[{section}\] {key}\b"):
        parse_config(text)


def test_bundled_configs_stay_valid_for_benchmark_seeds(monkeypatch):
    monkeypatch.syspath_prepend("perfbench")
    scenarios = importlib.import_module("scenarios")
    for w in scenarios.WORKLOADS.values():
        base = open(os.path.join("configs", w.config)).read()
        for seed in range(10):
            text = scenarios.generate(base, seed)
            for variant in (text, scenarios.refined_uniform(text, 4)):
                parse_config(variant)


def test_benchmark_layers_name_callables(monkeypatch):
    monkeypatch.syspath_prepend("perfbench")
    layers = importlib.import_module("layers")
    for mod, fn, _ in layers.LAYERS:
        assert callable(getattr(importlib.import_module(f"adjamr.{mod}"), fn, None)), \
            f"adjamr.{mod}.{fn}"


def test_benchmark_traced_run_and_rebuilt_frames_keep_J(monkeypatch):
    # the benchmark's traced run, and its verification: every output frame
    # rebuilt as free patches (one layout each) gives the live frame's J
    monkeypatch.syspath_prepend("perfbench")
    layers, checks, spans = (importlib.import_module(n) for n in ("layers", "checks", "spans"))
    from adjamr import driver      # called through the module, whose functions the tracer wraps
    from adjamr.adjoint import evaluate_J
    cfg = parse_config(CFG_2D)
    frames, live = [], []

    def on_output(t, h):
        frames.append((t, checks.frame_of(h)))
        live.append(evaluate_J(h, store, t))
    tracer = spans.Tracer()
    layers.install(tracer, full=True)
    try:
        store, _ = driver.run_adjoint(cfg)
        driver.run_forward(cfg, "adjoint", store, on_output=on_output)
    finally:
        tracer.uninstall()
    assert tracer.counters["adjoint.store.bytes"] == store.stack.nbytes
    assert any(max(np.unique([rec[0] for rec in fr], return_counts=True)[1]) >= 2
               for _, fr in frames)
    assert np.isfinite(checks.j_drift(cfg, store, frames))
    for (t, fr), j in zip(frames, live):
        assert evaluate_J(checks._hierarchy(cfg, fr, t), store, t) == pytest.approx(j, rel=1e-12)


def numeric_tokens(text):
    """(line index, token index) of every number in a key = value line."""
    out = []
    for i, ln in enumerate(text.splitlines()):
        body = ln.split("#", 1)[0]
        if "=" not in body:
            continue
        for k, tok in enumerate(body.split("=", 1)[1].split()):
            if re.fullmatch(r"[-+.\deE]+", tok):
                out.append((i, k))
    return out


def mutation_sites(text):
    """Each numeric token of the config, then each single-number key it lacks
    (added to its section); dt_fixed is left out, since a fixed step above
    the Courant limit is refused only once the base grid is built."""
    sites = [(text, i, k) for i, k in numeric_tokens(text)]
    present = {ln.split("=", 1)[0].strip() for ln in text.splitlines() if "=" in ln}
    for section, key, kind, default, check in KEYS:
        if kind in ("int", "float") and key not in present and key != "dt_fixed":
            added = text + f"\n[{section}]\n{key} = 0\n"
            sites.append((added, len(added.splitlines()) - 1, 0))
    return sites


SITES = mutation_sites(CFG_2D) + mutation_sites(CFG_1D)


@given(st.sampled_from(SITES),
       st.sampled_from(["-1", "0", "0.5", "1", "1.5", "2", "nan", "inf"]))
@settings(max_examples=200, deadline=None)
def test_one_mutated_number_is_refused_or_runs(site, value):
    from adjamr.amr import AmrContext, advance_hierarchy
    from adjamr.driver import init_hierarchy, make_strategy
    from adjamr.solver import select_dt
    text, i, k = site
    lines = text.splitlines()
    key, rest = lines[i].split("#", 1)[0].split("=", 1)
    toks = rest.split()
    toks[k] = value
    lines[i] = f"{key}= {' '.join(toks)}"
    key = key.strip()
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError as exc:
        assert re.search(rf"\] {key}\b", str(exc)) and f"line {i + 1}" in str(exc), exc
        return
    eq = build_equation(cfg)
    ctx = AmrContext(equation=eq, boundary=cfg.boundary,
                     strategy=make_strategy(cfg, "difference"), limiter=cfg.limiter,
                     regions=cfg.regions, regrid_interval=cfg.regrid_interval,
                     buffer_cells=cfg.buffer_cells, efficiency=cfg.efficiency,
                     max_patch_edge=cfg.max_patch_edge)
    h = init_hierarchy(cfg, ctx)
    advance_hierarchy(h, 1, select_dt(h, cfg.courant, cfg.dt_max), ctx)


def test_build_equation_and_initial_1d():
    cfg = parse_config(CFG_1D)
    eq = build_equation(cfg)
    assert eq.name == "acoustics-1d"
    mat = eq.sample_material(np.array([-1.0, 1.0]))
    assert np.allclose(mat[eqs.C], [1.0, 0.5])
    ic = build_initial(cfg)
    out = ic(np.array([-2.0, 0.0]))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(np.exp(-50.0 * 4.0))


def test_a_standing_mode_needs_one_nonzero_mode():
    cfg = parse_config(CFG_2D.replace("profile = cosine_hump 1.0 0.5 1.0 0.5 0.15",
                                      "profile = standing_mode 1 0"))
    assert cfg.initial == ("standing_mode", 1, 0)
    with pytest.raises(ConfigError, match=r"\] profile needs a nonzero mode$"):
        parse_config(CFG_1D.replace("gaussian 1.0 -2.0 50.0", "standing_mode 0"))


_MAT_2D = "bulk = constant 4.0\ndensity = constant 1.0"
_IC_2D = "profile = cosine_hump 1.0 0.5 1.0 0.5 0.15"
_BATHY = "bathymetry = gaussian_island -100.0 120.0 20000.0 28000.0 6000.0"
_CFG_SWE = open("configs/swe-basin.cfg").read()
# name -> (config, sha256 of its material, of its initial state), on the
# points of `_seeded_axes`; recorded before the primitives had one evaluator
PRIMITIVE_CASES = {
    "1d-constant-piecewise_x-gaussian": (
        CFG_1D, "b171d9e1ef1781f3a4651328e0c6e0a4eb7f8c7a3b549d2133792a5ed4c608f4",
        "25676c4e3f0b76d8fc5bf5eb1b47f225a7a42d3a77771657e9ec782e1f96518c"),
    "1d-piecewise_x-standing_mode": (
        CFG_1D.replace("bulk = constant 1.0\ndensity = piecewise_x 0.0 1.0 4.0",
                       "bulk = piecewise_x -1.3 2.0 0.5\ndensity = constant 3.0")
        .replace("profile = gaussian 1.0 -2.0 50.0", "profile = standing_mode 3"),
        "79bc2f8113ed01d0a32b118ca6d7e65e4e09c3f00359aef57a60c75d189aa460",
        "99648cd941c9cbcd26a3ad9af3d8f1bd503d35905e81b3929d27530cb15cb471"),
    "2d-constant-cosine_hump": (
        CFG_2D, "650d717152f5fb406da0074421dbf890ca9a14371ad5bb0a641b58481a306c26",
        "ce74475c230513d255bf8e9c6dfafae15f6c650efa6e4117ef58aadfccc22c1e"),
    "2d-piecewise_x-piecewise_y-gaussian": (
        CFG_2D.replace(_MAT_2D, "bulk = piecewise_x 2.0 1.0 4.0\ndensity = piecewise_y 5.0 2.0 0.5")
        .replace(_IC_2D, "profile = gaussian 2.0 1.0 4.0 0.7"),
        "6a9805b0210d9434de41a83eb5bbdf13f39e71cd66c724e33ec928a9e00ceb92",
        "bc539029bf1ea603268d471ff54c36b4e0fe7353ac58a5d3944afa5808c03591"),
    "2d-standing_mode": (
        CFG_2D.replace(_IC_2D, "profile = standing_mode 2 3"),
        "650d717152f5fb406da0074421dbf890ca9a14371ad5bb0a641b58481a306c26",
        "dd4dc8fc56d28475e934c5c03faa2c7070bae086228e37a3f17f0bd0f90af59f"),
    "swe-gaussian_island-gaussian": (
        _CFG_SWE, "6d85a37eb48c10bb9b659ae85cc34ec728344bff3004502e2b38ccd74f353a6a",
        "d5ad81386600b72fb7f5ceaade8ae6405de4d44b3a2eded396ea0056650eb971"),
    "swe-flat": (
        _CFG_SWE.replace(_BATHY, "bathymetry = flat -50.0"),
        "712fe8cbad69abb2806e9c27ef601179e6700940740d752c009537801e94f1db",
        "d5ad81386600b72fb7f5ceaade8ae6405de4d44b3a2eded396ea0056650eb971"),
    "swe-linear_ramp_x": (
        _CFG_SWE.replace(_BATHY, "bathymetry = linear_ramp_x 5000 30000 -200 20"),
        "533302675c9fe4de0a9cc4adab16cb265a94e1415b2839f83337b65c4056f652",
        "d5ad81386600b72fb7f5ceaade8ae6405de4d44b3a2eded396ea0056650eb971"),
}


def _seeded_axes(cfg):
    """Sorted seeded points per axis (9 along x, 7 along y), reaching a tenth
    of the domain past each end."""
    rng = np.random.default_rng(4)
    lims = (cfg.xlim, cfg.ylim)[:cfg.ndim]
    return [np.sort(rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), n))
            for (lo, hi), n in zip(lims, (9, 7))]


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
def test_primitives_evaluate_bitwise(name):
    # every medium, bathymetry and profile primitive on `np.ix_` axes and on
    # a meshgrid (broadcast to the full grid) gives the recorded bytes
    text, want_material, want_initial = PRIMITIVE_CASES[name]
    cfg = parse_config(text)
    axes = _seeded_axes(cfg)
    full = tuple(len(a) for a in axes)
    eq, ic = build_equation(cfg), build_initial(cfg)
    for coords in (np.ix_(*axes), np.meshgrid(*axes, indexing="ij")):
        got = [_sha256(np.broadcast_to(out, (len(out), *full)))
               for out in (eq.sample_material(*coords), ic(*coords))]
        assert got == [want_material, want_initial]


# sha256 of the exact pressure at t = 0.37 on the `_seeded_axes` meshgrid,
# recorded when the solution was written once per dimension
STANDING_MODES = {
    "1d": (CFG_1D.replace("bulk = constant 1.0\ndensity = piecewise_x 0.0 1.0 4.0",
                          "bulk = constant 2.5\ndensity = constant 0.7")
           .replace("profile = gaussian 1.0 -2.0 50.0", "profile = standing_mode 3"),
           "837c814dfcc641387dcce2ede6b15137b0f3ddac2460b99d2166c3a9f2890160"),
    "2d": (CFG_2D.replace(_IC_2D, "profile = standing_mode 2 3"),
           "14caa1bc5b8846ee389630845d93e8cf2ae53a1a659aeab2e4be5ebc250bb3a6"),
}


@pytest.mark.parametrize("name", STANDING_MODES)
def test_standing_mode_solution_bitwise(name):
    text, want = STANDING_MODES[name]
    cfg = parse_config(text)
    exact = standing_mode_solution(cfg)
    coords = np.meshgrid(*_seeded_axes(cfg), indexing="ij")
    assert _sha256(exact(0.37, *coords)) == want
    # at t = 0 it is the initial pressure, and the other components start at 0
    assert np.array_equal(exact(0.0, *coords), build_initial(cfg)(*coords)[0])
    assert not build_initial(cfg)(*coords)[1:].any()


# ---------------------------------------------------------------------------
# snapshots


def small_hierarchy():
    eq = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.full_like(x, 1.0), lambda x, y: np.full_like(x, 1.0)))
    h = PatchHierarchy(xlim=(0.0, 4.0), ylim=(0.0, 4.0),
                       base_shape=(4, 4), ratios=[2, 2])
    rng = np.random.default_rng(3)
    for level, boxes in ((1, [((0, 0), (3, 3))]),
                         (2, [((0, 0), (5, 5)), ((6, 2), (7, 7))]),
                         (3, [((2, 2), (9, 9))])):
        ps = []
        for lo, hi in boxes:
            p = Patch(h.make_spec(level, lo, hi), 3)
            sample_patch_material(p, eq, BoundarySpec(), h.level_shape(level))
            p.state[...] = rng.normal(size=p.state.shape)
            p.layout.time = 1.234567890123456789
            ps.append(p)
        h.levels.append(ps)
    return h


def test_snapshot_round_trip_uniform(tmp_path):
    f = UniformField(values=np.full((2, 5), np.pi), origin=(0.0,), dx=0.2,
                     dy=0.0, time=0.75)
    path = tmp_path / "snap.txt"
    write_snapshot(f, str(path))
    recs = read_snapshot(str(path))
    assert len(recs) == 1
    assert np.array_equal(recs[0].values, f.values)      # bitwise
    assert recs[0].time == 0.75


def test_snapshot_round_trip_hierarchy_bitwise(tmp_path):
    h = small_hierarchy()
    path = tmp_path / "h.txt"
    write_snapshot(h, str(path))
    recs = read_snapshot(str(path))
    assert [r.level for r in recs] == [1, 2, 2, 3]
    by_key = {(r.level, r.lo): r for r in recs}
    for level in (1, 2, 3):
        for p in h.patches(level):
            r = by_key[(level, p.spec.lo)]
            assert r.hi == p.spec.hi
            assert np.array_equal(r.values, p.interior())     # bitwise
            assert r.time == p.time


def test_snapshot_random_values_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(3, 7, 5)) * 10.0 ** rng.integers(-300, 300, (3, 7, 5))
    f = UniformField(values=vals, origin=(0.0, 0.0), dx=0.1, dy=0.1)
    write_snapshot(f, str(tmp_path / "r.txt"))
    recs = read_snapshot(str(tmp_path / "r.txt"))
    assert np.array_equal(recs[0].values, vals)


def test_snapshot_malformed_reports_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("patch level=1 lo=0 hi=1 dx=1 dy=0 time=0 m=2\n1.0 2.0\nbad row\n")
    with pytest.raises(SnapshotFormatError, match="byte"):
        read_snapshot(str(path))


HEADER = "patch level=1 lo=0 hi=1 dx=1 dy=0 time=0 m=2\n"        # 45 bytes
HEADER3 = HEADER.replace("hi=1", "hi=2")

# (input, message); {path} is the file.  Cases without a note were reported
# with the same message by the line-by-line reader this one replaced.
MALFORMED_SNAPSHOTS = {
    "bad number": (HEADER + "1.0 2.0\nbad 2.0\n", "{path}: malformed number at byte 53"),
    "short row": (HEADER + "1.0 2.0\n3.0\n", "{path}: expected 2 values at byte 53"),
    "long row": (HEADER + "1.0 2.0 3.0\n4.0 5.0\n", "{path}: expected 2 values at byte 45"),
    "blank row": (HEADER + "1.0 2.0\n\n3.0 4.0\n", "{path}: expected 2 values at byte 53"),
    "truncated": (HEADER + "1.0 2.0\n", "{path}: truncated at byte 53"),
    "number before short row": (HEADER3 + "1.0 x\n3.0\n5.0 6.0\n",
                                "{path}: malformed number at byte 45"),
    "short row before number": (HEADER3 + "1.0\n3.0 x\n5.0 6.0\n",
                                "{path}: expected 2 values at byte 45"),
    "two patches": (HEADER + "1 2\n3 4\n\n" + HEADER.replace("lo=0 hi=1", "lo=2 hi=3")
                    + "1 2\n3 4\n", "{path}: expected a single uniform patch"),
    "text before header": ("hello\n" + HEADER + "1 2\n3 4\n",
                           "{path}: expected patch header at byte 0"),
    "junk after body": ("\n  \n" + HEADER + "1 2\n3 4\njunk\n",
                        "{path}: expected patch header at byte 57"),
    "missing key": (HEADER.replace(" m=2", "") + "1 2\n3 4\n",
                    "{path}: bad patch header at byte 0: 'm'"),
    "bad header value": (HEADER.replace("level=1", "level=one") + "1 2\n3 4\n",
                         "{path}: bad patch header at byte 0: "
                         "invalid literal for int() with base 10: 'one'"),
    # raised a bare ValueError before
    "token without =": (HEADER.replace("m=2", "m=2 junk") + "1 2\n3 4\n",
                        "{path}: bad patch header at byte 0: 'junk' is not key=value"),
    # raised "negative dimensions are not allowed" before
    "lo above hi": (HEADER.replace("lo=0", "lo=3") + "1 2\n3 4\n",
                    "{path}: bad patch header at byte 0: lo exceeds hi"),
    # read as an empty patch before
    "m zero": (HEADER.replace("m=2", "m=0") + "\n\n",
               "{path}: bad patch header at byte 0: m is below 1"),
    # read as a 1D patch before
    "lo and hi lengths": (HEADER.replace("lo=0", "lo=0,0") + "1 2\n3 4\n",
                          "{path}: bad patch header at byte 0: lo and hi differ in length"),
    # offsets count the bytes as stored; byte 61 before
    "CRLF": ((HEADER3 + "1.0 2.0\n3.0 4.0\n5.0 x\n").replace("\n", "\r\n"),
             "{path}: malformed number at byte 64"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_messages(tmp_path, case):
    text, message = MALFORMED_SNAPSHOTS[case]
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode())
    with pytest.raises(SnapshotFormatError) as info:
        read_uniform_field(str(path))
    assert str(info.value) == message.format(path=path)


def test_snapshot_accepts_tabs_repeated_spaces_and_no_final_newline(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(b"\n\npatch  level=1\tlo=0 hi=1 dx=1 dy=0 time=0.5 m=2\n"
                     b"1.0\t 2.0\n   3.0  \t4.0")
    f = read_uniform_field(str(path))
    assert f.time == 0.5
    assert np.array_equal(f.values, [[1.0, 3.0], [2.0, 4.0]])


SPECIAL_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, 1e16]


def test_writers_format_each_value_as_17_digits(tmp_path):
    from adjamr.driver import read_xt_table, write_xt_table
    vals = np.array(SPECIAL_VALUES).reshape(2, 4)
    g = lambda v: format(v, ".17g")
    write_snapshot(UniformField(values=vals, origin=(0.0,), dx=0.1, dy=0.0, time=0.1),
                   str(tmp_path / "s.txt"))
    assert (tmp_path / "s.txt").read_text() == (
        "patch level=1 lo=0 hi=3 dx=0.10000000000000001 dy=0 time=0.10000000000000001 m=2\n"
        + "".join(" ".join(g(v) for v in col) + "\n" for col in vals.T))
    back = read_snapshot(str(tmp_path / "s.txt"))[0].values
    assert back.tobytes() == vals.tobytes() or np.array_equal(back, vals, equal_nan=True)
    assert np.signbit(back[0, 0])

    s = GaugeSeries(gauge_id=2, location=(0.5, 1e16), times=SPECIAL_VALUES,
                    values=[np.array([v, -v]) for v in SPECIAL_VALUES])
    write_gauge(s, str(tmp_path / "g.csv"))
    assert (tmp_path / "g.csv").read_text() == "# gauge 2 at 0.5,10000000000000000\n" + "".join(
        f"{g(v)},{g(v)},{g(-v)}\n" for v in SPECIAL_VALUES)
    back = read_gauge(str(tmp_path / "g.csv"))
    assert np.array_equal(back.as_arrays()[1], s.as_arrays()[1], equal_nan=True)

    mask = np.array([[True, False, True]] * len(SPECIAL_VALUES))
    write_xt_table(str(tmp_path / "x.txt"), np.array(SPECIAL_VALUES[:3]), SPECIAL_VALUES, mask)
    assert (tmp_path / "x.txt").read_text() == (
        "# x: " + " ".join(g(v) for v in SPECIAL_VALUES[:3]) + "\n"
        + "".join(g(t) + " 1 0 1\n" for t in SPECIAL_VALUES))
    xs, times, back = read_xt_table(str(tmp_path / "x.txt"))
    assert np.array_equal(times, SPECIAL_VALUES, equal_nan=True)
    assert np.array_equal(back, mask)


def test_store_round_trip_preserves_window_queries(tmp_path):
    times = np.linspace(0.0, 2.0, 9)
    rng = np.random.default_rng(0)
    stack = np.stack([rng.normal(size=(2, 12)) for _ in times])
    store = AdjointSnapshotStore(times=times, stack=stack, origin=(-1.0,), widths=(0.25, 0.0),
                                 window=TimeWindow(1.5, 2.0))
    save_store(store, str(tmp_path / "store"))
    loaded = load_store(str(tmp_path / "store"))
    assert np.array_equal(loaded.times, store.times)
    for t in (0.0, 0.3, 1.1, 1.9):
        assert (query_window_times(t, loaded.window, loaded)
                == query_window_times(t, store.window, store))
    for a, b in zip(loaded.fields, store.fields):
        assert np.array_equal(a.values, b.values)
        assert a.origin == b.origin
    # one stacked array, of which every field is a view
    assert loaded.stack.shape == (9, 2, 12)
    assert all(np.shares_memory(f.values, loaded.stack) for f in loaded.fields)


def saved_store_index(tmp_path):
    times = np.linspace(0.0, 1.0, 3)
    directory = tmp_path / "store"
    save_store(AdjointSnapshotStore(times=times, stack=np.ones((3, 2, 4)), origin=(0.0,),
                                    widths=(0.25, 0.0), window=TimeWindow(0.5, 1.0)),
               str(directory))
    return directory / "index.txt"


def saved_wet_store(tmp_path):
    directory = tmp_path / "store"
    save_store(AdjointSnapshotStore(times=np.linspace(0.0, 1.0, 3), stack=np.ones((3, 3, 4, 5)),
                                    origin=(0.0, 0.0), widths=(0.25, 0.25),
                                    window=TimeWindow(0.5, 1.0), wet=np.ones((4, 5), dtype=bool)),
               str(directory))
    return directory


@pytest.mark.parametrize("shape, wet", [((2, 12), False), ((3, 4, 5), False), ((3, 4, 5), True)],
                         ids=["1d", "2d", "2d-wet"])
def test_store_round_trip_is_bitwise(tmp_path, shape, wet):
    rng = np.random.default_rng(7)
    ndim = len(shape) - 1
    stack = rng.normal(size=(7, *shape)) * 10.0 ** rng.integers(-300, 300, size=(7, *shape))
    stack.flat[:4] = [np.nan, np.inf, -np.inf, -0.0]
    store = AdjointSnapshotStore(
        times=np.linspace(0.1, 0.7, 7), stack=stack, origin=tuple(rng.normal(size=ndim)),
        widths=(1 / 3, 2 / 7 if ndim == 2 else 0.0), window=TimeWindow(1 / 3, 0.7),
        wet=rng.random(shape[1:]) < 0.5 if wet else None)
    directory = tmp_path / "store"
    save_store(store, str(directory))
    assert sorted(os.listdir(directory)) == ["index.txt", "stack.npy"] + ["wet_mask.npy"] * wet
    loaded = load_store(str(directory))
    for a, b in ((loaded.times, store.times), (loaded.stack, store.stack)):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if wet:
        assert loaded.wet.dtype == bool and np.array_equal(loaded.wet, store.wet)
    else:
        assert loaded.wet is None
    assert (loaded.origin, loaded.widths, loaded.window) == (store.origin, store.widths,
                                                             store.window)
    assert all(np.shares_memory(f.values, loaded.stack) for f in loaded.fields)


def test_save_store_over_a_wet_store_leaves_no_mask(tmp_path):
    directory = saved_wet_store(tmp_path)
    save_store(AdjointSnapshotStore(times=np.linspace(0.0, 1.0, 3), stack=np.ones((3, 3, 4, 5)),
                                    origin=(0.0, 0.0), widths=(0.25, 0.25),
                                    window=TimeWindow(0.5, 1.0)), str(directory))
    assert sorted(os.listdir(directory)) == ["index.txt", "stack.npy"]
    assert load_store(str(directory)).wet is None


def test_store_index_lines(tmp_path):
    assert saved_store_index(tmp_path).read_text() == (
        "t_start = 0.5\nt_final = 1\norigin = 0\nwidths = 0.25 0\ntimes = 0 0.5 1\n")


@pytest.mark.parametrize("key", ["t_start", "t_final", "origin", "widths", "times"])
def test_load_store_names_missing_index_key(tmp_path, key):
    index = saved_store_index(tmp_path)
    lines = index.read_text().splitlines(keepends=True)
    index.write_text("".join(ln for ln in lines if not ln.startswith(key)))
    with pytest.raises(StoreFormatError) as info:
        load_store(str(index.parent))
    assert str(info.value) == f"{index}: missing {key!r}"


def test_load_store_names_malformed_index_line(tmp_path):
    index = saved_store_index(tmp_path)
    index.write_text(index.read_text().replace("t_final = 1", "t_final = one"))
    with pytest.raises(StoreFormatError, match="index.txt:2: malformed 't_final'"):
        load_store(str(index.parent))


def test_load_store_names_a_snapshot_of_another_shape(tmp_path):
    # one snapshot fewer than the index's times, then snapshots of one axis too few
    index = saved_store_index(tmp_path)
    path = index.parent / "stack.npy"
    for stack, message in ((np.ones((2, 2, 4)), f"2 snapshots, but {index} has 3 times"),
                           (np.ones((3, 8)), "2 axes, expected 3 for a 1D origin")):
        np.save(path, stack)
        with pytest.raises(StoreFormatError) as info:
            load_store(str(index.parent))
        assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("widths", ["0.25", "0.25 0 0"])
def test_load_store_names_a_widths_line_of_another_length(tmp_path, widths):
    # (dx, dy) is one line of the index: no snapshot or mask can have widths of its own
    index = saved_store_index(tmp_path)
    index.write_text(index.read_text().replace("widths = 0.25 0", f"widths = {widths}"))
    with pytest.raises(StoreFormatError) as info:
        load_store(str(index.parent))
    assert str(info.value) == f"{index}:4: malformed 'widths' entry"


@pytest.mark.parametrize("mask_shape", [(2, 5), (6, 5)], ids=["fewer-rows", "more-rows"])
def test_load_store_names_a_wet_mask_of_another_shape(tmp_path, mask_shape):
    # fewer rows failed later with a bare IndexError; more were read silently
    directory = saved_wet_store(tmp_path)
    assert load_store(str(directory)).wet.shape == (4, 5)
    np.save(directory / "wet_mask.npy", np.ones(mask_shape, dtype=bool))
    with pytest.raises(StoreFormatError) as info:
        load_store(str(directory))
    assert str(info.value) == (f"{directory}/wet_mask.npy: shape ({mask_shape[0]}, 5) "
                               f"differs from the snapshots' (4, 5)")


def test_load_store_names_a_wet_mask_that_is_not_bool(tmp_path):
    # a float mask of 0/1, as the text store held it
    directory = saved_wet_store(tmp_path)
    np.save(directory / "wet_mask.npy", np.ones((4, 5)))
    with pytest.raises(StoreFormatError) as info:
        load_store(str(directory))
    assert str(info.value) == f"{directory}/wet_mask.npy: dtype float64, expected bool"


def _edit(name, edit):
    def apply(directory):
        path = directory / name
        path.write_bytes(edit(path.read_bytes()))
    return apply


NOT_NPY = "{dir}/stack.npy: not a whole .npy array of numbers"
# (edit of the store directory, message); {dir} is the store directory
MALFORMED_STORES = {
    "bad number": (_edit("index.txt", lambda b: b.replace(b"0.5 1\n", b"0.5 one\n")),
                   "{dir}/index.txt:5: malformed 'times' entry"),
    "short row": (_edit("index.txt", lambda b: b.replace(b"origin = 0", b"origin =")),
                  "{dir}/index.txt:3: malformed 'origin' entry"),
    "CRLF": (_edit("index.txt", lambda b: b.replace(b"t_final = 1", b"t_final = 1 z")
                   .replace(b"\n", b"\r\n")), "{dir}/index.txt:2: malformed 't_final' entry"),
    "truncated": (_edit("stack.npy", lambda b: b[:-4]), NOT_NPY),
    "truncated header": (_edit("stack.npy", lambda b: b[:50]), NOT_NPY),
    "empty": (_edit("stack.npy", lambda b: b""), NOT_NPY),
    "text": (_edit("stack.npy", lambda b: b"1 1 1 1\n" * 6), NOT_NPY),
    "missing": (lambda d: (d / "stack.npy").unlink(), "{dir}/stack.npy: missing"),
    "float32": (lambda d: np.save(d / "stack.npy", np.ones((3, 2, 4), dtype=np.float32)),
                "{dir}/stack.npy: dtype float32, expected float64"),
    "wet mask without snapshots' cells": (
        lambda d: np.save(d / "wet_mask.npy", np.ones((2, 4), dtype=bool)),
        "{dir}/wet_mask.npy: shape (2, 4) differs from the snapshots' (4,)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
def test_malformed_store_messages(tmp_path, case):
    edit, message = MALFORMED_STORES[case]
    directory = saved_store_index(tmp_path).parent
    edit(directory)
    with pytest.raises(StoreFormatError) as info:
        load_store(str(directory))
    assert str(info.value) == message.format(dir=directory)


UNPICKLED = []


class Tripwire:
    """Records its own unpickling."""

    def __reduce__(self):
        return UNPICKLED.append, ("unpickled",)


def test_load_store_refuses_an_object_stack_without_unpickling(tmp_path):
    directory = saved_store_index(tmp_path).parent
    stack = np.empty((3, 2, 4), dtype=object)
    stack[...] = Tripwire()
    np.save(directory / "stack.npy", stack, allow_pickle=True)
    with pytest.raises(StoreFormatError) as info:
        load_store(str(directory))
    assert str(info.value) == f"{directory}/stack.npy: not a whole .npy array of numbers"
    assert UNPICKLED == []


def test_store_snapshots_with_tabs_and_repeated_spaces_load(tmp_path):
    # the index's lines, the snapshot times among them
    index = saved_store_index(tmp_path)
    index.write_text(index.read_text().replace(" ", "  \t").replace("=", "\t=  "))
    store = load_store(str(index.parent))
    assert np.array_equal(store.times, [0.0, 0.5, 1.0])
    assert (store.origin, store.widths, store.window) == ((0.0,), (0.25, 0.0),
                                                          TimeWindow(0.5, 1.0))


def test_forward_snapshot_index_times_parse_back(tmp_path):
    from adjamr.driver import run_forward
    text = open("configs/2d-walls-timepoint.cfg").read()
    cfg = parse_config(text.replace("t_final = 1.5", "t_final = 0.25")
                       .replace("t_start = 1.5", "t_start = 0.25"))
    res = run_forward(cfg, strategy_name="difference", out_dir=str(tmp_path))
    lines = (tmp_path / "snapshots" / "index.txt").read_text().splitlines()
    names = [ln.split()[0] for ln in lines]
    times = [float(ln.split()[1]) for ln in lines]
    assert times == list(cfg.output_times) == res.output_times
    assert names == [os.path.basename(p) for p in res.snapshot_paths]
    for name, t in zip(names, times):
        assert read_snapshot(str(tmp_path / "snapshots" / name))[0].time == t


# ---------------------------------------------------------------------------
# gauges


def test_record_gauge_reads_the_finest_level_interior():
    # three levels packed by hand, every ghost NaN: a gauge is read on the
    # finest level holding it, in the patch holding it, clamped to that
    # interior, once per step of that level (the advance's callback order)
    h = PatchHierarchy(xlim=(0.0, 8.0), ylim=(0.0, 8.0), base_shape=(8, 8), ratios=[2, 2])
    boxes = {1: [((0, 0), (7, 7))], 2: [((2, 2), (9, 9)), ((10, 2), (13, 9))],
             3: [((8, 8), (15, 15)), ((16, 8), (19, 11))]}
    rng = np.random.default_rng(3)
    layouts = [LevelLayout([h.make_spec(level, lo, hi) for lo, hi in boxes[level]], 3)
               for level in (1, 2, 3)]
    h.levels = [[Patch.view(lay, k) for k in range(len(lay.specs))] for lay in layouts]
    for level in (1, 2, 3):
        for p in h.patches(level):
            p.state[...] = np.nan
            p.interior()[...] = rng.normal(size=p.interior().shape)
    # level 3, within half a cell (0.125) of its patch's low-x and high-y
    # edges; level 2 only, on the edge two patches share (the higher one
    # holds it); level 1 only
    where = {(2.05, 3.9): h.patches(3)[0], (5.0, 1.1): h.patches(2)[1],
             (0.3, 7.5): h.patches(1)[0]}
    gauges = [GaugeSeries(gauge_id=k, location=loc) for k, loc in enumerate(where)]

    def reference(loc, p):
        spec = p.spec
        st = build_stencil([np.array([c]) for c in loc],
                           [o + l * w for o, l, w in zip(spec.origin, spec.lo, spec.widths)],
                           spec.widths, spec.shape)
        return apply_stencil(st, p.interior().copy())[:, 0]

    steps = [(level, 0.0) for level in (1, 2, 3)] + [
        (1, 1.0), (2, 0.5), (3, 0.25), (3, 0.5), (2, 1.0), (3, 0.75), (3, 1.0)]
    want = {k: [] for k in range(3)}
    for level, t in steps:
        for p in h.patches(level):
            p.interior()[...] += 1.0
        record_gauge(gauges, h, level, t)
        for k, (loc, p) in enumerate(where.items()):
            if p.spec.level == level:
                want[k].append((t, reference(loc, p)))
    for k, s in enumerate(gauges):
        assert s.times == [t for t, _ in want[k]]
        assert len(s.times) == {0: 5, 1: 3, 2: 2}[k]
        for got, (_, ref) in zip(s.values, want[k]):
            assert np.isfinite(got).all() and np.array_equal(got, ref)


def test_gauge_round_trip(tmp_path):
    s = GaugeSeries(gauge_id=3, location=(3.5, 0.5))
    s.times = [0.0, 0.5, 1.0]
    s.values = [np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6]),
                np.array([0.7, 0.8, 0.9])]
    write_gauge(s, str(tmp_path / "g.csv"))
    back = read_gauge(str(tmp_path / "g.csv"))
    assert back.gauge_id == 3
    assert back.location == (3.5, 0.5)
    assert np.allclose(back.as_arrays()[1], s.as_arrays()[1])


@pytest.mark.parametrize("text, line, why", [
    ("# gauge 1 at 0.5\n0,1,2\n0.1,bad,2\n", 3, "malformed number"),
    ("# gauge 1 at 0.5\n" + "0,1,2\n" * 1500 + "0.1,bad,2\n", 1502, "malformed number"),
    ("# gauge 1 at 0.5\n0,1,2\n0.1,1\n", 3, "expected 2 commas"),
    ("# gauge 1 at 0.5\n0,1,2\n0.1,,2\n", 3, "expected 3 values"),
    ("# gauge 1 at 0.5\n0,1,2\n0.1 1,2\n", 3, "expected 2 commas"),
    ("# gauge 1 at 0.5\n0,1,2\n\n", 3, "expected 2 commas"),
    ("# gauge 1 at 0.5\n0, 1 ,\t2\n0.1,1,2\n0.2,1_0,2\n", 4, None),
    ("# gauge one at 0.5\n0,1,2\n", 1, "malformed gauge header"),
])
def test_read_gauge_names_a_malformed_row(tmp_path, text, line, why):
    path = tmp_path / "g.csv"
    path.write_text(text)
    if why is None:                     # blanks around commas are fine
        assert read_gauge(str(path)).as_arrays()[1].tolist() == [[1, 2], [1, 2], [10, 2]]
        return
    with pytest.raises(TableFormatError) as info:
        read_gauge(str(path))
    assert str(info.value) == f"{path}:{line}: {why}"


@pytest.mark.parametrize("text, line, why", [
    ("# x: 0.5 1.5\n0 1 0\n0.1 1 2\n", 3, "flags must be 0 or 1"),
    ("# x: 0.5 1.5\n0 1 0\n0.1 1\n", 3, "expected 3 values"),
    ("0 1 0\n", 1, "expected '# x:'"),
    ("# x: 0.5 1.5\n0 1 0\nt 1 1\n", 3, "malformed number"),
    ("# x: 0.5 x\n0 1 0\n", 1, "malformed number"),
])
def test_read_xt_table_names_a_malformed_row(tmp_path, text, line, why):
    from adjamr.driver import read_xt_table
    path = tmp_path / "x.txt"
    path.write_text(text)
    with pytest.raises(TableFormatError) as info:
        read_xt_table(str(path))
    assert str(info.value) == f"{path}:{line}: {why}"


def test_compare_gauges_identical_and_offset():
    a = GaugeSeries(1, (0.0,), times=[0, 1, 2],
                    values=[np.array([1.0, 2.0])] * 3)
    b = GaugeSeries(1, (0.0,), times=[0, 1, 2],
                    values=[np.array([1.01, 2.0])] * 3)
    ma, rms = compare_gauges(a, a)
    assert np.allclose(ma, 0) and np.allclose(rms, 0)
    ma, rms = compare_gauges(a, b)
    assert ma[0] == pytest.approx(0.01)
    assert ma[1] == pytest.approx(0.0)


def test_compare_gauges_no_overlap_errors():
    a = GaugeSeries(1, (0.0,), times=[0, 1], values=[np.zeros(2)] * 2)
    b = GaugeSeries(1, (0.0,), times=[5, 6], values=[np.zeros(2)] * 2)
    with pytest.raises(GaugeComparisonError):
        compare_gauges(a, b)


# ---------------------------------------------------------------------------
# timing


def test_timing_round_trip(tmp_path):
    rep = TimingReport(adjoint_wall_seconds=0.5, forward_wall_seconds=2.25,
                       cell_steps={1: 100, 2: 800}, flagged_per_regrid=[3, 9, 27],
                       max_courant={1: 0.9, 2: 0.1 + 0.2})
    write_timing(rep, str(tmp_path / "t.txt"))
    assert "max_courant_level_2 = 0.30000000000000004\n" in (tmp_path / "t.txt").read_text()
    back = read_timing(str(tmp_path / "t.txt"))
    assert back.adjoint_wall_seconds == 0.5
    assert back.cell_steps == {1: 100, 2: 800}
    assert back.max_courant == {1: 0.9, 2: 0.1 + 0.2}
    assert back.flagged_per_regrid == [3, 9, 27]
    assert back.total_cell_steps == 900


def test_timing_empty_flag_list(tmp_path):
    rep = TimingReport()
    write_timing(rep, str(tmp_path / "t.txt"))
    assert read_timing(str(tmp_path / "t.txt")).flagged_per_regrid == []


@pytest.mark.parametrize("line", ["cell_steps_level_1 = 12x", "cell_steps_level_one = 5"])
def test_timing_bad_value_names_file_and_line(tmp_path, line):
    path = str(tmp_path / "t.txt")
    with open(path, "w") as f:
        f.write(f"adjoint_wall_seconds = 0\n{line}\n")
    key = line.split(" =")[0]
    with pytest.raises(TableFormatError, match=rf"^{re.escape(path)}:2: malformed '{key}' entry$"):
        read_timing(path)


def test_timing_subcycling_cell_step_arithmetic():
    # 2-level everywhere-refined 2D run: per coarse step, the coarse grid
    # advances once and the (ratio^2-larger) fine grid advances ratio times
    from adjamr.amr import AmrContext, EverywhereFlagging, advance_hierarchy, make_patch, regrid
    eq = eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: np.full_like(x, 1.0), lambda x, y: np.full_like(x, 1.0)))
    ctx = AmrContext(equation=eq, boundary=BoundarySpec(),
                     strategy=EverywhereFlagging())
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=(0.0, 1.0), base_shape=(8, 8),
                       ratios=[2])
    base = make_patch(h, 1, (0, 0), (7, 7), ctx, 0.0)
    h.levels = [[base]]
    regrid(h, 2, ctx)
    n = 3
    for _ in range(n):
        advance_hierarchy(h, 1, 0.01, ctx)
    assert ctx.cell_steps[1] == n * 64
    assert ctx.cell_steps[2] == 2 * n * 4 * 64
