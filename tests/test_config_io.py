import os

import numpy as np
import pytest

from adjamr import equations as eqs
from adjamr.adjoint import AdjointSnapshotStore, TimeWindow, query_window_times
from adjamr.config import ConfigError, build_equation, build_initial, parse_config
from adjamr.geometry import Patch, PatchHierarchy, UniformField
from adjamr.runio import (GaugeComparisonError, GaugeSeries, SnapshotFormatError,
                          StoreFormatError, TimingReport, compare_gauges,
                          load_store, read_gauge,
                          read_snapshot, read_timing, record_gauge, save_store,
                          write_gauge, write_snapshot, write_timing)
from adjamr.solver import BoundarySpec, sample_patch_material

CFG_1D = open("configs/1d-interface.cfg").read()


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
    with pytest.raises(ConfigError, match=r"line \d+: malformed number"):
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


def test_build_equation_and_initial_1d():
    cfg = parse_config(CFG_1D)
    eq = build_equation(cfg)
    assert isinstance(eq, eqs.Acoustics1D)
    mat = eq.sample_material(np.array([-1.0, 1.0]))
    assert np.allclose(mat.c, [1.0, 0.5])
    ic = build_initial(cfg)
    out = ic(np.array([-2.0, 0.0]))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(np.exp(-50.0 * 4.0))


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
            p.time = 1.234567890123456789
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


def test_store_round_trip_preserves_window_queries(tmp_path):
    times = np.linspace(0.0, 2.0, 9)
    rng = np.random.default_rng(0)
    fields = [UniformField(values=rng.normal(size=(2, 12)), origin=(-1.0,),
                           dx=0.25, dy=0.0, time=t) for t in times]
    store = AdjointSnapshotStore(times=times, fields=fields,
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


def saved_store_index(tmp_path):
    times = np.linspace(0.0, 1.0, 3)
    fields = [UniformField(values=np.ones((2, 4)), origin=(0.0,), dx=0.25, dy=0.0,
                           time=t) for t in times]
    directory = tmp_path / "store"
    save_store(AdjointSnapshotStore(times=times, fields=fields,
                                    window=TimeWindow(0.5, 1.0)), str(directory))
    return directory / "index.txt"


@pytest.mark.parametrize("key", ["t_start", "t_final", "origin", "snapshot"])
def test_load_store_names_missing_index_key(tmp_path, key):
    index = saved_store_index(tmp_path)
    lines = index.read_text().splitlines(keepends=True)
    index.write_text("".join(ln for ln in lines if not ln.startswith(key)))
    with pytest.raises(StoreFormatError, match=f"index.txt.*{key}"):
        load_store(str(index.parent))


def test_load_store_names_malformed_index_line(tmp_path):
    index = saved_store_index(tmp_path)
    index.write_text(index.read_text().replace("t_final = 1", "t_final = one"))
    with pytest.raises(StoreFormatError, match="index.txt:2: malformed 't_final'"):
        load_store(str(index.parent))


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


def test_record_gauge_constant_state():
    eq = eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: np.ones_like(x), lambda x: np.ones_like(x)))
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None, base_shape=(10,), ratios=[])
    p = Patch(h.make_spec(1, (0,), (9,)), 2)
    sample_patch_material(p, eq, BoundarySpec(), (10,))
    p.interior()[0] = 4.25
    h.levels = [[p]]
    s = GaugeSeries(gauge_id=1, location=(0.37,))
    for t in (0.0, 0.1, 0.2):
        record_gauge(h, s, t)
    assert len(s.times) == 3
    assert all(v[0] == pytest.approx(4.25) for v in s.values)


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
                       cell_steps={1: 100, 2: 800}, flagged_per_regrid=[3, 9, 27])
    write_timing(rep, str(tmp_path / "t.txt"))
    back = read_timing(str(tmp_path / "t.txt"))
    assert back.adjoint_wall_seconds == 0.5
    assert back.cell_steps == {1: 100, 2: 800}
    assert back.flagged_per_regrid == [3, 9, 27]
    assert back.total_cell_steps == 900


def test_timing_empty_flag_list(tmp_path):
    rep = TimingReport()
    write_timing(rep, str(tmp_path / "t.txt"))
    assert read_timing(str(tmp_path / "t.txt")).flagged_per_regrid == []


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
