import filecmp
import importlib
import os
import sys
import tracemalloc

import pytest

import adjamr.driver as driver
from adjamr.adjoint import GATHER_VALUES
from adjamr.cli import main
from adjamr.config import parse_config
from adjamr.runio import load_store, read_timing

SMALL_2D = """
[problem]
equation = acoustics-2d
xlim = 0 4
ylim = 0 4
nx = 20
ny = 20
t_final = 0.8

[material]
bulk = constant 4.0
density = constant 1.0

[initial]
profile = gaussian 1.0 1.0 1.0 8.0

[boundary]

[amr]
max_levels = 2
ratios = 2
strategy = adjoint
tolerance = 0.01
tolerance_difference = 0.05

[functional]
shape = box 2.6 3.4 2.6 3.4
component = 0
weight = 1.0
t_start = 0.8
snapshot_dt = 0.1

[output]
num_frames = 2
gauge = 1 3.0 3.0
"""

SMALL_1D = """
[problem]
equation = acoustics-1d
xlim = 0 1
nx = 64
t_final = 0.5

[material]
bulk = constant 1.0
density = constant 1.0

[initial]
profile = gaussian 1.0 0.3 200.0

[boundary]

[amr]
max_levels = 1
strategy = adjoint
tolerance = 0.05

[functional]
shape = box 0.7 0.8
component = 0
t_start = 0.5
snapshot_dt = 0.125

[output]
num_frames = 2
"""

CONV_1D = """
[problem]
equation = acoustics-1d
xlim = 0 1
nx = 40
t_final = 0.35

[material]
bulk = constant 1.0
density = constant 1.0

[initial]
profile = standing_mode 1

[boundary]

[amr]
max_levels = 1
strategy = difference

[output]
num_frames = 1
"""


@pytest.fixture
def cfg2d(tmp_path):
    p = tmp_path / "small2d.cfg"
    p.write_text(SMALL_2D)
    return str(p)


@pytest.fixture
def cfg1d(tmp_path):
    p = tmp_path / "small1d.cfg"
    p.write_text(SMALL_1D)
    return str(p)


def test_run_adjoint_writes_store(cfg2d, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run-adjoint", "--config", cfg2d, "--out", out]) == 0
    assert sorted(os.listdir(os.path.join(out, "adjoint"))) == ["index.txt", "stack.npy"]


def test_run_forward_without_store_fails_fast(cfg2d, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["run-forward", "--config", cfg2d, "--out", out,
               "--strategy", "adjoint"])
    assert rc != 0
    assert "store" in capsys.readouterr().err


def test_run_forward_refuses_a_store_from_another_domain(cfg2d, tmp_path, capsys):
    out, taller = str(tmp_path / "out"), tmp_path / "taller.cfg"
    taller.write_text(SMALL_2D.replace("ylim = 0 4", "ylim = 0 5"))
    assert main(["run-adjoint", "--config", str(taller), "--out", out]) == 0
    capsys.readouterr()
    assert main(["run-forward", "--config", cfg2d, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "the adjoint store was solved for far corner = (4.0, 5.0), " \
           "but the config has far corner = (4.0, 4.0)" in err
    assert not os.path.exists(os.path.join(out, "snapshots", "index.txt"))


def test_run_forward_writes_outputs(cfg2d, tmp_path):
    out = str(tmp_path / "out")
    main(["run-adjoint", "--config", cfg2d, "--out", out])
    assert main(["run-forward", "--config", cfg2d, "--out", out,
                 "--strategy", "adjoint"]) == 0
    assert os.path.exists(os.path.join(out, "snapshots", "snap_0000.txt"))
    assert os.path.exists(os.path.join(out, "snapshots", "index.txt"))
    assert os.path.exists(os.path.join(out, "gauges", "gauge_1.csv"))
    rep = read_timing(os.path.join(out, "timing.txt"))
    assert rep.total_cell_steps > 0
    assert rep.max_courant.keys() == rep.cell_steps.keys()
    assert all(0.0 < c <= 1.0 for c in rep.max_courant.values())


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nequation = nonsense\n")
    assert main(["run-adjoint", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    # values that used to fail later, with exit 1 and no line number
    for old, new in (("weight = 1.0", "weight = nan"),
                     ("gaussian 1.0 1.0 1.0 8.0", "standing_mode")):
        text = SMALL_2D.replace(old, new)
        bad.write_text(text)
        line = next(n for n, ln in enumerate(text.splitlines(), 1) if new in ln)
        capsys.readouterr()
        assert main(["run-forward", "--config", str(bad), "--out",
                     str(tmp_path / "o"), "--strategy", "difference"]) == 2
        assert f"error: line {line}: " in capsys.readouterr().err


def test_dt_fixed_above_the_courant_limit_is_a_config_error(tmp_path, capsys):
    # c = 2 on cells of width 0.2: the largest stable step is 0.1
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_2D.replace("[boundary]\n", "[boundary]\n\n[solver]\ndt_fixed = 0.5\n"))
    capsys.readouterr()
    assert main(["run-forward", "--config", str(bad), "--out", str(tmp_path / "o"),
                 "--strategy", "difference"]) == 2
    assert "[solver] dt_fixed = 0.5 exceeds 0.1," in capsys.readouterr().err


def test_compare_shares_single_adjoint_pass(cfg2d, tmp_path, monkeypatch):
    calls = []
    orig = driver.run_adjoint

    def counting(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    import adjamr.cli as cli
    monkeypatch.setattr(cli.driver, "run_adjoint", counting)
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", cfg2d, "--out", out,
                 "difference", "adjoint"]) == 0
    assert sum(calls) == 1
    text = open(os.path.join(out, "compare.txt")).read()
    assert "[difference]" in text and "[adjoint]" in text
    assert "gauge_1_maxabs" in text


def test_compare_identical_strategy_zero_difference(cfg2d, tmp_path):
    out = str(tmp_path / "cmp2")
    assert main(["compare", "--config", cfg2d, "--out", out,
                 "difference", "difference"]) == 0
    text = open(os.path.join(out, "compare.txt")).read()
    vals = [float(v) for line in text.splitlines()
            if line.startswith("gauge_1_maxabs")
            for v in line.split("=")[1].split()]
    assert vals and max(vals) == 0.0


def test_convergence_command(tmp_path):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(CONV_1D)
    out = str(tmp_path / "conv")
    assert main(["convergence", "--config", str(cfg), "--out", out,
                 "--levels-of-resolution", "3"]) == 0
    lines = open(os.path.join(out, "convergence.txt")).read().splitlines()
    assert len(lines) == 4
    orders = [float(l.split()[2]) for l in lines[2:]]
    assert min(orders) >= 1.8


def test_convergence_k1_no_order_column(tmp_path):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(CONV_1D)
    out = str(tmp_path / "conv1")
    assert main(["convergence", "--config", str(cfg), "--out", out,
                 "--levels-of-resolution", "1"]) == 0
    lines = open(os.path.join(out, "convergence.txt")).read().splitlines()
    assert len(lines) == 2
    assert len(lines[1].split()) == 2


def test_convergence_unsupported_config(cfg2d, tmp_path, capsys):
    assert main(["convergence", "--config", cfg2d, "--out",
                 str(tmp_path / "x")]) == 2


def test_xt_map_rejects_2d(cfg2d, tmp_path):
    assert main(["xt-map", "--config", cfg2d, "--out",
                 str(tmp_path / "x")]) == 2


def test_xt_map_writes_tables_and_huge_threshold_empty(cfg1d, tmp_path):
    out = str(tmp_path / "xt")
    assert main(["xt-map", "--config", cfg1d, "--out", out,
                 "--threshold", "1e9"]) == 0
    from adjamr.driver import read_xt_table
    for name in ("xt_q.txt", "xt_qhat.txt", "xt_inner.txt"):
        xs, times, mask = read_xt_table(os.path.join(out, name))
        assert len(xs) == 64
        assert not mask.any()


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_xt_map_refuses_a_threshold_that_is_not_positive_and_finite(cfg1d, tmp_path, capsys,
                                                                    threshold):
    assert main(["xt-map", "--config", cfg1d, "--out", str(tmp_path / "xt"),
                 "--threshold", threshold]) != 0
    assert repr(float(threshold)) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "xt" / "xt_q.txt")
    assert not os.path.exists(tmp_path / "xt" / "adjoint")      # refused before any work


def test_reproducible_outputs(cfg2d, tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    for out in (out1, out2):
        main(["run-adjoint", "--config", cfg2d, "--out", out])
        main(["run-forward", "--config", cfg2d, "--out", out,
              "--strategy", "adjoint"])
    for rel in ("snapshots/snap_0000.txt", "snapshots/snap_0002.txt",
                "gauges/gauge_1.csv", "adjoint/stack.npy", "adjoint/index.txt"):
        assert filecmp.cmp(os.path.join(out1, rel), os.path.join(out2, rel),
                           shallow=False), rel


def test_the_store_on_disk_changes_no_output(tmp_path):
    # run-adjoint then run-forward against run_forward on the store in memory,
    # at a tolerance that refines
    text = SMALL_2D.replace("tolerance = 0.01", "tolerance = 0.001")
    path, cli_out, mem_out = tmp_path / "refined.cfg", tmp_path / "cli", tmp_path / "mem"
    path.write_text(text)
    assert main(["run-adjoint", "--config", str(path), "--out", str(cli_out)]) == 0
    assert main(["run-forward", "--config", str(path), "--out", str(cli_out)]) == 0
    cfg = parse_config(text)
    store = driver.run_adjoint(cfg)[0]
    res = driver.run_forward(cfg, "adjoint", store=store, out_dir=str(mem_out))
    assert res.timing.cell_steps[2] > 0
    loaded = load_store(str(cli_out / "adjoint"))
    for a, b in ((loaded.times, store.times), (loaded.stack, store.stack)):
        assert a.tobytes() == b.tobytes()
    for sub in ("snapshots", "gauges"):
        names = sorted(os.listdir(mem_out / sub))
        assert names == sorted(os.listdir(cli_out / sub))
        match, mismatch, errors = filecmp.cmpfiles(mem_out / sub, cli_out / sub, names,
                                                   shallow=False)
        assert (mismatch, errors) == ([], []), sub


def test_the_run_paths_read_no_text_output(cfg2d, cfg1d, tmp_path, monkeypatch):
    """`run-adjoint`, `run-forward --strategy adjoint` and `xt-map` read no text
    file through `runio.read_lines`: the store is read as arrays.  The text
    readers parse line by line, which is plain but not fast; if a text read
    joined one of these paths, its speed would become a measured cost."""
    from adjamr import runio

    def refuse(path):
        raise AssertionError(f"read_lines({path!r}) on a run path")
    bound = [m for name, m in sorted(sys.modules.items()) if name.startswith("adjamr")
             and getattr(m, "read_lines", None) is runio.read_lines]
    assert runio in bound
    for module in bound:
        monkeypatch.setattr(module, "read_lines", refuse)
    out = str(tmp_path / "out")
    assert main(["run-adjoint", "--config", cfg2d, "--out", out]) == 0
    assert main(["run-forward", "--config", cfg2d, "--out", out, "--strategy", "adjoint"]) == 0
    assert main(["xt-map", "--config", cfg1d, "--out", str(tmp_path / "xt"),
                 "--threshold", "0.1"]) == 0


def _old_text_store(out):
    """An index and first snapshot as the text store of earlier versions wrote them."""
    adj = os.path.join(out, "adjoint")
    os.makedirs(adj)
    with open(os.path.join(adj, "index.txt"), "w") as f:
        f.write("t_start = 0.80000000000000004\nt_final = 0.80000000000000004\n"
                "origin = 0 0\nsnapshot = snap_0000.txt 0\nsnapshot = snap_0001.txt 0.1\n")
    with open(os.path.join(adj, "snap_0000.txt"), "w") as f:
        f.write("patch level=1 lo=0 hi=0 dx=0.20000000000000001 dy=0 time=0 m=2\n0 0\n")
    return os.path.join(adj, "index.txt")


@pytest.mark.parametrize("command", [["run-forward"], ["xt-map", "--threshold", "0.1"]])
def test_an_old_text_store_is_refused(cfg2d, cfg1d, tmp_path, capsys, command):
    # it read as "missing 'widths'" (xt-map reuses a store it finds)
    out = str(tmp_path / "out")
    index = _old_text_store(out)
    cfg = cfg2d if command[0] == "run-forward" else cfg1d
    assert main([command[0], "--config", cfg, "--out", out, *command[1:]]) == 1
    assert capsys.readouterr().err == (f"error: StoreFormatError: {index}: a text store "
                                       f"written by an earlier adjamr; run run-adjoint again\n")
    assert not os.path.exists(os.path.join(out, "snapshots"))
    assert not os.path.exists(os.path.join(out, "xt_q.txt"))


# 224 rows of 400 cells: two blocks of 81 rows, then a partial one
XT_1D = SMALL_1D.replace("nx = 64", "nx = 400")
XT_KEYS = ("q", "qhat", "inner")


@pytest.fixture(scope="module")
def xt_run(tmp_path_factory):
    """The tables `xt-map` wrote, and run_xt_map's masks on the store it solved."""
    tmp = tmp_path_factory.mktemp("xt")
    path, out = tmp / "xt.cfg", tmp / "out"
    path.write_text(XT_1D)
    assert main(["xt-map", "--config", str(path), "--out", str(out), "--threshold", "0.1"]) == 0
    return out, driver.run_xt_map(parse_config(XT_1D), load_store(str(out / "adjoint")), 0.1)


def test_xt_map_streams_the_tables_write_xt_table_writes(xt_run, tmp_path):
    out, (xs, times, *masks) = xt_run
    block = GATHER_VALUES // (2 * len(xs))
    assert len(times) > block and len(times) % block and all(m.any() for m in masks)
    assert sorted(os.listdir(out)) == ["adjoint", *sorted(f"xt_{k}.txt" for k in XT_KEYS)]
    for key, mask in zip(XT_KEYS, masks):
        driver.write_xt_table(str(tmp_path / key), xs, times, mask)
        assert (out / f"xt_{key}.txt").read_bytes() == (tmp_path / key).read_bytes(), key


def test_benchmark_xt_counts_read_the_streamed_tables(xt_run, monkeypatch):
    # the benchmark checks interface-xt by counting the tables' flags
    monkeypatch.syspath_prepend("perfbench")
    checks = importlib.import_module("checks")
    out, (xs, times, *masks) = xt_run
    assert checks.xt_counts_of_files(str(out)) == checks.xt_counts_of_masks(
        xs, times, dict(zip(XT_KEYS, masks)))


def test_a_failed_xt_map_leaves_no_table(tmp_path, monkeypatch, capsys):
    path, out = tmp_path / "xt.cfg", tmp_path / "out"
    path.write_text(XT_1D)
    out.mkdir()
    (out / "xt_q.txt").write_text("an earlier table\n")
    advance, steps = driver.advance_hierarchy, []

    def fail_after_a_block(*args):
        steps.append(args)
        if len(steps) == 100:
            written = [n for n in os.listdir(out) if n not in ("adjoint", "xt_q.txt")]
            assert len(written) == 3 and all(os.path.getsize(out / n) for n in written)
            raise RuntimeError("step failed")
        return advance(*args)

    monkeypatch.setattr(driver, "advance_hierarchy", fail_after_a_block)
    assert main(["xt-map", "--config", str(path), "--out", str(out), "--threshold", "0.1"]) == 1
    assert capsys.readouterr().err.endswith("error: RuntimeError: step failed\n")
    assert sorted(os.listdir(out)) == ["adjoint", "xt_q.txt"]
    assert (out / "xt_q.txt").read_text() == "an earlier table\n"


def test_xt_map_with_a_sink_holds_no_mask_of_the_run():
    # 835 rows of 1,500 cells: the three masks (3.8 MB) outweigh the rest of
    # the run, whose blocks hold 21 rows
    cfg = parse_config(SMALL_1D.replace("nx = 64", "nx = 1500"))
    store, _ = driver.run_adjoint(cfg)
    shape = [0, 0]

    def count(xs, times, masks):
        assert masks.shape == (3, len(times), len(xs)) and len(times) <= 21
        shape[:] = shape[0] + len(times), len(xs)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert driver.run_xt_map(cfg, store, 0.1, sink=count) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shape[0] == 835
    assert peak < 3 * shape[0] * shape[1]
