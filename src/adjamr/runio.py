"""Plain-text persistence: snapshots, adjoint stores, gauges, timing reports.

Snapshot files hold one header block per patch (level, lo/hi indices, dx, dy,
time, m) followed by one line per cell with 17-significant-digit floats, cells
ordered x-major (i outer, j inner), patches ordered by level then corner
index.  The 17-digit format makes write/read round trips bitwise exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointSnapshotStore, TimeWindow
from .geometry import Patch, PatchHierarchy, UniformField, interpolate_patch


class SnapshotFormatError(ValueError):
    """Malformed snapshot file; message carries the byte offset."""


class StoreFormatError(ValueError):
    """Malformed adjoint store index; message names the file and the key."""


class GaugeComparisonError(ValueError):
    """Gauge series cannot be compared (no overlapping time range)."""


@dataclass
class PatchRecord:
    level: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    dx: float
    dy: float
    time: float
    values: np.ndarray            # (m, nx[, ny])

    @property
    def shape(self):
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _patch_records(obj) -> list[PatchRecord]:
    if isinstance(obj, UniformField):
        nd = obj.ndim
        return [PatchRecord(level=1, lo=(0,) * nd,
                            hi=tuple(n - 1 for n in obj.shape),
                            dx=obj.dx, dy=obj.dy, time=obj.time,
                            values=obj.values)]
    if isinstance(obj, PatchHierarchy):
        recs = []
        for level in range(1, obj.num_levels() + 1):
            wx, wy = obj.widths(level)
            for p in sorted(obj.patches(level), key=lambda q: q.spec.lo):
                recs.append(PatchRecord(level=level, lo=p.spec.lo, hi=p.spec.hi,
                                        dx=wx, dy=wy, time=p.time,
                                        values=p.interior()))
        return recs
    raise TypeError(f"cannot snapshot a {type(obj).__name__}")


def write_snapshot(obj, path: str):
    """Write a UniformField or PatchHierarchy as a plain-text snapshot."""
    recs = _patch_records(obj)
    with open(path, "w") as f:
        for r in recs:
            lo = ",".join(str(i) for i in r.lo)
            hi = ",".join(str(i) for i in r.hi)
            f.write(f"patch level={r.level} lo={lo} hi={hi} dx={_fmt(r.dx)} "
                    f"dy={_fmt(r.dy)} time={_fmt(r.time)} m={r.values.shape[0]}\n")
            flat = r.values.reshape(r.values.shape[0], -1)
            for col in range(flat.shape[1]):
                f.write(" ".join(_fmt(v) for v in flat[:, col]) + "\n")


def read_snapshot(path: str) -> list[PatchRecord]:
    """Parse a snapshot file back into patch records."""
    records = []
    offset = 0
    with open(path, "r") as f:
        lines = f.readlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            offset += len(line.encode())
            i += 1
            continue
        if not line.startswith("patch "):
            raise SnapshotFormatError(
                f"{path}: expected patch header at byte {offset}")
        fields = dict(tok.split("=", 1) for tok in line.split()[1:])
        try:
            level = int(fields["level"])
            lo = tuple(int(v) for v in fields["lo"].split(","))
            hi = tuple(int(v) for v in fields["hi"].split(","))
            dx = float(fields["dx"])
            dy = float(fields["dy"])
            time = float(fields["time"])
            m = int(fields["m"])
        except (KeyError, ValueError) as exc:
            raise SnapshotFormatError(
                f"{path}: bad patch header at byte {offset}: {exc}") from None
        offset += len(line.encode())
        i += 1
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        ncells = int(np.prod(shape))
        vals = np.empty((m, ncells))
        for c in range(ncells):
            if i >= len(lines):
                raise SnapshotFormatError(f"{path}: truncated at byte {offset}")
            row = lines[i].split()
            if len(row) != m:
                raise SnapshotFormatError(
                    f"{path}: expected {m} values at byte {offset}")
            try:
                vals[:, c] = [float(v) for v in row]
            except ValueError:
                raise SnapshotFormatError(
                    f"{path}: malformed number at byte {offset}") from None
            offset += len(lines[i].encode())
            i += 1
        records.append(PatchRecord(level=level, lo=lo, hi=hi, dx=dx, dy=dy,
                                   time=time, values=vals.reshape(m, *shape)))
    return records


def read_uniform_field(path: str, origin=None) -> UniformField:
    """Read a single-patch snapshot as a UniformField."""
    recs = read_snapshot(path)
    if len(recs) != 1:
        raise SnapshotFormatError(f"{path}: expected a single uniform patch")
    r = recs[0]
    if origin is None:
        origin = (0.0,) * len(r.lo)
    return UniformField(values=r.values, origin=tuple(origin), dx=r.dx, dy=r.dy,
                        time=r.time)


# ---------------------------------------------------------------------------
# Adjoint snapshot store persistence


def save_store(store: AdjointSnapshotStore, directory: str):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "index.txt"), "w") as f:
        f.write(f"t_start = {_fmt(store.window.t_start)}\n")
        f.write(f"t_final = {_fmt(store.window.t_final)}\n")
        g = store.grid
        f.write("origin = " + " ".join(_fmt(v) for v in g.origin) + "\n")
        for k, (t, fld) in enumerate(zip(store.times, store.fields)):
            name = f"snap_{k:04d}.txt"
            write_snapshot(fld, os.path.join(directory, name))
            f.write(f"snapshot = {name} {_fmt(t)}\n")
        if store.wet is not None:
            wet = UniformField(values=store.wet[None].astype(float),
                               origin=g.origin, dx=g.dx, dy=g.dy)
            write_snapshot(wet, os.path.join(directory, "wet_mask.txt"))
            f.write("wet_mask = wet_mask.txt\n")


def load_store(directory: str) -> AdjointSnapshotStore:
    index = os.path.join(directory, "index.txt")
    if not os.path.exists(index):
        raise FileNotFoundError(f"no adjoint store at {directory}")
    t_start = t_final = None
    origin = None
    entries = []
    wet = wet_name = None
    with open(index) as f:
        for lineno, line in enumerate(f, start=1):
            key, _, val = line.partition("=")
            key = key.strip()
            toks = val.split()
            try:
                if key == "t_start":
                    t_start = float(toks[0])
                elif key == "t_final":
                    t_final = float(toks[0])
                elif key == "origin":
                    origin = tuple(float(v) for v in toks)
                elif key == "snapshot":
                    entries.append((toks[0], float(toks[1])))
                elif key == "wet_mask":
                    wet_name = toks[0]
            except (IndexError, ValueError):
                raise StoreFormatError(
                    f"{index}:{lineno}: malformed {key!r} entry") from None
    for key, value in (("t_start", t_start), ("t_final", t_final), ("origin", origin)):
        if value is None:
            raise StoreFormatError(f"{index}: missing {key!r}")
    if not entries:
        raise StoreFormatError(f"{index}: no 'snapshot' entries")
    if wet_name is not None:
        wet = read_uniform_field(os.path.join(directory, wet_name)).values[0] > 0.5
    fields = []
    times = []
    for name, t in entries:
        fld = read_uniform_field(os.path.join(directory, name), origin=origin)
        fields.append(UniformField(values=fld.values, origin=origin,
                                   dx=fld.dx, dy=fld.dy, time=t))
        times.append(t)
    return AdjointSnapshotStore(times=np.asarray(times), fields=fields,
                                window=TimeWindow(t_start=t_start, t_final=t_final),
                                wet=wet)


# ---------------------------------------------------------------------------
# Gauges


@dataclass
class GaugeSeries:
    gauge_id: int
    location: tuple[float, ...]
    times: list = field(default_factory=list)
    values: list = field(default_factory=list)     # one (m,) vector per time

    def as_arrays(self):
        return np.asarray(self.times), np.asarray(self.values)


def record_gauge(hierarchy: PatchHierarchy, series: GaugeSeries, t: float):
    """Append the interpolated state at the gauge from the finest cover."""
    patch = hierarchy.finest_patch_at(series.location)
    if patch is None:
        return
    x = np.array([series.location[0]])
    y = np.array([series.location[1]]) if len(series.location) == 2 else None
    val = interpolate_patch(patch, x, y, interior_only=True)[:, 0]
    series.times.append(float(t))
    series.values.append(val.copy())


def write_gauge(series: GaugeSeries, path: str):
    with open(path, "w") as f:
        loc = ",".join(_fmt(v) for v in series.location)
        f.write(f"# gauge {series.gauge_id} at {loc}\n")
        for t, v in zip(series.times, series.values):
            f.write(",".join([_fmt(t)] + [_fmt(x) for x in v]) + "\n")


def read_gauge(path: str) -> GaugeSeries:
    times = []
    values = []
    gid = 0
    loc = ()
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                toks = line.split()
                gid = int(toks[2])
                loc = tuple(float(v) for v in toks[4].split(","))
                continue
            row = [float(v) for v in line.strip().split(",")]
            times.append(row[0])
            values.append(np.asarray(row[1:]))
    return GaugeSeries(gauge_id=gid, location=loc, times=times, values=values)


def compare_gauges(a: GaugeSeries, b: GaugeSeries):
    """(max_abs, rms) per component over the overlapping range.

    The finer-sampled series is linearly resampled onto the coarser one's
    times inside the overlap.
    """
    ta, va = a.as_arrays()
    tb, vb = b.as_arrays()
    if len(ta) == 0 or len(tb) == 0:
        raise GaugeComparisonError("empty gauge series")
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    if hi < lo:
        raise GaugeComparisonError("gauge series do not overlap in time")
    base_t = ta if len(ta) <= len(tb) else tb
    base_t = base_t[(base_t >= lo) & (base_t <= hi)]
    m = va.shape[1]
    diffs = np.empty((len(base_t), m))
    for k in range(m):
        fa = np.interp(base_t, ta, va[:, k])
        fb = np.interp(base_t, tb, vb[:, k])
        diffs[:, k] = fa - fb
    max_abs = np.max(np.abs(diffs), axis=0)
    rms = np.sqrt(np.mean(diffs ** 2, axis=0))
    return max_abs, rms


# ---------------------------------------------------------------------------
# Timing reports


@dataclass
class TimingReport:
    adjoint_wall_seconds: float = 0.0
    forward_wall_seconds: float = 0.0
    cell_steps: dict = field(default_factory=dict)        # level -> count
    flagged_per_regrid: list = field(default_factory=list)

    @property
    def total_cell_steps(self) -> int:
        return int(sum(self.cell_steps.values()))

    def fine_cell_steps(self) -> int:
        return int(sum(v for k, v in self.cell_steps.items() if k >= 2))


def write_timing(report: TimingReport, path: str):
    with open(path, "w") as f:
        f.write(f"adjoint_wall_seconds = {_fmt(report.adjoint_wall_seconds)}\n")
        f.write(f"forward_wall_seconds = {_fmt(report.forward_wall_seconds)}\n")
        for level in sorted(report.cell_steps):
            f.write(f"cell_steps_level_{level} = {report.cell_steps[level]}\n")
        f.write(f"total_cell_steps = {report.total_cell_steps}\n")
        f.write("flagged_cells_per_regrid ="
                + ("" if not report.flagged_per_regrid else " ")
                + " ".join(str(int(v)) for v in report.flagged_per_regrid) + "\n")


def read_timing(path: str) -> TimingReport:
    rep = TimingReport()
    with open(path) as f:
        for line in f:
            key, _, val = line.partition("=")
            key = key.strip()
            toks = val.split()
            if key == "adjoint_wall_seconds":
                rep.adjoint_wall_seconds = float(toks[0])
            elif key == "forward_wall_seconds":
                rep.forward_wall_seconds = float(toks[0])
            elif key.startswith("cell_steps_level_"):
                rep.cell_steps[int(key.rsplit("_", 1)[1])] = int(toks[0])
            elif key == "flagged_cells_per_regrid":
                rep.flagged_per_regrid = [int(v) for v in toks]
    return rep
