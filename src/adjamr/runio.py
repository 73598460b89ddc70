"""Persistence: plain-text snapshots, gauges and timing reports, and the
adjoint store as binary arrays (.npy) with a plain-text index.

Snapshot files hold one header block per patch (level, lo/hi indices, dx, dy,
time, m) followed by one line per cell with 17-significant-digit floats, cells
ordered x-major (i outer, j inner), patches ordered by level then corner
index.  The 17-digit format makes write/read round trips bitwise exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .adjoint import AdjointSnapshotStore, TimeWindow
from .amr import TimingReport
from .geometry import PatchHierarchy, UniformField, apply_stencil
from .solver import level_layout


class SnapshotFormatError(ValueError):
    """Malformed snapshot file; message carries the byte offset."""


class StoreFormatError(ValueError):
    """Malformed adjoint store; message names the file (and the index's line)."""


class TableFormatError(ValueError):
    """Malformed gauge, x-t or timing table; message names the file and the line."""


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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


CHUNK_BYTES = 1 << 16   # text built per write, so no whole-file string is held


def format_rows(rows, sep: str = " "):
    """Lines of `format(v, ".17g")` values joined by `sep`, one per row of a
    2D array, yielded as one string per chunk of rows."""
    line = sep.join(["%.17g"] * rows.shape[1]) + "\n"
    step = max(1, CHUNK_BYTES // (25 * rows.shape[1] + 1))     # <= 25 bytes a value
    for c in range(0, len(rows), step):
        yield line * len(rows[c:c + step]) % tuple(rows[c:c + step].ravel().tolist())


def read_lines(path: str) -> list[bytes]:
    """The file's lines as stored: split after each LF only, so a CR stays."""
    with open(path, "rb") as f:
        return f.readlines()


def read_rows(lines: list[bytes], nf: int, error) -> np.ndarray:
    """`lines` as an (n, nf) array.  Line k, the first without nf blank-separated
    tokens or with a token that is not a number, raises `error(k, why)`."""
    rows = np.empty((len(lines), nf))
    for k, line in enumerate(lines):
        toks = line.split()
        if len(toks) != nf:
            raise error(k, f"expected {nf} values")
        try:
            rows[k] = np.array(toks, dtype=float)
        except ValueError:
            raise error(k, "malformed number") from None
    return rows


def _patch_records(obj) -> list[PatchRecord]:
    if isinstance(obj, UniformField):
        return [PatchRecord(1, (0,) * obj.ndim, tuple(n - 1 for n in obj.shape),
                            obj.dx, obj.dy, obj.time, obj.values)]
    if isinstance(obj, PatchHierarchy):
        return [PatchRecord(level, p.spec.lo, p.spec.hi, *obj.widths(level), p.time,
                            p.interior())
                for level in range(1, obj.num_levels() + 1)
                for p in sorted(obj.patches(level), key=lambda q: q.spec.lo)]
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
            f.writelines(format_rows(r.values.reshape(r.values.shape[0], -1).T))


def read_snapshot(path: str) -> list[PatchRecord]:
    """Parse a snapshot file back into patch records."""
    lines = read_lines(path)
    at = list(accumulate(map(len, lines), initial=0))    # byte offset of each line
    records, k = [], 0
    while k < len(lines):
        if not lines[k].split():
            k += 1
            continue
        if not lines[k].startswith(b"patch "):
            raise SnapshotFormatError(f"{path}: expected patch header at byte {at[k]}")
        where = f"{path}: bad patch header at byte {at[k]}"
        toks = [tok.partition("=") for tok in lines[k].decode("latin-1").split()[1:]]
        for key, eq, _ in toks:
            if not eq:
                raise SnapshotFormatError(f"{where}: {key!r} is not key=value")
        fields = {key: val for key, _, val in toks}
        try:
            level = int(fields["level"])
            lo, hi = (tuple(int(v) for v in fields[key].split(",")) for key in ("lo", "hi"))
            dx, dy, time = (float(fields[key]) for key in ("dx", "dy", "time"))
            m = int(fields["m"])
        except (KeyError, ValueError) as exc:
            raise SnapshotFormatError(f"{where}: {exc}") from None
        why = ("lo and hi differ in length" if len(lo) != len(hi) else "lo exceeds hi"
               if any(h < l for l, h in zip(lo, hi)) else "m is below 1" if m < 1 else "")
        if why:
            raise SnapshotFormatError(f"{where}: {why}")
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        end = k + 1 + math.prod(shape)
        rows = read_rows(lines[k + 1:end], m, lambda j, why: (
            SnapshotFormatError(f"{path}: {why} at byte {at[k + 1 + j]}")))
        if end > len(lines):
            raise SnapshotFormatError(f"{path}: truncated at byte {at[-1]}")
        records.append(PatchRecord(level=level, lo=lo, hi=hi, dx=dx, dy=dy, time=time,
                                   values=rows.T.copy().reshape(m, *shape)))
        k = end
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
    """`stack.npy`, `wet_mask.npy` (with a wet mask only), then `index.txt`
    (window, grid and times at 17 digits): a store with an index is complete."""
    os.makedirs(directory, exist_ok=True)
    index, mask = os.path.join(directory, "index.txt"), os.path.join(directory, "wet_mask.npy")
    for stale in (index, mask):
        if os.path.exists(stale):
            os.remove(stale)
    np.save(os.path.join(directory, "stack.npy"), store.stack)
    if store.wet is not None:
        np.save(mask, store.wet)
    with open(index, "w") as f:
        f.writelines(f"{key} = {' '.join(_fmt(v) for v in vals)}\n" for key, vals in (
            ("t_start", [store.window.t_start]), ("t_final", [store.window.t_final]),
            ("origin", store.origin), ("widths", store.widths), ("times", store.times)))


def _read_array(path: str, dtype) -> np.ndarray:
    """The whole .npy array at `path`, of `dtype`; an object array is refused unread."""
    try:
        with open(path, "rb") as f:
            arr = np.lib.format.read_array(f, allow_pickle=False)
    except FileNotFoundError:
        raise StoreFormatError(f"{path}: missing") from None
    except ValueError:
        raise StoreFormatError(f"{path}: not a whole .npy array of numbers") from None
    if arr.dtype != dtype:
        raise StoreFormatError(f"{path}: dtype {arr.dtype}, expected {np.dtype(dtype)}")
    return arr


def load_store(directory: str) -> AdjointSnapshotStore:
    index = os.path.join(directory, "index.txt")
    if not os.path.exists(index):
        raise FileNotFoundError(f"no adjoint store at {directory}")
    lines, entries = {}, {}
    with open(index, newline="") as f:      # endings as stored, so a lone CR is seen
        for lineno, line in enumerate(f, start=1):
            key, _, val = line.partition("=")
            if line.endswith("\r"):
                raise StoreFormatError(f"{index}:{lineno}: malformed {key.strip()!r} entry")
            lines.setdefault(key.strip(), []).append((lineno, val.split()))
    stack_path, mask = os.path.join(directory, "stack.npy"), os.path.join(directory, "wet_mask.npy")
    if "snapshot" in lines and not os.path.exists(stack_path):
        raise StoreFormatError(f"{index}: a text store written by an earlier adjamr; "
                               f"run run-adjoint again")
    for key, fewest, most in (("t_start", 1, 1), ("t_final", 1, 1), ("origin", 1, 2),
                              ("widths", 2, 2), ("times", 1, math.inf)):
        if key not in lines:
            raise StoreFormatError(f"{index}: missing {key!r}")
        (lineno, toks), *again = lines[key]
        if again:
            raise StoreFormatError(f"{index}:{again[0][0]}: repeated {key!r} (line {lineno})")
        try:
            entries[key] = [float(v) for v in toks]
        except ValueError:
            entries[key] = []
        if not fewest <= len(entries[key]) <= most:
            raise StoreFormatError(f"{index}:{lineno}: malformed {key!r} entry")
    origin, times = tuple(entries["origin"]), np.array(entries["times"])
    try:
        window = TimeWindow(entries["t_start"][0], entries["t_final"][0])
    except ValueError as exc:
        raise StoreFormatError(f"{index}:{lines['t_start'][0][0]}: {exc}") from None
    stack = _read_array(stack_path, np.float64)
    if stack.ndim != 2 + len(origin):
        raise StoreFormatError(f"{stack_path}: {stack.ndim} axes, expected "
                               f"{2 + len(origin)} for a {len(origin)}D origin")
    if len(stack) != len(times):
        raise StoreFormatError(f"{stack_path}: {len(stack)} snapshots, "
                               f"but {index} has {len(times)} times")
    wet = _read_array(mask, np.bool_) if os.path.exists(mask) else None
    if wet is not None and wet.shape != stack.shape[2:]:
        raise StoreFormatError(f"{mask}: shape {wet.shape} differs "
                               f"from the snapshots' {stack.shape[2:]}")
    try:
        return AdjointSnapshotStore(times=times, stack=stack, origin=origin,
                                    widths=tuple(entries["widths"]), window=window, wet=wet)
    except ValueError as exc:
        raise StoreFormatError(f"{index}:{lines['times'][0][0]}: {exc}") from None


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


def _gauge_stencil(gauges: list[GaugeSeries], hierarchy: PatchHierarchy, lay):
    """`LevelLayout.stencil` at the gauges, clamped to interiors, kept in `lay.memo`."""
    key = ("gauges", tuple(s.location for s in gauges))
    if key not in lay.memo:
        coords = [np.array(c, dtype=float) for c in zip(*key[1])]
        lay.memo[key] = lay.stencil(hierarchy, coords, ghosts=False)
    return lay.memo[key]


def record_gauge(gauges: list[GaugeSeries], hierarchy: PatchHierarchy, level: int, t: float):
    """Append the state at time t to each series of `gauges` whose point
    `level` holds and no finer level does, read in the patch holding it and
    clamped to its interior (ghosts may be stale)."""
    lay, finer = level_layout(hierarchy, level), level_layout(hierarchy, level + 1)
    pos, stencil = _gauge_stencil(gauges, hierarchy, lay)
    taken = () if finer is None else _gauge_stencil(gauges, hierarchy, finer)[0].tolist()
    mine = [(j, k) for j, k in enumerate(pos.tolist()) if k not in taken]
    values = apply_stencil(stencil, lay.state) if mine else None
    for j, k in mine:
        gauges[k].times.append(float(t))
        gauges[k].values.append(values[:, j].copy())


def write_gauge(series: GaugeSeries, path: str):
    with open(path, "w") as f:
        loc = ",".join(_fmt(v) for v in series.location)
        f.write(f"# gauge {series.gauge_id} at {loc}\n")
        if len(series.times):
            f.writelines(format_rows(np.column_stack([series.times, series.values]), ","))


def read_gauge(path: str) -> GaugeSeries:
    lines = read_lines(path)
    gid, loc, k = 0, (), 0
    while k < len(lines) and lines[k].startswith(b"#"):
        toks = lines[k].decode("latin-1").replace(",", " ").split()
        try:
            gid, loc = int(toks[2]), tuple(float(v) for v in toks[4:])
        except (IndexError, ValueError):
            raise TableFormatError(f"{path}:{k + 1}: malformed gauge header") from None
        k += 1
    nf = lines[k].count(b",") + 1 if k < len(lines) else 1
    for j, line in enumerate(lines[k:], k + 1):
        if line.count(b",") != nf - 1:
            raise TableFormatError(f"{path}:{j}: expected {nf - 1} commas")
    rows = read_rows([line.replace(b",", b" ") for line in lines[k:]], nf, lambda j, why: (
        TableFormatError(f"{path}:{k + j + 1}: {why}")))
    return GaugeSeries(gauge_id=gid, location=loc, times=rows[:, 0].tolist(),
                       values=list(rows[:, 1:]))


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


def write_timing(report: TimingReport, path: str):
    with open(path, "w") as f:
        f.write(f"adjoint_wall_seconds = {_fmt(report.adjoint_wall_seconds)}\n")
        f.write(f"forward_wall_seconds = {_fmt(report.forward_wall_seconds)}\n")
        for level in sorted(report.cell_steps):
            f.write(f"cell_steps_level_{level} = {report.cell_steps[level]}\n")
        f.write(f"total_cell_steps = {report.total_cell_steps}\n")
        for level in sorted(report.max_courant):
            f.write(f"max_courant_level_{level} = {_fmt(report.max_courant[level])}\n")
        f.write("flagged_cells_per_regrid ="
                + ("" if not report.flagged_per_regrid else " ")
                + " ".join(str(int(v)) for v in report.flagged_per_regrid) + "\n")


def read_timing(path: str) -> TimingReport:
    rep = TimingReport()
    with open(path, newline="") as f:       # endings as stored, so a lone CR is seen
        for k, line in enumerate(f, 1):
            key, _, val = line.partition("=")
            key = key.strip()
            toks = val.split()
            if line.endswith("\r"):
                raise TableFormatError(f"{path}:{k}: malformed {key!r} entry")
            try:
                if key == "adjoint_wall_seconds":
                    rep.adjoint_wall_seconds = float(toks[0])
                elif key == "forward_wall_seconds":
                    rep.forward_wall_seconds = float(toks[0])
                elif key.startswith("cell_steps_level_"):
                    rep.cell_steps[int(key.rsplit("_", 1)[1])] = int(toks[0])
                elif key.startswith("max_courant_level_"):
                    rep.max_courant[int(key.rsplit("_", 1)[1])] = float(toks[0])
                elif key == "flagged_cells_per_regrid":
                    rep.flagged_per_regrid = [int(v) for v in toks]
            except (IndexError, ValueError):
                raise TableFormatError(f"{path}:{k}: malformed {key!r} entry") from None
    return rep
