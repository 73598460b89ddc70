"""Run configuration: INI-style text files parsed and checked into a RunConfig.

Format: `[section]` headers, `key = value` lines, `#` comments.  Values are
whitespace-separated tokens.  Every key is one row of KEYS, which gives its
section, its kind (token count and conversion), its default and its valid
range; one loop checks every line against its row.  Unknown sections and
keys, and repeats of any key but `gauge` and `region`, are rejected.  Every
error names the line: `line N: [section] key ...`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import equations as eqs
from .adjoint import FunctionalSpec, TimeWindow
from .amr import RefinementRegion
from .solver import LIMITERS, BoundarySpec


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the line."""


EQUATION_NAMES = ("acoustics-1d", "acoustics-2d", "swe-linear-2d")
STRATEGY_NAMES = ("adjoint", "difference", "surface", "everywhere")
_REQUIRED = "required"
_REPEATABLE = ("gauge", "region")

# Primitive kind -> name -> count of the values after the name, in (1D, 2D);
# None where the primitive does not exist in that dimension.
_PRIMITIVES = {
    "profile": {"gaussian": (3, 4), "cosine_hump": (None, 5),
                "standing_mode": (1, 2), "table": (1, 1)},
    "medium": {"constant": (1, 1), "piecewise_x": (3, 3), "piecewise_y": (None, 3)},
    "bathymetry": {"flat": (None, 1), "gaussian_island": (None, 5),
                   "linear_ramp_x": (None, 4)},
    "shape": {"box": (2, 4), "disk": (None, 3)},
}

# Range name -> predicate; an error reads "must be <name>".
_CHECKS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "increasing": lambda v: v[0] < v[1],
    ">= 2 each": lambda v: min(v) >= 2,
    "positive-valued": lambda d: min(d[1:] if d[0] == "constant" else d[2:]) > 0,
    "of positive width": lambda d: d[0] not in ("gaussian", "cosine_hump") or d[-1] > 0,
    "of positive size": lambda d: (d[3] > 0 if d[0] == "disk"
                                   else all(a < b for a, b in zip(d[1::2], d[2::2]))),
}

# (section, key, kind, default, check).  A kind is a tuple of choices, a
# primitive kind, or one of "int", "float" (finite), "pair" (two floats),
# "ints"/"floats" (one or more), "gauge" or "region" (both repeatable).
KEYS = (
    ("problem", "equation", EQUATION_NAMES, _REQUIRED, None),
    ("problem", "xlim", "pair", _REQUIRED, "increasing"),
    ("problem", "ylim", "pair", _REQUIRED, "increasing"),
    ("problem", "nx", "int", _REQUIRED, ">= 1"),
    ("problem", "ny", "int", _REQUIRED, ">= 1"),
    ("problem", "t0", "float", 0.0, None),
    ("problem", "t_final", "float", _REQUIRED, None),
    ("material", "bulk", "medium", ("constant", 1.0), "positive-valued"),
    ("material", "density", "medium", ("constant", 1.0), "positive-valued"),
    ("material", "bathymetry", "bathymetry", _REQUIRED, None),
    ("material", "sea_level", "float", 0.0, None),
    ("material", "gravity", "float", 9.81, "> 0"),
    ("initial", "profile", "profile", _REQUIRED, "of positive width"),
    ("boundary", "left", ("wall", "outflow"), "wall", None),
    ("boundary", "right", ("wall", "outflow"), "wall", None),
    ("boundary", "bottom", ("wall", "outflow"), "wall", None),
    ("boundary", "top", ("wall", "outflow"), "wall", None),
    ("solver", "courant", "float", 0.9, "in (0, 1]"),
    ("solver", "limiter", LIMITERS, "MC", None),
    ("solver", "dt_fixed", "float", None, "> 0"),
    ("solver", "dt_max", "float", math.inf, "> 0"),
    ("amr", "max_levels", "int", 1, ">= 1"),
    ("amr", "ratios", "ints", (), ">= 2 each"),
    ("amr", "strategy", STRATEGY_NAMES, "difference", None),
    ("amr", "tolerance", "float", 0.1, "> 0"),
    ("amr", "tolerance_adjoint", "float", None, "> 0"),
    ("amr", "tolerance_difference", "float", None, "> 0"),
    ("amr", "tolerance_surface", "float", None, "> 0"),
    ("amr", "regrid_interval", "int", 1, ">= 1"),
    ("amr", "buffer_cells", "int", 3, ">= 0"),
    ("amr", "efficiency", "float", 0.7, "in (0, 1]"),
    ("amr", "max_patch_edge", "int", 60, ">= 1"),
    ("amr", "region", "region", (), None),
    ("functional", "shape", "shape", None, "of positive size"),
    ("functional", "component", "int", 0, ">= 0"),
    ("functional", "weight", "float", 1.0, None),
    ("functional", "t_start", "float", None, None),        # None: t_final
    ("functional", "adjoint_nx", "int", None, ">= 1"),     # None: nx
    ("functional", "adjoint_ny", "int", None, ">= 1"),     # None: ny
    ("functional", "snapshot_dt", "float", None, "> 0"),
    ("output", "num_frames", "int", None, ">= 1"),
    ("output", "times", "floats", None, None),
    ("output", "gauge", "gauge", (), None),
)
_SECTION = {key: section for section, key, *_ in KEYS}

# Keys that only some equations take; elsewhere they are rejected and None.
_2D = EQUATION_NAMES[1:]
_ONLY = {"ylim": _2D, "ny": _2D, "bottom": _2D, "top": _2D, "adjoint_ny": _2D,
         "bulk": EQUATION_NAMES[:2], "density": EQUATION_NAMES[:2],
         "bathymetry": _2D[1:], "sea_level": _2D[1:], "gravity": _2D[1:]}


@dataclass
class GaugeSpec:
    gauge_id: int
    location: tuple[float, ...]


@dataclass
class RunConfig:
    """A parsed configuration; KEYS holds every default and range."""

    equation: str
    xlim: tuple[float, float]
    ylim: tuple[float, float] | None
    nx: int
    ny: int | None
    t0: float
    t_final: float
    material: dict
    initial: tuple                      # (profile name, params...)
    boundary: BoundarySpec
    courant: float
    limiter: str
    dt_fixed: float | None
    dt_max: float
    max_levels: int
    ratios: tuple[int, ...]
    strategy: str
    tolerance: float
    tolerances: dict                    # per-strategy overrides
    regrid_interval: int
    buffer_cells: int
    efficiency: float
    max_patch_edge: int
    regions: tuple[RefinementRegion, ...]
    functional: FunctionalSpec | None
    t_start: float | None
    adjoint_shape: tuple[int, ...] | None
    snapshot_dt: float | None
    output_times: tuple[float, ...]
    gauges: tuple[GaugeSpec, ...]

    @property
    def ndim(self) -> int:
        return 1 if self.equation == "acoustics-1d" else 2

    @property
    def num_components(self) -> int:
        return 2 if self.equation == "acoustics-1d" else 3

    @property
    def base_shape(self) -> tuple[int, ...]:
        return (self.nx,) if self.ndim == 1 else (self.nx, self.ny)

    @property
    def origin(self) -> tuple[float, ...]:
        """The domain corner."""
        return tuple(lim[0] for lim in (self.xlim, self.ylim)[:self.ndim])

    def window(self) -> TimeWindow:
        ts = self.t_final if self.t_start is None else self.t_start
        return TimeWindow(t_start=ts, t_final=self.t_final)


class _Bad(Exception):
    """A value at fault; the loop adds its line, section and key."""


def _num(tok: str, cast=float):
    try:
        v = cast(tok)
    except ValueError:
        what = "integer" if cast is int else "number"
        raise _Bad(f"has malformed {what} {tok!r}") from None
    if not math.isfinite(v):
        raise _Bad(f"must be finite, got {tok}")
    return v


def _count(toks, n, what="values"):
    if len(toks) != n:
        raise _Bad(f"needs {n} {what}, got {len(toks)}")
    return toks


def _some(toks):
    if not toks:
        raise _Bad("needs at least one value")
    return toks


def _choice(names, toks):
    if _count(toks, 1, "value")[0] not in names:
        raise _Bad(f"must be one of {', '.join(names)}, got {toks[0]!r}")
    return toks[0]


def _primitive(kind, toks, ndim):
    name = _choice(_PRIMITIVES[kind], _some(toks)[:1])
    n = _PRIMITIVES[kind][name][ndim - 1]
    if n is None:
        raise _Bad(f"{name} needs a 2D problem")
    args = _count(toks[1:], n, f"values after {name}")
    if name == "table":
        return (name, args[0])
    return (name, *(_num(t, int if name == "standing_mode" else float) for t in args))


def _gauge(toks, ndim):
    _count(toks, 1 + ndim, f"values (id and {ndim} coordinates)")
    return GaugeSpec(gauge_id=_num(toks[0], int),
                     location=tuple(_num(t) for t in toks[1:]))


def _region(toks, ndim):
    _count(toks, 4 + 2 * ndim, "values (minlev maxlev t1 t2, then min max per axis)")
    levels = [_num(t, int) for t in toks[:2]]
    nums = [_num(t) for t in toks[2:]]
    if any(lo > hi for lo, hi in zip(levels[::2] + nums[::2], levels[1::2] + nums[1::2])):
        raise _Bad("needs min <= max for its levels, times and each axis")
    return RefinementRegion(*levels, t1=nums[0], t2=nums[1], rect=tuple(nums[2:]))


# kind -> (tokens, ndim) -> value
_KINDS = {
    "int": lambda toks, ndim: _num(_count(toks, 1, "value")[0], int),
    "float": lambda toks, ndim: _num(_count(toks, 1, "value")[0]),
    "pair": lambda toks, ndim: tuple(_num(t) for t in _count(toks, 2)),
    "ints": lambda toks, ndim: tuple(_num(t, int) for t in _some(toks)),
    "floats": lambda toks, ndim: tuple(_num(t) for t in _some(toks)),
    "gauge": _gauge,
    "region": _region,
    **{kind: partial(_primitive, kind) for kind in _PRIMITIVES},
}


def _read(text: str) -> dict:
    """key -> [(lineno, tokens), ...] for every `key = value` line."""
    lines: dict[str, list] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION.values():
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if _SECTION.get(key) != section:
            raise ConfigError(f"line {lineno}: [{section}] {key} is an unknown key")
        if key in lines and key not in _REPEATABLE:
            raise ConfigError(f"line {lineno}: [{section}] {key} repeats line "
                              f"{lines[key][0][0]}")
        lines.setdefault(key, []).append((lineno, val.split()))
    return lines


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    lines = _read(text)
    v = {}
    ndim = None
    for section, key, kind, default, check in KEYS:
        given = lines.get(key, [])
        if ndim is not None and v["equation"] not in _ONLY.get(key, EQUATION_NAMES):
            if given:
                raise ConfigError(f"line {given[0][0]}: [{section}] {key} is not a "
                                  f"key of {v['equation']}")
            v[key] = None
            continue
        if not given and default is _REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        values = []
        for lineno, toks in given:
            try:
                val = (_choice(kind, toks) if isinstance(kind, tuple)
                       else _KINDS[kind](toks, ndim))
                if check is not None and not _CHECKS[check](val):
                    raise _Bad(f"must be {check}")
            except _Bad as exc:
                raise ConfigError(f"line {lineno}: [{section}] {key} {exc}") from None
            values.append(val)
        v[key] = (tuple(values) if key in _REPEATABLE
                  else values[0] if values else default)
        if key == "equation":
            ndim = 1 if v[key] == "acoustics-1d" else 2

    def cite(*keys):
        return ", ".join(f"[{_SECTION[k]}] {k} (" + (
            f"line {lines[k][0][0]}" if k in lines
            else "not set" if v[k] is None else "default") + ")" for k in keys)

    def fail(key, msg, k=0):
        raise ConfigError(f"line {lines[key][k][0]}: [{_SECTION[key]}] {key} {msg}")

    t0, t_final = v["t0"], v["t_final"]
    if v["profile"][0] == "standing_mode" and not any(v["profile"][1:]):
        fail("profile", "needs a nonzero mode")
    if t_final <= t0:
        fail("t_final", f"must exceed {cite('t0')}")
    ratios = v["ratios"][:v["max_levels"] - 1]
    if len(ratios) < v["max_levels"] - 1:
        fail("max_levels", f"needs {v['max_levels'] - 1} entries in {cite('ratios')}")

    functional = adjoint_shape = None
    t_start, m = v["t_start"], ndim + 1
    if v["shape"] is not None:
        if t_start is None:
            t_start = t_final
        elif not t0 <= t_start <= t_final:
            fail("t_start", f"must lie in [t0, t_final] = [{t0:g}, {t_final:g}] "
                            f"of {cite('t0', 't_final')}")
        if v["component"] >= m:
            fail("component", f"must be < {m} for {cite('equation')}")
        functional = FunctionalSpec(
            kind=v["shape"][0], bounds=v["shape"][1:],
            weights=tuple(v["weight"] if k == v["component"] else 0.0 for k in range(m)))
        adjoint_shape = ((v["adjoint_nx"] or v["nx"]),
                         (v["adjoint_ny"] or v["ny"]))[:ndim]
        if v["snapshot_dt"] is not None and v["snapshot_dt"] > t_final - t0:
            fail("snapshot_dt", f"must be <= t_final - t0 of {cite('t0', 't_final')}")
    else:
        for key in lines:
            if _SECTION[key] == "functional":
                fail(key, f"needs {cite('shape')}")
        if v["strategy"] == "adjoint":
            fail("strategy", f"adjoint needs {cite('shape')}")

    if v["times"] is not None:
        if v["num_frames"] is not None:
            fail("times", f"conflicts with {cite('num_frames')}")
        for t in v["times"]:
            if not t0 - 1e-12 <= t <= t_final + 1e-12:
                fail("times", f"{t:g} lies outside [t0, t_final] of "
                              f"{cite('t0', 't_final')}")
        output_times = v["times"]
    elif v["num_frames"] is not None:
        output_times = tuple(np.linspace(t0, t_final, v["num_frames"] + 1))
    else:
        output_times = (t0, t_final)

    ids = {}
    for k, g in enumerate(v["gauge"]):
        for axis, lim, x in zip(("x", "y"), ("xlim", "ylim"), g.location):
            if not v[lim][0] <= x <= v[lim][1]:
                fail("gauge", f"{axis} = {x:g} lies outside {cite(lim)}", k)
        if g.gauge_id in ids:
            fail("gauge", f"id {g.gauge_id} repeats line "
                          f"{lines['gauge'][ids[g.gauge_id]][0]}", k)
        ids[g.gauge_id] = k

    sides = ("left", "right", "bottom", "top")
    return RunConfig(
        equation=v["equation"], xlim=v["xlim"], ylim=v["ylim"], nx=v["nx"],
        ny=v["ny"], t0=t0, t_final=t_final,
        material={k: v[k] for k in ("bulk", "density", "bathymetry", "sea_level",
                                    "gravity") if v[k] is not None},
        initial=v["profile"],
        boundary=BoundarySpec(**{s: v[s] for s in sides if v[s] is not None}),
        courant=v["courant"], limiter=v["limiter"], dt_fixed=v["dt_fixed"],
        dt_max=v["dt_max"], max_levels=v["max_levels"], ratios=ratios,
        strategy=v["strategy"], tolerance=v["tolerance"],
        tolerances={s: v[f"tolerance_{s}"] for s in ("adjoint", "difference", "surface")
                    if v[f"tolerance_{s}"] is not None},
        regrid_interval=v["regrid_interval"], buffer_cells=v["buffer_cells"],
        efficiency=v["efficiency"], max_patch_edge=v["max_patch_edge"],
        regions=v["region"], functional=functional, t_start=t_start,
        adjoint_shape=adjoint_shape, snapshot_dt=v["snapshot_dt"],
        output_times=output_times, gauges=v["gauge"],
    )


# ---------------------------------------------------------------------------
# Builders from the parsed descriptors


def _field(desc, *coords):
    """A medium, bathymetry or analytic profile descriptor at the points
    `coords`, one array per axis; the arrays broadcast together."""
    name, *v = desc
    xs = [np.asarray(c, dtype=float) for c in coords]
    x, y = (*xs, None)[:2]
    if name == "constant":
        return np.full(np.broadcast(*xs).shape, v[0])
    if name in ("piecewise_x", "piecewise_y"):
        return np.where(xs[name == "piecewise_y"] < v[0], v[1], v[2])
    if name == "flat":
        return np.full_like(x, v[0])
    if name == "gaussian_island":
        base, height, xc, yc, radius = v
        return base + height * np.exp(-((x - xc) ** 2 + (y - yc) ** 2) / radius ** 2)
    if name == "linear_ramp_x":
        x0, x1, b0, b1 = v
        return b0 + np.clip((x - x0) / (x1 - x0), 0.0, 1.0) * (b1 - b0)
    if name == "gaussian":
        amp, *center, beta = v
        return amp * np.exp(-beta * sum((c - c0) ** 2 for c, c0 in zip(xs, center)))
    if name == "cosine_hump":
        amp, x0, y0, r0, width = v
        r = np.sqrt((x - x0) ** 2 + (y - y0) ** 2)
        return np.where(np.abs(r - r0) <= width,
                        amp * (1.0 + np.cos(np.pi * (r - r0) / width)), 0.0)
    raise ConfigError(f"unknown primitive {name!r}")


def _standing_mode(cfg: RunConfig):
    """The standing mode's pressure at t = 0, prod_a cos(k_a (x_a - lo_a)),
    as a function of one coordinate array per axis, and its wavenumbers k_a."""
    lims = (cfg.xlim, cfg.ylim)[:cfg.ndim]
    ks = [mode * np.pi / (hi - lo) for mode, (lo, hi) in zip(cfg.initial[1:], lims)]
    return (lambda *coords: math.prod(np.cos(k * (np.asarray(c) - lo))
                                      for k, c, (lo, _) in zip(ks, coords, lims))), ks


def build_equation(cfg: RunConfig) -> eqs.EquationSet:
    mat = cfg.material
    if cfg.equation.startswith("acoustics"):
        model = eqs.AcousticsMaterialModel(partial(_field, mat["bulk"]),
                                           partial(_field, mat["density"]))
        return (eqs.Acoustics1D, eqs.Acoustics2D)[cfg.ndim - 1](model)
    return eqs.SweLinear2D(eqs.SweMaterialModel(
        partial(_field, mat["bathymetry"]), mat["sea_level"], mat["gravity"]))


def build_initial(cfg: RunConfig):
    """State-initializer callable: ic(*coords) -> (m, ...) array, one
    coordinate array per axis; an analytic profile sets component 0."""
    if cfg.initial[0] == "table":
        from .geometry import interpolate_uniform
        from .runio import read_uniform_field
        table = read_uniform_field(cfg.initial[1], origin=cfg.origin)
        return lambda *coords: interpolate_uniform(table, *coords)
    field = (_standing_mode(cfg)[0] if cfg.initial[0] == "standing_mode"
             else partial(_field, cfg.initial))

    def ic(*coords):
        f = field(*coords)
        out = np.zeros((cfg.num_components, *np.shape(f)))
        out[0] = f
        return out
    return ic


def standing_mode_solution(cfg: RunConfig):
    """Exact pressure p(t, *coords) of the wall-bounded standing mode, or None:
    only for constant-coefficient acoustics with the standing_mode profile
    (the convergence study)."""
    mat = cfg.material
    if (cfg.initial[0] != "standing_mode" or not cfg.equation.startswith("acoustics")
            or mat["bulk"][0] != "constant" or mat["density"][0] != "constant"):
        return None
    mode, ks = _standing_mode(cfg)
    om = np.sqrt(mat["bulk"][1] / mat["density"][1]) * np.sqrt(sum(k ** 2 for k in ks))
    return lambda t, *coords: mode(*coords) * np.cos(om * t)
