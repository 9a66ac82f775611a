"""Flat key=value run configuration and CSV helpers.

The config format is plain text, one `key = value` per line, `#` comments,
all quantities dimensionless in units of the g reference. Times accept a
`pi` suffix (`T = 15pi`). An optional `g_hz` key (g/2pi in Hz) converts
physical decay rates `kappa_hz`, `gamma_hz` (rates/2pi in Hz) and a ramp
duration `T_seconds` into dimensionless units. Each key is declared once,
in `_KEYS`; its default is that of the `RunConfig` field it sets.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass, field, replace

from .operators import DISSIPATION_CONVENTIONS
from .propagate import DEFAULT_STEPS, DEFAULT_TOL
from .ramp import RampPlan, RampSchedule


class ConfigError(ValueError):
    """Malformed configuration; message carries file/line diagnostics."""


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ConfigError(f"grid needs at least one point, got {self.points}")

    def values(self):
        if self.points == 1:
            return [self.lo]
        step = (self.hi - self.lo) / (self.points - 1)
        return [self.lo + k * step for k in range(self.points)]


@dataclass
class RunConfig:
    sites: int = 6
    excitations: int = 6
    init: str = "mi"
    init_file: str | None = None
    plan: RampPlan = field(default_factory=lambda: RampPlan(
        RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.5), RampSchedule(0.0, 0.0),
        15 * math.pi,
    ))
    kappa: float = 0.0
    gamma: float = 0.0
    convention: str = "literal-sigma-z"
    tol: float = DEFAULT_TOL
    steps: int = DEFAULT_STEPS
    checkpoints: int = 0
    out: str | None = None
    resolution: int = 33
    refine_tol: float = 1e-4
    count: int = 6
    jt_grid: GridSpec | None = None
    dt_grid: GridSpec | None = None
    j_grid: GridSpec | None = None
    d_grid: GridSpec | None = None
    rj_values: tuple = ()
    rho_i: int = 1
    rho_j: int = 4
    pulse: str = "sf"
    eps: float = 0.02
    g_d: float = 0.02
    pulse_n: int | None = None


# A config key: the RunConfig field it sets (a dotted path into `plan`), the
# kind its text is read as (str, float, int or a tuple of floats), and the
# bound `ok` its value must meet, which `expected` names.
_Key = namedtuple("_Key", "field kind ok expected", defaults=(float, None, None))
_RATE = (lambda x: x >= 0, "a rate >= 0")
_INDEX = (lambda r: r > 0, "a ramping index > 0")
_TOLERANCE = (lambda x: x > 0, "a tolerance > 0")
# grid key prefix: the RunConfig field its _min, _max and _points keys set
_GRIDS = {"JT": "jt_grid", "dT": "dt_grid", "J": "j_grid", "d": "d_grid"}
# physical-unit key: (the key it stands for, its value in units of g given g_hz)
_UNITS = {
    "kappa_hz": ("kappa", lambda hz, g_hz: hz / g_hz),
    "gamma_hz": ("gamma", lambda hz, g_hz: hz / g_hz),
    "T_seconds": ("T", lambda s, g_hz: 2 * math.pi * g_hz * s),
}

_KEYS = {
    "L": _Key("sites", int, lambda n: n >= 1, "at least 1 site"),
    "N": _Key("excitations", int, lambda n: n >= 0, "an excitation count >= 0"),
    "init": _Key("init", str, lambda s: s in ("mi", "sf", "file"), "mi, sf or file"),
    "init_file": _Key("init_file", str),
    "g0": _Key("plan.g.start"), "gT": _Key("plan.g.stop"),
    "rg": _Key("plan.g.index", float, *_INDEX),
    "J0": _Key("plan.J.start"), "JT": _Key("plan.J.stop"),
    "rJ": _Key("plan.J.index", float, *_INDEX),
    "d0": _Key("plan.delta.start"), "dT": _Key("plan.delta.stop"),
    "rd": _Key("plan.delta.index", float, *_INDEX),
    "T": _Key("plan.total_time", float, lambda t: t > 0, "a ramp time > 0"),
    "kappa": _Key("kappa", float, *_RATE),
    "gamma": _Key("gamma", float, *_RATE),
    "convention": _Key("convention", str, DISSIPATION_CONVENTIONS.__contains__,
                       DISSIPATION_CONVENTIONS),
    "tol": _Key("tol", float, *_TOLERANCE),
    "steps": _Key("steps", int, lambda n: n >= 1, "a step count >= 1"),
    "checkpoints": _Key("checkpoints", int, lambda n: n == 0 or n >= 2,
                        "0, or at least 2 (rows at t = 0, t = T and evenly between)"),
    "out": _Key("out", str),
    "resolution": _Key("resolution", int, lambda n: n >= 16,
                       "at least 16 (the gap scan's minimum)"),
    "refine_tol": _Key("refine_tol", float, *_TOLERANCE),
    "count": _Key("count", int, lambda n: n >= 2, "at least 2"),
    **{f"{p}_{end}": _Key(grid) for p, grid in _GRIDS.items()
       for end in ("min", "max")},
    **{f"{p}_points": _Key(grid, int, lambda n: n >= 1, "at least 1 point")
       for p, grid in _GRIDS.items()},
    "rJ_values": _Key("rj_values", tuple, lambda v: all(r > 0 for r in v),
                      "ramping indices > 0"),
    "rho_i": _Key("rho_i", int), "rho_j": _Key("rho_j", int),
    "pulse": _Key("pulse", str, lambda s: s in ("mi", "sf"), "mi or sf"),
    "eps": _Key("eps", float, lambda x: x != 0, "a nonzero drive amplitude"),
    "g_d": _Key("g_d", float, lambda x: x != 0, "a nonzero coupling"),
    "pulse_N": _Key("pulse_n", int, lambda n: n >= 1, "an excitation count >= 1"),
    **{key: _Key(None) for key in ("g_hz", *_UNITS)},  # converted by _UNITS
}


def _read(key: str, kind: type, text: str, where: str):
    """`text` read as `kind`. A number is finite and may end in `pi`; an int
    is a number with no fraction; a tuple is a comma-separated list."""
    if kind is str:
        return text
    if kind is tuple:
        values = tuple(_read(key, float, tok, where)
                       for tok in text.split(",") if tok.strip())
        if not values:
            raise ConfigError(f"{where}: empty {key} list")
        return values
    number = text.strip().lower()
    factor = 1.0
    if number.endswith("pi"):
        factor = math.pi
        number = number[:-2].strip()
        if number in ("", "+", "-"):  # a bare `pi`, `-pi` or `+pi`
            number += "1"
    try:
        value = float(number) * factor
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{where}: expected an integer, got {text!r}")
    return int(value) if kind is int else value


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a raw string map with diagnostics."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = (value, f"{source}:{lineno}")
    return raw


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text, str(path)))


def _assign(obj, path: str, value):
    """A copy of `obj` with the attribute at the dotted `path` set to `value`."""
    name, _, rest = path.partition(".")
    if rest:
        value = _assign(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def build_config(raw: dict) -> RunConfig:
    """Read each key of `raw` as its kind, convert the physical-unit keys,
    refuse a value outside its key's bound, and set the fields."""
    where = {key: line for key, (_, line) in raw.items()}
    values = {key: _read(key, _KEYS[key].kind, *raw[key]) for key in raw}
    g_hz = values.pop("g_hz", None)
    for physical, (key, convert) in _UNITS.items():
        if physical not in values:
            continue
        if key in values:
            raise ConfigError(f"{where[physical]}: {physical} and {key} set the "
                              f"same quantity; give one of them")
        if g_hz is None or not g_hz > 0:
            raise ConfigError(f"{where[physical]}: {physical} needs g_hz > 0 "
                              f"(g/2pi in Hz) to convert it to units of g")
        values[key] = convert(values.pop(physical), g_hz)
        where[key] = f"{where[physical]} ({physical})"

    for key, value in values.items():
        _, _, ok, expected = _KEYS[key]
        if ok is not None and not ok(value):
            raise ConfigError(f"{where[key]}: {key} = {value!r}, expected {expected}")

    cfg = RunConfig()
    for prefix, name in _GRIDS.items():
        keys = (f"{prefix}_min", f"{prefix}_max", f"{prefix}_points")
        given = [values.pop(key) for key in keys if key in values]
        if 0 < len(given) < 3:
            raise ConfigError(f"grid {prefix} needs all of {keys}")
        if given:
            setattr(cfg, name, GridSpec(*given))
    for key, value in values.items():
        cfg = _assign(cfg, _KEYS[key].field, value)
    if cfg.init == "file" and not cfg.init_file:
        raise ConfigError("init = file requires init_file")
    return cfg


def fmt(x) -> str:
    """Full-precision, locale-free float formatting for CSV cells."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows, footer_comments=()):
    """Written to a temporary file beside `path`, then renamed over it, so
    a crash leaves the old file or none, never a part of one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="ascii", newline="\n")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(fmt(cell) for cell in row) + "\n")
            for comment in footer_comments:
                fh.write(f"# {comment}\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
