"""Flat key=value run configuration and CSV helpers.

The config format is plain text, one `key = value` per line, `#` comments,
all quantities dimensionless in units of the g reference. Times accept a
`pi` suffix (`T = 15pi`). An optional `g_hz` key (g/2pi in Hz) converts
physical decay rates `kappa_hz`, `gamma_hz` (rates/2pi in Hz) and a ramp
duration `T_seconds` into dimensionless units.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

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


_KNOWN_KEYS = {
    "L", "N", "init", "init_file",
    "g0", "gT", "rg", "J0", "JT", "rJ", "d0", "dT", "rd", "T",
    "kappa", "gamma", "convention",
    "tol", "steps", "checkpoints", "out",
    "resolution", "refine_tol", "count",
    "JT_min", "JT_max", "JT_points", "dT_min", "dT_max", "dT_points",
    "J_min", "J_max", "J_points", "d_min", "d_max", "d_points",
    "rJ_values", "rho_i", "rho_j",
    "pulse", "eps", "g_d", "pulse_N",
    "g_hz", "kappa_hz", "gamma_hz", "T_seconds",
}


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


def _parse_number(raw: str, where: str) -> float:
    text = raw.strip().lower()
    factor = 1.0
    if text.endswith("pi"):
        factor = math.pi
        text = text[:-2].strip() or "1"
    try:
        value = float(text) * factor
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


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
        if key not in _KNOWN_KEYS:
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


def build_config(raw: dict) -> RunConfig:
    cfg = RunConfig()

    def fetch(key, default=None):
        return raw.get(key, (None, None))[0] if key in raw else default

    def number(key, default):
        if key not in raw:
            return default
        value, where = raw[key]
        return _parse_number(value, where)

    def integer(key, default):
        if key not in raw:
            return default
        value, where = raw[key]
        num = _parse_number(value, where)
        if num != int(num):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(num)

    cfg.sites = integer("L", cfg.sites)
    cfg.excitations = integer("N", cfg.excitations)
    cfg.init = fetch("init", cfg.init)
    cfg.init_file = fetch("init_file", None)
    if cfg.init == "file" and not cfg.init_file:
        raise ConfigError("init = file requires init_file")

    g_hz = number("g_hz", None)

    def either(key, physical, convert, default):
        """`key`, or `physical` (Hz or seconds) converted with g_hz."""
        if physical not in raw:
            return number(key, default)
        where = raw[physical][1]
        if key in raw:
            raise ConfigError(f"{where}: {physical} and {key} set the same "
                              f"quantity; give one of them")
        if g_hz is None or not g_hz > 0:
            raise ConfigError(f"{where}: {physical} needs g_hz > 0 (g/2pi in "
                              f"Hz) to convert it to units of g")
        return convert(number(physical, 0.0))

    total_time = either("T", "T_seconds", lambda s: 2 * math.pi * g_hz * s,
                        cfg.plan.total_time)
    cfg.kappa = either("kappa", "kappa_hz", lambda hz: hz / g_hz, cfg.kappa)
    cfg.gamma = either("gamma", "gamma_hz", lambda hz: hz / g_hz, cfg.gamma)

    try:
        cfg.plan = RampPlan(
            RampSchedule(number("g0", 1.0), number("gT", 1.0), number("rg", 1.0)),
            RampSchedule(number("J0", 0.0), number("JT", 0.5), number("rJ", 1.0)),
            RampSchedule(number("d0", 0.0), number("dT", 0.0), number("rd", 1.0)),
            total_time,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cfg.convention = fetch("convention", cfg.convention)
    cfg.tol = number("tol", cfg.tol)
    cfg.steps = integer("steps", cfg.steps)
    cfg.checkpoints = integer("checkpoints", cfg.checkpoints)
    cfg.out = fetch("out", None)
    cfg.resolution = integer("resolution", cfg.resolution)
    cfg.refine_tol = number("refine_tol", cfg.refine_tol)
    cfg.count = integer("count", cfg.count)

    def grid(prefix):
        keys = (f"{prefix}_min", f"{prefix}_max", f"{prefix}_points")
        present = [k for k in keys if k in raw]
        if not present:
            return None
        if len(present) != 3:
            raise ConfigError(f"grid {prefix} needs all of {keys}")
        return GridSpec(
            number(keys[0], 0.0), number(keys[1], 0.0), integer(keys[2], 1)
        )

    cfg.jt_grid = grid("JT")
    cfg.dt_grid = grid("dT")
    cfg.j_grid = grid("J")
    cfg.d_grid = grid("d")

    if "rJ_values" in raw:
        value, where = raw["rJ_values"]
        cfg.rj_values = tuple(
            _parse_number(tok, where) for tok in value.split(",") if tok.strip()
        )
        if not cfg.rj_values:
            raise ConfigError(f"{where}: empty rJ_values list")

    cfg.rho_i = integer("rho_i", cfg.rho_i)
    cfg.rho_j = integer("rho_j", cfg.rho_j)
    cfg.pulse = fetch("pulse", cfg.pulse)
    cfg.eps = number("eps", cfg.eps)
    cfg.g_d = number("g_d", cfg.g_d)
    cfg.pulse_n = integer("pulse_N", None)

    for key, value, ok, expected in (
        ("L", cfg.sites, cfg.sites >= 1, "at least 1 site"),
        ("N", cfg.excitations, cfg.excitations >= 0, "an excitation count >= 0"),
        ("init", cfg.init, cfg.init in ("mi", "sf", "file"), "mi, sf or file"),
        ("pulse", cfg.pulse, cfg.pulse in ("mi", "sf"), "mi or sf"),
        ("convention", cfg.convention, cfg.convention in DISSIPATION_CONVENTIONS,
         DISSIPATION_CONVENTIONS),
        ("kappa", cfg.kappa, cfg.kappa >= 0, "a rate >= 0"),
        ("gamma", cfg.gamma, cfg.gamma >= 0, "a rate >= 0"),
        ("tol", cfg.tol, cfg.tol > 0, "a tolerance > 0"),
        ("steps", cfg.steps, cfg.steps >= 1, "a step count >= 1"),
        ("checkpoints", cfg.checkpoints, cfg.checkpoints == 0 or cfg.checkpoints >= 2,
         "0, or at least 2 (rows at t = 0, t = T and evenly between)"),
        ("resolution", cfg.resolution, cfg.resolution >= 16,
         "at least 16 (the gap scan's minimum)"),
        ("refine_tol", cfg.refine_tol, cfg.refine_tol > 0, "a tolerance > 0"),
        ("count", cfg.count, cfg.count >= 2, "at least 2"),
        ("rJ_values", cfg.rj_values, all(rj > 0 for rj in cfg.rj_values),
         "ramping indices > 0"),
        ("eps", cfg.eps, cfg.eps != 0, "a nonzero drive amplitude"),
        ("g_d", cfg.g_d, cfg.g_d != 0, "a nonzero coupling"),
        ("pulse_N", cfg.pulse_n, cfg.pulse_n is None or cfg.pulse_n >= 1,
         "an excitation count >= 1"),
    ):
        if not ok:
            where = raw[key][1] + ": " if key in raw else ""
            raise ConfigError(f"{where}{key} = {value!r}, expected {expected}")
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
