"""Run drivers behind the CLI: ramps, fidelity grids, maps and pulses.

Ramps, phase diagrams, rJ sweeps, rho1 maps and the symmetric gap of
gap scans run in the fully symmetric sector (k = 0 and even under the
mirror j -> L-1-j), built once per run: after the gauge
(-1)^{#qubits up}, which the mirror keeps, H is stoquastic for J >= 0, so
its ground state is invariant under every lattice symmetry; so are the
prepared MI and SF states, and H and the decay diagonal commute with
translations and the mirror, so every ramp and target stays there. Runs
that would leave it (a negative J, an init_file state with weight
outside it) are refused as configuration errors. The E_gap_any column of
gap scans needs every sector: it merges the lowest levels of each real
block of the dihedral group (`operators.block_sectors`), and so does
`spectrum`, which labels each level by its block.

Phase diagrams, rJ sweeps and rho1 maps run one grid step (`_grid`):
`map_points` evaluates their points, serially or on a fork pool, journaled
for `--resume`, and each becomes one CSV row in grid-index order, so output
files are deterministic whatever the thread count or interruption history.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import basis, states
from .basis import (LatticeShape, ResourceLimitError, enumerate_basis, sector_dimension,
                    write_basis_text)
from .config import ConfigError, RunConfig, fmt, write_csv
from .operators import (Block, DihedralOrbits, HamiltonianTemplates, block_sectors,
                        symmetric_sector)
from .propagate import evolve, fidelity
from .ramp import RampPlan, RampSchedule, trajectory_point
from .spectrum import GapReport, block_levels, gap_scan, ground_state

SECTOR_WEIGHT_TOL = 1e-8  # largest initial-state weight outside the sector
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class SimContext:
    """Symmetric-sector templates, initial state and decay diagonal (None
    unless kappa or gamma is positive), shared by every point of a sweep."""

    cfg: RunConfig
    templates: HamiltonianTemplates
    psi0: np.ndarray
    decay: np.ndarray | None


def _run_table(cfg: RunConfig):
    """The configured basis, refused before its enumeration when the (0, +)
    block would exceed the cap: each orbit, of at most 2L keys, gives it a state."""
    shape = LatticeShape(cfg.sites, cfg.excitations)
    least = -(-sector_dimension(shape) // (2 * cfg.sites))
    if least > basis.DEFAULT_DIM_CAP:
        raise ResourceLimitError(f"the (0, +) block has at least {least} states, "
                                 f"above the cap {basis.DEFAULT_DIM_CAP}")
    return enumerate_basis(shape)


def prepare_context(cfg: RunConfig) -> SimContext:
    table = _run_table(cfg)
    templates = symmetric_sector(table)
    psi0 = templates.isometry.T @ initial_state(cfg, table)
    weight = float(np.vdot(psi0, psi0).real)
    if not weight >= 1.0 - SECTOR_WEIGHT_TOL:  # NaN fails too
        raise ConfigError(
            f"initial state has symmetric-sector weight {weight:.12g}, below "
            f"1 - {SECTOR_WEIGHT_TOL:g}: ramps run in the sector of states "
            f"invariant under translations and the mirror (k = 0, "
            f"mirror-even), which cannot represent it"
        )
    decay = (templates.dissipative_rates(cfg.kappa, cfg.gamma, cfg.convention)
             if cfg.kappa > 0 or cfg.gamma > 0 else None)
    return SimContext(cfg, templates, psi0, decay)


def _require_nonnegative_j(values, what: str) -> None:
    lowest = min(values)
    if lowest < 0:
        raise ConfigError(
            f"{what} reaches J = {fmt(float(lowest))} < 0: without J >= 0 the "
            f"ground state need not lie in the symmetric sector (k = 0, "
            f"mirror-even) this command uses"
        )


def initial_state(cfg: RunConfig, table) -> np.ndarray:
    """Initial state on the full basis; an init_file holds one amplitude
    per basis state."""
    if cfg.init == "mi":
        return states.mi_ground_state(table, cfg.plan.delta.start, cfg.plan.g.start)
    if cfg.init == "sf":
        return states.sf_ground_state(table)
    try:
        with open(cfg.init_file, "rb") as fh:
            psi = np.load(fh)  # an .npz archive loads as an NpzFile
            if not isinstance(psi, np.ndarray):
                raise TypeError(f"it loads as {type(psi).__name__}")
            psi = psi.astype(complex).ravel()
    except (ValueError, TypeError, EOFError) as exc:
        raise ConfigError(f"init_file {cfg.init_file} is not a .npy array of "
                          f"{table.dim} amplitudes: {exc}") from None
    if psi.shape != (table.dim,):
        raise ConfigError(
            f"init_file state has {psi.shape[0]} amplitudes, basis dim is "
            f"{table.dim}"
        )
    bad = np.flatnonzero(~np.isfinite(psi))
    if bad.size:
        raise ConfigError(f"init_file {cfg.init_file} has a non-finite "
                          f"amplitude at index {bad[0]}: {psi[bad[0]]}")
    largest = np.abs(psi).max()  # scales the norm clear of over- and underflow
    if not largest > 0:
        raise ConfigError("init_file state has zero norm")
    psi = psi / largest
    return psi / np.linalg.norm(psi)


class Journal(NamedTuple):
    """A grid run's progress file and the header line that names the run."""

    path: str
    header: str


def _journal(cfg: RunConfig, command: str) -> Journal | None:
    """`<out>.progress`, headed by a hash of the command and of every config
    value but `out`; None when the run writes no output."""
    if not cfg.out:
        return None
    run = repr((command, dataclasses.replace(cfg, out=None)))
    digest = hashlib.sha256(run.encode("utf-8")).hexdigest()
    return Journal(cfg.out + ".progress", f"# {command} config sha256={digest}")


def _load_progress(path: str, header: str) -> dict:
    """Points journaled under `header`; a journal with another first line
    is another run's, a ConfigError. A last line that is unterminated or
    does not parse is what a crash in mid-write leaves: it is dropped and
    cut from the file, with a warning on stderr, so the next appended line
    starts clean. A malformed line before it is a ConfigError."""
    done = {}
    with open(path, "rb+") as fh:
        data = fh.read()
        first, newline, body = data.partition(b"\n")
        if not newline or first != header.encode("ascii"):
            raise ConfigError(f"{path}: journal of another command or config "
                              f"(first line {first[:100]!r}, not {header!r})")
        *lines, torn = body.split(b"\n")  # torn: text after the last newline
        kept = len(first) + 1
        for k, line in enumerate(lines):
            try:
                if line.strip():
                    idx, value = line.decode("ascii").split(",", 1)
                    done[int(idx)] = float(value)
            except ValueError:
                if k < len(lines) - 1 or torn:
                    raise ConfigError(
                        f"{path}:{k + 2}: malformed journal line {line!r}"
                    ) from None
                break
            kept += len(line) + 1
        if kept < len(data):
            print(f"warning: {path}: dropped the torn last journal line "
                  f"{data[kept:][:100]!r} ({len(data) - kept} bytes)",
                  file=sys.stderr)
            fh.truncate(kept)
    return done


_adopted = None  # the point function; set only in forked pool workers


def _adopt(fn) -> None:
    global _adopted
    _adopted = fn


def _call_adopted(index: int):
    return index, _adopted(index)


def map_points(fn, count: int, threads: int = 1,
               journal: Journal | None = None, resume: bool = False) -> list:
    """[fn(0), ..., fn(count - 1)] for independent grid points.

    With `threads` > 1 they run on forked workers, which receive `fn` through
    fork, unpickled, and share what it closes over copy-on-write. Each value
    is appended to the `journal` as `index,value` (17 digits, so it reads
    back bit for bit) and flushed as it arrives, as is the header before
    it; with `resume` the points an existing journal holds are not computed
    again. A pool started while no BLAS thread count is set warns on stderr.
    """
    done, log = {}, None
    with contextlib.ExitStack() as stack:
        if journal:
            resumed = resume and os.path.exists(journal.path)
            if resumed:
                done = _load_progress(journal.path, journal.header)
            log = stack.enter_context(open(  # line-buffered: flushed per line
                journal.path, "a" if resumed else "w", encoding="ascii", buffering=1))
            if not resumed:
                log.write(journal.header + "\n")
        pending = [i for i in range(count) if i not in done]
        if threads > 1 and len(pending) > 1:
            import multiprocessing

            if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
                print(f"warning: BLAS threads at their default oversubscribe the "
                      f"{threads} pool workers; set OPENBLAS_NUM_THREADS=1 (the "
                      f"desk-scale grids took 125 s this way, 38 s with one "
                      f"thread)", file=sys.stderr)
            mp = multiprocessing.get_context("fork")
            pool = stack.enter_context(mp.Pool(threads, _adopt, (fn,)))
            results = pool.imap_unordered(_call_adopted, pending)
        else:
            results = ((i, fn(i)) for i in pending)
        for i, value in results:
            done[i] = value
            if log:
                log.write(f"{i},{fmt(value)}\n")
    return [done[i] for i in range(count)]


@dataclass
class RampResult:
    fidelity_raw: float
    fidelity_normalized: float
    norm_drift: float
    step_count: int
    error_estimate: float


def _run_plan(ctx: SimContext, plan: RampPlan, checkpoints: int = 0):
    """Evolve along `plan`, then walk the ground state over the checkpoint
    times (t = T alone without checkpoints), each solve warm-started from
    the one before. The walk gives the checkpoint rows (t, g, J, Delta,
    norm, overlap with the instantaneous ground state) and, at t = T, the
    fidelity target."""
    result = evolve(ctx.templates, plan, ctx.psi0, ctx.decay, ctx.cfg.tol,
                    ctx.cfg.steps, checkpoints)
    marks = np.linspace(0.0, 1.0, checkpoints) if checkpoints else [1.0]
    rows, ground = [], None
    for u, psi in zip(marks, result.states or [result.final_state]):
        p = plan.params_at_fraction(u)
        ground = ground_state(ctx.templates.assemble(p.g, p.J, p.delta), v0=ground).vector
        nrm = float(np.linalg.norm(psi))
        rows.append((u * plan.total_time, p.g, p.J, p.delta, nrm, fidelity(psi / nrm, ground)))
    raw = fidelity(result.final_state, ground)
    return rows[:checkpoints], RampResult(
        fidelity_raw=raw,
        fidelity_normalized=raw / nrm**2,
        norm_drift=result.norm_drift,
        step_count=result.step_count,
        error_estimate=result.error_estimate,
    )


def _grid_fidelity(ctx: SimContext, plan: RampPlan) -> float:
    """A grid point's fidelity, renormalized when the run is dissipative."""
    _, summary = _run_plan(ctx, plan)
    return summary.fidelity_raw if ctx.decay is None else summary.fidelity_normalized


def _grid(cfg: RunConfig, command: str, columns, points, value, threads: int,
          resume: bool, footer=lambda values: ()) -> list:
    """[value(*point) for point in points] by `map_points`, journaled under
    `command`. With `cfg.out` they are written there, one row per point (its
    columns, then its value) and `footer(values)`; only then is the journal removed."""
    journal = _journal(cfg, command)
    values = map_points(lambda k: value(*points[k]), len(points), threads, journal, resume)
    if cfg.out:
        write_csv(cfg.out, columns, [(*point, v) for point, v in zip(points, values)],
                  footer(values))
        os.unlink(journal.path)
    return values


def run_ramp(cfg: RunConfig) -> RampResult:
    """Init -> evolve -> ground-state walk over the checkpoints -> fidelity
    (`_run_plan`); with `cfg.out`, a CSV of one row per checkpoint and a
    summary footer."""
    _require_nonnegative_j((cfg.plan.J.start, cfg.plan.J.stop), "the ramp")
    ctx = prepare_context(cfg)
    rows, summary = _run_plan(ctx, cfg.plan, checkpoints=cfg.checkpoints)
    if cfg.out:
        write_csv(
            cfg.out,
            ("t", "g", "J", "Delta", "norm", "overlap_with_instantaneous_ground"),
            rows,
            footer_comments=[
                "summary F=%s F_normalized=%s norm_drift=%s step_count=%d "
                "error_estimate=%s"
                % (fmt(summary.fidelity_raw), fmt(summary.fidelity_normalized),
                   fmt(summary.norm_drift), summary.step_count,
                   fmt(summary.error_estimate))
            ],
        )
    return summary


@dataclass
class FidelityGrid:
    """Fidelity over a (axis1 x axis2) target-parameter grid."""

    axis_names: tuple
    axis1: tuple
    axis2: tuple
    fidelity: np.ndarray  # shape (len(axis1), len(axis2))
    provenance: np.ndarray | None = None

    def rows(self):
        for i, a in enumerate(self.axis1):
            for j, b in enumerate(self.axis2):
                row = [a, b, self.fidelity[i, j]]
                if self.provenance is not None:
                    row.append(int(self.provenance[i, j]))
                yield tuple(row)


def run_phase_diagram(cfg: RunConfig, threads: int = 1,
                      resume: bool = False) -> FidelityGrid:
    """One evolution per (J(T), Delta(T)) grid point; journaled and
    resumable (see `map_points`)."""
    if cfg.jt_grid is None or cfg.dt_grid is None:
        raise ConfigError("phase-diagram needs JT_* and dT_* grids")
    _require_nonnegative_j(
        (cfg.plan.J.start, cfg.jt_grid.lo, cfg.jt_grid.hi), "the JT grid ramp"
    )
    ctx = prepare_context(cfg)
    jts = cfg.jt_grid.values()
    dts = cfg.dt_grid.values()
    plan = cfg.plan

    def point(jt, dt):
        return _grid_fidelity(ctx, RampPlan(
            plan.g, RampSchedule(plan.J.start, jt, plan.J.index),
            RampSchedule(plan.delta.start, dt, plan.delta.index), plan.total_time))

    values = _grid(cfg, "phase-diagram", ("JT", "dT", "F"),
                   [(jt, dt) for jt in jts for dt in dts], point, threads, resume)
    return FidelityGrid(
        axis_names=("JT", "dT"),
        axis1=tuple(jts),
        axis2=tuple(dts),
        fidelity=np.array(values).reshape(len(jts), len(dts)),
    )


def write_grid_csv(path, grid: FidelityGrid):
    header = list(grid.axis_names) + ["F"]
    if grid.provenance is not None:
        header.append("source")
    write_csv(path, header, grid.rows())


def read_grid_csv(path) -> FidelityGrid:
    """The fidelity grid of a CSV that holds each (x, y) point once."""
    points = {}
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        for lineno, line in enumerate(fh, start=2):
            if line.strip() and not line.startswith("#"):
                try:
                    x, y, fidelity = map(float, line.split(",")[:3])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                if (x, y) in points:
                    raise ConfigError(f"{path}:{lineno}: repeated point ({x}, {y})")
                points[x, y] = fidelity
    if len(header) < 3:
        raise ConfigError(f"{path}: not a fidelity grid CSV")
    a1 = sorted({x for x, _ in points})
    a2 = sorted({y for _, y in points})
    f = np.full((len(a1), len(a2)), np.nan)
    for (x, y), fidelity in points.items():
        f[a1.index(x), a2.index(y)] = fidelity
    if np.isnan(f).any():
        raise ConfigError(f"{path}: grid is not complete/rectangular")
    return FidelityGrid((header[0], header[1]), tuple(a1), tuple(a2), f)


def combine_max_fidelity(grids) -> FidelityGrid:
    """Pointwise maximum over grids with identical axes, with provenance."""
    if not grids:
        raise ValueError("no grids to combine")
    first = grids[0]
    for g in grids[1:]:
        if g.axis_names != first.axis_names or g.axis1 != first.axis1 \
                or g.axis2 != first.axis2:
            raise ValueError("grid axes do not match")
    stack = np.stack([g.fidelity for g in grids])
    winner = np.argmax(stack, axis=0)
    best = np.max(stack, axis=0)
    return FidelityGrid(first.axis_names, first.axis1, first.axis2, best, winner)


@dataclass
class RjSweepResult:
    rj_values: tuple
    fidelities: tuple
    best_rj: float


def run_rj_sweep(cfg: RunConfig, threads: int = 1,
                 resume: bool = False) -> RjSweepResult:
    """Fidelity vs ramping index at fixed index ratios (trajectory fixed)."""
    if not cfg.rj_values:
        raise ConfigError("rj-sweep needs rJ_values")
    _require_nonnegative_j((cfg.plan.J.start, cfg.plan.J.stop), "the ramp")
    ctx = prepare_context(cfg)
    base = cfg.plan

    def point(rj):
        scale = rj / base.J.index
        return _grid_fidelity(ctx, RampPlan(
            RampSchedule(base.g.start, base.g.stop, base.g.index * scale),
            RampSchedule(base.J.start, base.J.stop, rj),
            RampSchedule(base.delta.start, base.delta.stop, base.delta.index * scale),
            base.total_time,
        ))

    def best(fids):
        return cfg.rj_values[int(np.argmax(fids))]

    fids = tuple(_grid(cfg, "rj-sweep", ("rJ", "F"), [(rj,) for rj in cfg.rj_values], point,
                       threads, resume, lambda values: [f"argmax rJ={fmt(best(values))}"]))
    return RjSweepResult(tuple(cfg.rj_values), fids, best(fids))


def run_rho1_map(cfg: RunConfig, threads: int = 1, resume: bool = False):
    """Ground-state rho1(i, j) over a (J, Delta) grid at fixed g = g0."""
    if cfg.j_grid is None or cfg.d_grid is None:
        raise ConfigError("rho1-map needs J_* and d_* grids")
    _require_nonnegative_j((cfg.j_grid.lo, cfg.j_grid.hi), "the J grid")
    for key in ("rho_i", "rho_j"):  # only this command reads them, and the
        site = getattr(cfg, key)  # default rho_j = 4 is no site below L = 4
        if not 1 <= site <= cfg.sites:
            raise ConfigError(f"{key} = {site} is not a site in 1..{cfg.sites}")
    orbits = DihedralOrbits(_run_table(cfg))
    block = Block(0, 1, cfg.sites)
    templates = orbits.templates(block)
    # a symmetric ground state reads a_i^dag a_j as its group average, and
    # <n_i> as <sum_j n_j> / L
    corr = orbits.correlator(block, cfg.rho_i, cfg.rho_j)
    params = [(jv, dv) for jv in cfg.j_grid.values() for dv in cfg.d_grid.values()]

    def point(jv, dv):
        vec = ground_state(templates.assemble(cfg.plan.g.start, jv, dv)).vector
        num = float(vec @ (corr @ vec))
        den = float(vec @ (templates.number_diag * vec)) / cfg.sites
        if den < 1e-12:
            raise ConfigError("rho1 divides by <n> = %s at rho_i = %d, too few "
                              "photons in the ground state at J = %s, Delta = %s"
                              % (fmt(den), cfg.rho_i, fmt(jv), fmt(dv)))
        return num / den

    values = _grid(cfg, "rho1-map", ("J", "Delta", "rho1"), params, point, threads, resume)
    return [(jv, dv, value) for (jv, dv), value in zip(params, values)]


def run_gap_scan(cfg: RunConfig) -> GapReport:
    """Coarse symmetric/any gap curve plus refined minimum (CSV footer row),
    written to `cfg.out` when it is set.

    The symmetric gap is that of the two lowest states of the sector ramps
    evolve in (k = 0, mirror-even; `gap_scan`). E_gap_any, the gap over all
    sectors, adds the lowest level of every other real dihedral block
    (`block_levels`): the symmetric E0 is the ground state for J >= 0."""
    _require_nonnegative_j((cfg.plan.J.start, cfg.plan.J.stop), "the gap scan")
    sector, *others = block_sectors(_run_table(cfg))
    report = gap_scan(sector, cfg.plan, resolution=cfg.resolution,
                      refine_tol=cfg.refine_tol)
    lowest = block_levels(others, [p for _, p, _, _ in report.curve], 1)
    # a level of another block degenerate with E0 can round below it
    rows = [(s, p.g, p.J, p.delta, e1 - e0,
             max(min([e1, *(e for e, _ in low)]) - e0, 0.0))
            for (s, p, e0, e1), low in zip(report.curve, lowest)]
    rows.append((report.s, report.params.g, report.params.J,
                 report.params.delta, report.gap, ""))
    if cfg.out:
        write_csv(
            cfg.out,
            ("s", "g", "J", "Delta", "E_gap_symmetric", "E_gap_any"),
            rows,
            footer_comments=[
                "refined minimum s=%s J=%s E_gap=%s"
                % (fmt(report.s), fmt(report.params.J), fmt(report.gap)),
            ],
        )
    return report


def run_spectrum(cfg: RunConfig):
    """Lowest levels along the plan trajectory, merged from every real
    dihedral block and labelled by it: momentum index q and mirror parity,
    +-1 at q = 0 and q = L/2 and 0 for a two-dimensional irrep, whose
    levels are listed twice."""
    blocks = block_sectors(_run_table(cfg))
    svals = np.linspace(0.0, 1.0, cfg.resolution)
    points = [trajectory_point(cfg.plan, float(s)) for s in svals]
    rows = []
    for s, p, levels in zip(svals, points, block_levels(blocks, points, cfg.count)):
        for level, (energy, block) in enumerate(levels):
            parity = block.parity if block.multiplicity == 1 else 0
            rows.append((float(s), p.g, p.J, p.delta, level,
                         energy - levels[0][0], block.q, parity))
    if cfg.out:
        write_csv(
            cfg.out,
            ("s", "g", "J", "Delta", "level", "energy_above_ground", "q",
             "parity"),
            rows,
        )
    return rows


def run_basis(cfg: RunConfig):
    table = enumerate_basis(LatticeShape(cfg.sites, cfg.excitations))
    if cfg.out:
        write_basis_text(table, cfg.out)
    return table


def run_init_pulse(cfg: RunConfig):
    """Pulse simulation; CSV rows `l, type, duration, cumulative_fidelity`."""
    if cfg.pulse == "mi":
        res = states.simulate_mi_pulse(cfg.plan.delta.start, cfg.plan.g.start,
                                       cfg.eps)
        rows = [(1, "MI", res.duration, res.fidelity)]
        footer = [f"fidelity={fmt(res.fidelity)} tau_d1={fmt(res.duration)}"]
    else:
        n = cfg.pulse_n or cfg.excitations
        res = states.simulate_sf_pulse(n, cfg.eps, cfg.g_d)
        rows = [(seg.step, seg.kind, seg.duration, seg.cumulative_fidelity)
                for seg in res.segments]
        footer = [
            "fidelity=%s tau_d2=%s" % (fmt(res.fidelity), fmt(res.duration))
        ]
    if cfg.out:
        write_csv(cfg.out, ("l", "type", "duration", "cumulative_fidelity"),
                  rows, footer_comments=footer)
    return res
