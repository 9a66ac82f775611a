import io
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from jclattice import config, sweeps
from jclattice.basis import LatticeShape
from jclattice.cli import main
from jclattice.config import (
    ConfigError, GridSpec, RunConfig, build_config, load_config,
    parse_config_text, write_csv,
)
from jclattice.ramp import RampPlan, RampSchedule
from jclattice.spectrum import ground_state
from jclattice.sweeps import (
    FidelityGrid,
    combine_max_fidelity,
    prepare_context,
    read_grid_csv,
    run_gap_scan,
    run_phase_diagram,
    run_ramp,
    run_rho1_map,
    run_rj_sweep,
    write_grid_csv,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
T22 = 2 * math.pi


def small_cfg(**overrides) -> RunConfig:
    cfg = RunConfig()
    cfg.sites = cfg.excitations = 2
    cfg.plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.4),
                        RampSchedule(0.0, 0.0), T22)
    cfg.steps = 800
    cfg.tol = 1e-4
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_config_parsing_round_trip(tmp_path):
    text = """
# comment
L = 2
N = 2
T = 2pi            # inline comment
JT = 0.4
rJ_values = 0.5, 1, 2
kappa = 1e-3
"""
    raw = parse_config_text(text, "inline")
    cfg = build_config(raw)
    assert cfg.sites == 2
    assert cfg.plan.total_time == pytest.approx(2 * math.pi)
    assert cfg.rj_values == (0.5, 1.0, 2.0)
    assert cfg.kappa == 1e-3


@pytest.mark.parametrize("text,value", [
    ("pi", math.pi), ("-pi", -math.pi), ("+pi", math.pi), ("- pi", -math.pi),
    ("-1pi", -math.pi), ("-0.5pi", -0.5 * math.pi), ("2PI", 2 * math.pi),
])
def test_numbers_may_end_in_pi(text, value):
    # a bare sign before pi reads as +-1, as an empty factor reads as 1
    cfg = build_config(parse_config_text(f"d0 = {text}\n"))
    assert cfg.plan.delta.start == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("text", ["--pi", "1e-pi", "pi pi", "pi2"])
def test_malformed_pi_numbers_are_refused(text):
    with pytest.raises(ConfigError, match="expected a number"):
        build_config(parse_config_text(f"d0 = {text}\n"))


@pytest.mark.parametrize("path", sorted(
    [*CONFIGS.glob("*.cfg"), *(ROOT / "perfbench" / "configs").glob("*.cfg")]),
    ids=lambda path: str(path.relative_to(ROOT)))
def test_every_shipped_config_loads(path):
    # a key that the parser no longer knows would otherwise show only when
    # someone runs the file
    assert isinstance(load_config(path), RunConfig)


GRID_LINES = {f"{p}_{end}": value for p in ("JT", "dT", "J", "d")
              for end, value in (("min", "0"), ("max", "0"), ("points", "1"))}
# a valid value other than the default for every key the parser accepts
KEY_VALUES = {
    "L": "2", "N": "2", "init": "sf", "init_file": "psi.npy",
    "g0": "0.5", "gT": "0.5", "rg": "2", "J0": "0.1", "JT": "0.2", "rJ": "2",
    "d0": "0.1", "dT": "0.1", "rd": "2", "T": "2pi",
    "kappa": "1e-3", "gamma": "1e-5", "convention": "number-conserving",
    "tol": "1e-6", "steps": "64", "checkpoints": "2", "out": "o.csv",
    "resolution": "16", "refine_tol": "1e-3", "count": "3",
    **{key: "2" if key.endswith("points") else "0.1" for key in GRID_LINES},
    "rJ_values": "1, 2", "rho_i": "2", "rho_j": "3",
    "pulse": "mi", "eps": "0.05", "g_d": "0.05", "pulse_N": "3",
    "g_hz": "100e6", "kappa_hz": "200e3", "gamma_hz": "2e3", "T_seconds": "1e-9",
}


@pytest.mark.parametrize("key", sorted(config._KEYS))
def test_every_key_reaches_the_config(key):
    # a key that parses and is then dropped would leave the config as it is
    # without the key; each key here is set beside the lines it needs
    if key in GRID_LINES:
        grid = key.split("_")[0]
        needs = {k: v for k, v in GRID_LINES.items() if k.split("_")[0] == grid}
    elif key == "g_hz":
        needs = {"g_hz": "200e6", "kappa_hz": "200e3"}
    elif key in ("kappa_hz", "gamma_hz", "T_seconds"):
        needs = {"g_hz": "200e6"}
    else:
        needs = {}

    def build(lines):
        return build_config(parse_config_text(
            "".join(f"{k} = {v}\n" for k, v in lines.items())))

    cfg = build({**needs, key: KEY_VALUES[key]})
    assert cfg != RunConfig()
    assert cfg != build(needs)


def test_rates_decide_dissipation():
    # positive rates alone make the run dissipative; dropping them would
    # give the Hermitian F = 0.7733498...
    text = "L = 3\nN = 3\nJT = 0.3\nT = 2pi\nkappa = 0.5\ngamma = 0.1\n"
    cfg = build_config(parse_config_text(text))
    summary = run_ramp(cfg)
    assert summary.fidelity_raw == pytest.approx(0.0038643298987304044, rel=1e-7)
    assert summary.fidelity_normalized == pytest.approx(0.66822568794512893,
                                                        rel=1e-7)
    # a grid point with rates reports the renormalized fidelity
    cfg.jt_grid, cfg.dt_grid = GridSpec(0.3, 0.3, 1), GridSpec(0.0, 0.0, 1)
    grid = run_phase_diagram(cfg)
    assert grid.fidelity[0, 0] == summary.fidelity_normalized


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":3"):
        parse_config_text("L = 2\nN = 2\nbogus = 1\n", "f")
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text("L = 2\nno equals sign here\n", "f")
    with pytest.raises(ConfigError):
        build_config(parse_config_text("init = weird\n", "f"))


def test_physical_unit_conversion():
    raw = parse_config_text(
        "g_hz = 200e6\nkappa_hz = 200e3\ngamma_hz = 2e3\nT_seconds = 37.5e-9\n",
        "f",
    )
    cfg = build_config(raw)
    assert cfg.kappa == pytest.approx(1e-3)
    assert cfg.gamma == pytest.approx(1e-5)
    # 2 pi * 200 MHz * 37.5 ns = 15 pi
    assert cfg.plan.total_time == pytest.approx(15 * math.pi)
    shipped = load_config(CONFIGS / "ramp_mi_sf_dissipative.cfg")
    assert (shipped.kappa, shipped.gamma) == pytest.approx((1e-3, 1e-5))


@pytest.mark.parametrize("text,physical,other", [
    ("kappa_hz = 200e3\n", "kappa_hz", "g_hz"),
    ("gamma_hz = 2e3\n", "gamma_hz", "g_hz"),
    ("T_seconds = 37.5e-9\n", "T_seconds", "g_hz"),
    ("g_hz = 0\nkappa_hz = 200e3\n", "kappa_hz", "g_hz"),
    ("g_hz = 200e6\nkappa_hz = 200e3\nkappa = 1e-3\n", "kappa_hz", "kappa"),
    ("g_hz = 200e6\ngamma_hz = 2e3\ngamma = 1e-5\n", "gamma_hz", "gamma"),
    ("g_hz = 200e6\nT_seconds = 37.5e-9\nT = 15pi\n", "T_seconds", "T"),
])
def test_physical_unit_keys_need_g_hz_and_no_twin(tmp_path, capsys, text,
                                                   physical, other):
    # a physical-unit key without g_hz, or beside its dimensionless twin,
    # was dropped or overridden without a word
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 2\nJT = 0.2\n" + text)
    assert main(["ramp", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    for key in (physical, other):
        assert re.search(rf"\b{key}\b", err), key


def test_run_ramp_stationary_target(tmp_path):
    cfg = small_cfg()
    cfg.plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.4, 0.4),
                        RampSchedule(0.0, 0.0), T22)
    cfg.init = "file"
    sector = prepare_context(small_cfg()).templates  # for the state file
    gs = ground_state(sector.assemble_copy(1.0, 0.4, 0.0))
    state_path = tmp_path / "init.npy"
    fidelities = []
    # amplitudes whose plain norm would overflow or underflow
    for scale in (1.0, 1e200, 1e-200):
        np.save(state_path, scale * (sector.isometry @ gs.vector).astype(complex))
        cfg.init_file = str(state_path)
        fidelities.append(run_ramp(cfg).fidelity_raw)
    assert fidelities[0] > 1 - 1e-8
    assert np.abs(np.array(fidelities[1:]) - fidelities[0]).max() <= 1e-14


def test_nan_sector_weight_is_refused(monkeypatch):
    # NaN compares false both ways: the weight check must not let it through
    monkeypatch.setattr(sweeps, "initial_state",
                        lambda cfg, table: np.full(table.dim, np.nan))
    with pytest.raises(ConfigError, match="symmetric-sector weight nan"):
        prepare_context(small_cfg())


def test_run_ramp_no_ramp_is_stationary():
    # Mott start with J(T) = J(0) = 0: the initial state is the exact ground
    cfg = small_cfg()
    cfg.plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.0),
                        RampSchedule(0.0, 0.0), T22)
    cfg.tol = 1e-8
    summary = run_ramp(cfg)
    assert summary.fidelity_raw > 1 - 1e-8


def test_run_ramp_csv_schema(tmp_path):
    cfg = small_cfg(checkpoints=3, out=str(tmp_path / "ramp.csv"))
    summary = run_ramp(cfg)
    lines = (tmp_path / "ramp.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "g", "J", "Delta", "norm",
                      "overlap_with_instantaneous_ground"]
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert lines[-1].startswith("# summary F=")
    assert 0.0 <= summary.fidelity_raw <= 1 + 1e-9


@pytest.mark.parametrize("checkpoints", [0, 2, 5])
def test_one_ground_state_solve_per_checkpoint(monkeypatch, checkpoints):
    # the walk over the checkpoints ends at t = T, whose ground state is
    # also the fidelity target; without checkpoints that target is the walk.
    # Every binding of ground_state in the package is counted.
    solves = []

    def counting(h, v0=None):
        solves.append(v0 is None)
        return ground_state(h, v0)

    for name, module in list(sys.modules.items()):
        if name.startswith("jclattice") and getattr(module, "ground_state", None) is ground_state:
            monkeypatch.setattr(module, "ground_state", counting)
    run_ramp(small_cfg(checkpoints=checkpoints))
    # cold at the first point, then warm-started from the one before
    assert solves == [True] + [False] * (max(checkpoints, 1) - 1)


def test_phase_diagram_grid_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = small_cfg(jt_grid=GridSpec(0.0, 0.4, 2), dt_grid=GridSpec(-0.2, 0.2, 2))
    cfg.out = str(out1)
    grid1 = run_phase_diagram(cfg)
    cfg.out = str(out2)
    grid2 = run_phase_diagram(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    assert np.array_equal(grid1.fidelity, grid2.fidelity)
    assert grid1.fidelity.shape == (2, 2)
    assert (grid1.fidelity <= 1 + 1e-9).all()


GRIDS = {  # steps = 64: the ramps' accuracy does not matter here
    "phase-diagram": (run_phase_diagram, dict(jt_grid=GridSpec(0.0, 0.4, 3),
                                              dt_grid=GridSpec(0.0, 0.2, 2), steps=64)),
    "rj-sweep": (run_rj_sweep, dict(rj_values=(0.5, 1.0, 2.0, 3.0), steps=64)),
    "rho1-map": (run_rho1_map, dict(j_grid=GridSpec(0.0, 0.4, 3),
                                    d_grid=GridSpec(-0.5, 0.5, 2), rho_j=2)),
}


class Interrupted(Exception):
    pass


def solves_until(limit, solves):
    """ground_state that records each solve and raises once `limit` (None:
    no limit) are done. Every grid point makes exactly one such solve."""
    def solve(h, **kwargs):
        if len(solves) == limit:
            raise Interrupted
        solves.append(h)
        return ground_state(h, **kwargs)
    return solve


@pytest.mark.parametrize("command", GRIDS)
def test_grid_resume_byte_identical(tmp_path, monkeypatch, command):
    run, grid = GRIDS[command]
    full = tmp_path / "full.csv"
    points = []
    monkeypatch.setattr(sweeps, "ground_state", solves_until(None, points))
    run(small_cfg(out=str(full), **grid))

    # an interrupted run journals the two points it finished, each on disk
    # (header + points lines) before the next point's solve
    out = tmp_path / "res.csv"
    cfg = small_cfg(out=str(out), **grid)
    journal = tmp_path / "res.csv.progress"
    interrupted, on_disk = solves_until(2, []), []

    def solve(h, **kwargs):
        on_disk.append(len(journal.read_text().splitlines()))
        return interrupted(h, **kwargs)

    monkeypatch.setattr(sweeps, "ground_state", solve)
    with pytest.raises(Interrupted):
        run(cfg)
    assert on_disk == [1, 2, 3]
    assert len(journal.read_text().splitlines()) == 1 + 2
    assert not out.exists()

    solves = []
    monkeypatch.setattr(sweeps, "ground_state", solves_until(None, solves))
    run(cfg, resume=True)
    assert len(solves) == len(points) - 2
    assert out.read_bytes() == full.read_bytes()
    assert not journal.exists()


@pytest.mark.parametrize("command", GRIDS)
def test_grid_threads_match_serial(tmp_path, command):
    run, grid = GRIDS[command]
    run(small_cfg(out=str(tmp_path / "s.csv"), **grid))
    run(small_cfg(out=str(tmp_path / "p.csv"), **grid), threads=2)
    # 17 significant digits: equal bytes are equal values
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
    assert not (tmp_path / "p.csv.progress").exists()


def test_pool_warns_when_blas_threads_are_at_their_default(monkeypatch, capsys):
    for name in sweeps.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert sweeps.map_points(abs, 3) == [0, 1, 2]
    assert capsys.readouterr().err == ""
    assert sweeps.map_points(abs, 3, threads=2) == [0, 1, 2]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "oversubscribe" in err and "125 s" in err
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert sweeps.map_points(abs, 3, threads=2) == [0, 1, 2]
    assert capsys.readouterr().err == ""


def test_resume_refuses_another_runs_journal(tmp_path, monkeypatch, capsys):
    grid = ("L = 3\nN = 3\nT = 2pi\nsteps = 64\ntol = 1e-4\n"
            "JT_min = 0\nJT_max = 0.4\nJT_points = 2\n"
            "dT_min = 0\ndT_max = 0\ndT_points = 1\n")
    cfg = tmp_path / "a.cfg"
    cfg.write_text(grid)
    out = tmp_path / "g.csv"
    journal = tmp_path / "g.csv.progress"
    argv = ["phase-diagram", "--config", str(cfg), "--out", str(out), "--resume"]

    # a journal without a header: once taken for F = 0.5 and 0.25
    journal.write_text("0,0.5\n1,0.25\n")
    assert main(argv) == 2
    assert str(journal) in capsys.readouterr().err
    assert not out.exists()

    # a journal that another config (rJ = 2) left
    other = tmp_path / "b.cfg"
    other.write_text(grid + "rJ = 2\n")
    monkeypatch.setattr(sweeps, "ground_state", solves_until(1, []))
    with pytest.raises(Interrupted):
        main(["phase-diagram", "--config", str(other), "--out", str(out)])
    monkeypatch.undo()
    assert main(argv) == 2
    assert "another command or config" in capsys.readouterr().err
    assert not out.exists()

    assert main(argv[:-1]) == 0  # without --resume the journal starts afresh
    assert not journal.exists()


def test_write_csv_is_atomic(tmp_path):
    def rows():
        yield (1.0, 2.0)
        raise Interrupted

    new = tmp_path / "new.csv"
    with pytest.raises(Interrupted):
        write_csv(new, ("a", "b"), rows())
    old = tmp_path / "old.csv"
    write_csv(old, ("a", "b"), [(0.5, 0.25)])
    before = old.read_bytes()
    with pytest.raises(Interrupted):
        write_csv(old, ("a", "b"), rows())
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]


@pytest.mark.parametrize("command,text,key", [
    ("gap-scan", "resolution = 8\n", "resolution"),
    ("rho1-map", "J_min = 0\nJ_max = 0.2\nJ_points = 2\n"
                 "d_min = 0\nd_max = 0\nd_points = 1\nrho_j = 5\n", "rho_j"),
    ("ramp", "kappa = 1e-3\nconvention = bogus\n", "convention"),
    ("spectrum", "count = 1\n", "count"),
    ("ramp", "kappa = -1e-3\n", "kappa"),
    ("ramp", "gamma = -1e-5\n", "gamma"),
    ("ramp", "tol = -1\n", "tol"),
    ("ramp", "L = 0\n", "L"),
    ("ramp", "N = -1\n", "N"),
    ("rj-sweep", "rJ_values = 1, 0\n", "rJ_values"),
    ("ramp", "checkpoints = -2\n", "checkpoints"),
    ("ramp", "checkpoints = 1\n", "checkpoints"),  # it recorded only t = 0
    ("ramp", "dissipation = on\n", "unknown key 'dissipation'"),  # rates decide
    ("ramp", "steps = -5\n", "steps"),
    ("ramp", "steps = 0\n", "steps"),
    ("gap-scan", "refine_tol = 0\n", "refine_tol"),
    ("gap-scan", "refine_tol = -1\n", "refine_tol"),
    ("init-pulse", "pulse_N = 0\n", "pulse_N"),
    ("init-pulse", "pulse_N = -1\n", "pulse_N"),
    ("init-pulse", "eps = 0\n", "eps"),
    ("init-pulse", "g_d = 0\n", "g_d"),
    ("ramp", "JT = nan\n", "finite"),
    ("init-pulse", "eps = inf\n", "finite"),
    ("phase-diagram", "JT_min = 0\nJT_max = inf\nJT_points = 2\n"
                      "dT_min = 0\ndT_max = 0\ndT_points = 1\n", "finite"),
    # ramp and grid bounds, refused with the key and its line
    ("ramp", "rJ = 0\n", "run.cfg:7: rJ = 0.0"),
    ("ramp", "rg = -1\n", "run.cfg:7: rg = -1.0"),
    ("ramp", "rd = 0\n", "run.cfg:7: rd = 0.0"),
    ("ramp", "T = 0\n", "run.cfg:3: T = 0.0"),
    ("phase-diagram", "JT_min = 0\nJT_max = 0.2\nJT_points = 0\n"
                      "dT_min = 0\ndT_max = 0\ndT_points = 1\n",
     "run.cfg:9: JT_points = 0"),
])
def test_config_errors_exit_2(tmp_path, capsys, command, text, key):
    lines = {"L": "3", "N": "3", "T": "2pi", "JT": "0.2", "steps": "64", "tol": "1e-4"}
    lines.update(line.split(" = ") for line in text.splitlines())  # overrides
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


GRID_KEYS = ("rJ_values = 1\nJT_min = 0\nJT_max = 0.4\nJT_points = 1\n"
             "dT_min = 0\ndT_max = 0\ndT_points = 1\nJ_min = 0\nJ_max = 0.2\n"
             "J_points = 1\nd_min = 0\nd_max = 0\nd_points = 1\nrho_j = 2\n")


@pytest.mark.parametrize("command,flag", [
    ("ramp", "--threads=2"), ("gap-scan", "--resume"), ("init-pulse", "--threads=2"),
    # a grid needs at least one worker
    ("rj-sweep", "--threads=0"), ("phase-diagram", "--threads=-3"),
    ("rho1-map", "--threads=0"),
])
def test_threads_and_resume_only_on_grid_commands(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cli_config(tmp_path, GRID_KEYS)),
              "--out", str(tmp_path / "o.csv"), flag])
    assert exc.value.code == 2
    assert flag.split("=")[0] in capsys.readouterr().err


def test_rj_sweep_single_point_matches_ramp():
    cfg = small_cfg(rj_values=(1.0,))
    sweep = run_rj_sweep(cfg)
    direct = run_ramp(small_cfg())
    assert sweep.fidelities[0] == pytest.approx(direct.fidelity_raw, abs=1e-12)
    assert sweep.best_rj == 1.0


def test_combine_max_identity_and_monotonicity():
    rng = np.random.default_rng(5)
    axes = dict(axis_names=("JT", "dT"), axis1=(0.0, 0.5), axis2=(-0.5, 0.5))
    grids = [FidelityGrid(fidelity=rng.uniform(size=(2, 2)), **axes)
             for _ in range(3)]
    single = combine_max_fidelity(grids[:1])
    assert np.array_equal(single.fidelity, grids[0].fidelity)
    two = combine_max_fidelity(grids[:2])
    all3 = combine_max_fidelity(grids)
    assert (two.fidelity <= all3.fidelity + 1e-15).all()
    assert all3.provenance.shape == (2, 2)


def test_combine_max_axis_mismatch():
    a = FidelityGrid(("JT", "dT"), (0.0,), (0.0,), np.ones((1, 1)))
    b = FidelityGrid(("JT", "dT"), (0.1,), (0.0,), np.ones((1, 1)))
    with pytest.raises(ValueError):
        combine_max_fidelity([a, b])


def test_grid_csv_round_trip(tmp_path):
    grid = FidelityGrid(("JT", "dT"), (0.0, 0.25), (-0.5, 0.5),
                        np.array([[0.1, 0.9], [0.4, 1.0]]))
    path = tmp_path / "g.csv"
    write_grid_csv(path, grid)
    back = read_grid_csv(path)
    assert back.axis1 == grid.axis1
    assert np.allclose(back.fidelity, grid.fidelity)


def test_rho1_map_small(tmp_path):
    cfg = small_cfg(j_grid=GridSpec(0.0, 0.4, 3), d_grid=GridSpec(-0.5, 0.5, 2),
                    rho_i=1, rho_j=2, out=str(tmp_path / "rho.csv"))
    rows = run_rho1_map(cfg)
    assert len(rows) == 6
    by_j = {}
    for j_val, d_val, r in rows:
        assert abs(r) < 1.001
        by_j.setdefault(d_val, []).append(r)
        if j_val == 0.0:
            assert abs(r) < 1e-10
    for d_val, series in by_j.items():
        assert all(np.diff(series) > -1e-12)  # nondecreasing in J


def test_rho1_diagonal_normalization():
    cfg = small_cfg(j_grid=GridSpec(0.3, 0.3, 1), d_grid=GridSpec(0.0, 0.0, 1),
                    rho_i=1, rho_j=1)
    rows = run_rho1_map(cfg)
    assert rows[0][2] == pytest.approx(1.0, abs=1e-12)


def cli_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        "L = 2\nN = 2\nT = 2pi\nJT = 0.4\nsteps = 600\ntol = 1e-3\n" + extra
    )
    return path


def test_cli_ramp_and_exit_codes(tmp_path, capsys):
    cfg = cli_config(tmp_path)
    assert main(["ramp", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "F=" in out

    missing = main(["ramp", "--config", str(tmp_path / "nope.cfg")])
    assert missing == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("L = 2\nwhat = ever\n")
    assert main(["ramp", "--config", str(bad)]) == 2


def test_oversized_run_is_refused_before_enumerating(tmp_path, monkeypatch, capsys):
    # each orbit, of at most 2L keys, gives the (0, +) block one column: at
    # L = N = 10 that block has at least 239,001 states, above the cap
    def enumerated(shape):
        raise AssertionError(f"enumerated {shape}")

    monkeypatch.setattr(sweeps, "enumerate_basis", enumerated)
    monkeypatch.chdir(tmp_path)
    text = (CONFIGS / "ramp_mi_sf.cfg").read_text()
    (tmp_path / "l10.cfg").write_text(
        text.replace("L = 6\n", "L = 10\n").replace("N = 6\n", "N = 10\n"))
    assert main(["ramp", "--config", "l10.cfg"]) == 2
    assert "the (0, +) block has at least 239001 states" in capsys.readouterr().err
    # at L = N = 9 the bound, 48,009 states, is under it
    monkeypatch.setattr(sweeps, "enumerate_basis", lambda shape: shape)
    cfg = small_cfg(sites=9, excitations=9)
    assert sweeps._run_table(cfg) == LatticeShape(9, 9)


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # g = J = 0 collapses the sector spectrum to a single degenerate level
    cfg = tmp_path / "degen.cfg"
    cfg.write_text("L = 2\nN = 1\ng0 = 0\ngT = 0\nJ0 = 0\nJT = 0\nT = 1\n"
                   "resolution = 16\nout = gap.csv\n")
    code = main(["gap-scan", "--config", str(cfg)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def saved(save, array) -> bytes:
    """What `save` (np.save or np.savez) writes for `array`."""
    buffer = io.BytesIO()
    save(buffer, array)
    return buffer.getvalue()


NOT_NPY = "is not a .npy array of 8 amplitudes"
# rho1 divides by <n> at rho_i: 0 in the vacuum and, at g = 0 and Delta = 1,
# in the all-qubits-up ground state
RHO1_GRID = ("J_min = 0\nJ_max = 0.2\nJ_points = 2\nd_min = 1\nd_max = 1\n"
             "d_points = 1\nrho_i = 2\nrho_j = 3\nout = rho.csv\n")
NO_PHOTONS = "at rho_i = 2, too few photons in the ground state at J = 0, Delta = 1"


@pytest.mark.parametrize("files,argv,message", [
    ({"run.cfg": "L = 2\nN = 3\n"}, ["ramp", "--config", "run.cfg"], "N = L"),
    ({"run.cfg": "L = 2\nN = 2\ng0 = 0\ngT = 0\n"}, ["ramp", "--config", "run.cfg"],
     "g > 0"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = psi.txt\n",
      "psi.txt": "1 0 0 0\n"}, ["ramp", "--config", "run.cfg"], "pickled"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = psi.npz\n",
      "psi.npz": saved(np.savez, np.ones(8))}, ["ramp", "--config", "run.cfg"],
     f"init_file psi.npz {NOT_NPY}"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = obj.npy\n",
      "obj.npy": saved(np.save, np.array([1.0, None] * 4, dtype=object))},
     ["ramp", "--config", "run.cfg"], f"init_file obj.npy {NOT_NPY}"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = str.npy\n",
      "str.npy": saved(np.save, np.array(["one"] * 8))},
     ["ramp", "--config", "run.cfg"], f"init_file str.npy {NOT_NPY}"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = empty.npy\n",
      "empty.npy": b""}, ["ramp", "--config", "run.cfg"],
     f"init_file empty.npy {NOT_NPY}"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = inf.npy\n",
      "inf.npy": saved(np.save, np.array([1, 0, 0, np.inf, 0, 0, 1, 0]))},
     ["ramp", "--config", "run.cfg"],
     "init_file inf.npy has a non-finite amplitude at index 3"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = nan.npy\n",
      "nan.npy": saved(np.save, np.array([1, 0, 0, 0, 0, np.nan, 1, 0]))},
     ["ramp", "--config", "run.cfg"],
     "init_file nan.npy has a non-finite amplitude at index 5"),
    ({"run.cfg": "L = 2\nN = 2\ninit = file\ninit_file = zero.npy\n",
      "zero.npy": saved(np.save, np.zeros(8))},
     ["ramp", "--config", "run.cfg"], "init_file state has zero norm"),
    ({"run.cfg": "L = 3\nN = 0\n" + RHO1_GRID}, ["rho1-map", "--config", "run.cfg"],
     NO_PHOTONS),
    ({"run.cfg": "L = 3\nN = 3\ng0 = 0\n" + RHO1_GRID},
     ["rho1-map", "--config", "run.cfg"], NO_PHOTONS),
    ({"run.cfg": "L = 6\nN = 6\ng0 = 0\n" + RHO1_GRID},
     ["rho1-map", "--config", "run.cfg"], NO_PHOTONS),
    ({"a.csv": "JT,dT,F\n0,0,1\n", "b.csv": "JT,dT,F\n0.1,0,1\n"},
     ["combine-max", "a.csv", "b.csv", "--out", "c.csv"], "axes do not match"),
    ({"a.csv": "JT,dT,F\n0,0,1\n0,0.5,zero\n"},
     ["combine-max", "a.csv", "--out", "c.csv"], "a.csv:3: could not convert"),
    ({"a.csv": "JT,dT,F\n0,0,0.5\n0,1,0.6\n1,0,0.7\n1,1,0.8\n1,1,0.99\n"},
     ["combine-max", "a.csv", "--out", "c.csv"], "a.csv:6: repeated point (1.0, 1.0)"),
], ids=["mi-needs-N-equal-L", "mi-needs-g", "init-file-not-npy",
        "init-file-npz-archive", "init-file-object-array", "init-file-string-array",
        "init-file-empty", "init-file-inf", "init-file-nan", "init-file-zero",
        "rho1-vacuum", "rho1-photon-free-dense",
        "rho1-photon-free-arpack", "combine-axes-differ", "combine-cell-not-a-number",
        "combine-repeated-point"])
def test_cli_input_errors_exit_2(tmp_path, monkeypatch, capsys, files, argv,
                                 message):
    # a ValueError from outside input is not a solver failure (exit 3)
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_cli_basis_and_spectrum_and_gap(tmp_path, capsys):
    cfg = cli_config(tmp_path, "resolution = 16\ncount = 3\n")
    assert main(["basis", "--config", str(cfg), "--out",
                 str(tmp_path / "basis.txt")]) == 0
    text = (tmp_path / "basis.txt").read_text()
    assert text.startswith("# L=2 N=2 dim=8\n")

    assert main(["spectrum", "--config", str(cfg), "--out",
                 str(tmp_path / "spec.csv")]) == 0
    header = (tmp_path / "spec.csv").read_text().splitlines()[0]
    assert header == "s,g,J,Delta,level,energy_above_ground,q,parity"

    assert main(["gap-scan", "--config", str(cfg), "--out",
                 str(tmp_path / "gap.csv")]) == 0
    lines = (tmp_path / "gap.csv").read_text().splitlines()
    assert lines[0] == "s,g,J,Delta,E_gap_symmetric,E_gap_any"
    assert lines[-1].startswith("# refined minimum")


def test_gap_scan_without_an_output_returns_its_report():
    report = run_gap_scan(small_cfg(resolution=16))
    assert report.gap > 0 and len(report.curve) == 16


def test_gap_over_all_sectors_is_never_negative(tmp_path):
    # at J = 0 the lowest level of L = 4, N = 5 (the extra excitation on
    # any one site) lies in several blocks, and another block's copy of it
    # rounds 8.9e-16 below the symmetric E0
    cfg = small_cfg(resolution=16, out=str(tmp_path / "gap.csv"))
    cfg.sites, cfg.excitations = 4, 5
    run_gap_scan(cfg)
    rows = np.loadtxt(cfg.out, delimiter=",", skiprows=1, max_rows=16)
    assert rows[0, 2] == 0 and 0 <= rows[0, 5] <= 1e-12
    assert (rows[:, 5] >= 0).all() and (rows[:, 5] <= rows[:, 4]).all()


def test_cli_phase_diagram_and_combine(tmp_path):
    cfg1 = cli_config(
        tmp_path,
        "JT_min = 0\nJT_max = 0.4\nJT_points = 2\n"
        "dT_min = 0\ndT_max = 0.2\ndT_points = 2\nout = g1.csv\n",
    )
    assert main(["phase-diagram", "--config", str(cfg1), "--out",
                 str(tmp_path / "g1.csv")]) == 0
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(cfg1.read_text().replace("JT = 0.4", "JT = 0.4\nrJ = 2"))
    assert main(["phase-diagram", "--config", str(cfg2), "--out",
                 str(tmp_path / "g2.csv")]) == 0
    assert main(["combine-max", str(tmp_path / "g1.csv"), str(tmp_path / "g2.csv"),
                 "--out", str(tmp_path / "max.csv")]) == 0
    combined = read_grid_csv(tmp_path / "max.csv")
    g1 = read_grid_csv(tmp_path / "g1.csv")
    assert (combined.fidelity >= g1.fidelity - 1e-15).all()


def test_cli_init_pulse(tmp_path):
    cfg = cli_config(tmp_path, "pulse = sf\neps = 0.05\ng_d = 0.05\npulse_N = 3\n")
    assert main(["init-pulse", "--config", str(cfg), "--out",
                 str(tmp_path / "pulse.csv")]) == 0
    lines = (tmp_path / "pulse.csv").read_text().splitlines()
    assert lines[0] == "l,type,duration,cumulative_fidelity"
    assert len([l for l in lines if not l.startswith("#")]) == 7  # header + 6 segments
