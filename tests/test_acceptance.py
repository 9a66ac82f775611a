"""Acceptance suite: one test per numbered criterion, printed pass/fail.

Heavy six-site evolutions are shared through a module-level cache. The
ramps of criteria 6 and 7 and their targets run on the fully symmetric
sector (k = 0 and mirror-even, 500 of the 5336 states; tests/test_sector.py
checks that sector and full-space ramps agree to 1e-8); criterion 11
keeps a full-space ramp, so its leakage check has something to measure.
The desk-scale figure grids run at documented coarser integrator settings
(steps=64, tol=1e-4: state error below 1e-4) because their thresholds
have ~0.1 margins. Everything else uses solver defaults.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from jclattice.basis import LatticeShape, enumerate_basis
from jclattice.config import GridSpec, RunConfig
from jclattice.operators import HamiltonianTemplates, symmetric_isometry, symmetric_sector
from jclattice.propagate import evolve, evolve_dissipative, fidelity
from jclattice.ramp import RampPlan, RampSchedule, optimal_index, trajectory_point
from jclattice.spectrum import gap_scan, ground_state
from jclattice.states import mi_ground_state, sf_ground_state, simulate_sf_pulse
from jclattice.sweeps import combine_max_fidelity, run_phase_diagram

from conftest import dimension_oracle, sweep_rate_at_gap, velocity_at_value

T15 = 15 * math.pi
_CACHE = {}


def check(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def table66():
    if "table" not in _CACHE:
        _CACHE["table"] = enumerate_basis(LatticeShape(6, 6))
    return _CACHE["table"]


def templates66():
    if "templates" not in _CACHE:
        _CACHE["templates"] = HamiltonianTemplates(table66())
    return _CACHE["templates"]


def sector66():
    if "sector" not in _CACHE:
        _CACHE["sector"] = symmetric_sector(table66())
    return _CACHE["sector"]


def mi_sf_plan(rj=1.0, T=T15, jt=0.5, dt=0.0):
    return RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, jt, rj),
                    RampSchedule(0.0, dt, rj), T)


def sf_mi_plan(rj=1.0, T=T15, jt=0.0, dt=0.0):
    return RampPlan(RampSchedule(0.0, 1.0, rj), RampSchedule(0.5, jt, rj),
                    RampSchedule(0.0, dt, rj), T)


def target_ground(g, J, delta, sector):
    key = ("target", g, J, delta, sector)
    if key not in _CACHE:
        h = (sector66() if sector else templates66()).assemble_copy(g, J, delta)
        _CACHE[key] = ground_state(h).vector
    return _CACHE[key]


def ramp_run(start, rj, T=T15, kappa=0.0, gamma=0.0, convention="literal-sigma-z",
             sector=True):
    """A six-site ramp and its fidelity, on the symmetric sector by default."""
    key = (start, rj, T, kappa, gamma, convention, sector)
    if key in _CACHE:
        return _CACHE[key]
    tpl = sector66() if sector else templates66()
    if start == "mi":
        plan = mi_sf_plan(rj=rj, T=T)
        psi0 = mi_ground_state(table66(), 0.0, 1.0)
    else:
        plan = sf_mi_plan(rj=rj, T=T)
        psi0 = sf_ground_state(table66())
    if sector:
        psi0 = tpl.isometry.T @ psi0
    if kappa or gamma:
        res = evolve_dissipative(tpl, plan, psi0, kappa=kappa, gamma=gamma,
                                 convention=convention)
    else:
        res = evolve(tpl, plan, psi0)
    end = plan.params_at_fraction(1.0)
    tgt = target_ground(end.g, end.J, end.delta, sector)
    raw = fidelity(res.final_state, tgt)
    norm2 = float(np.linalg.norm(res.final_state)) ** 2
    _CACHE[key] = (res, raw, raw / norm2)
    return _CACHE[key]


def gap_report(which):
    key = ("gap", which)
    if key not in _CACHE:
        plan = mi_sf_plan() if which == "mi_sf" else sf_mi_plan()
        _CACHE[key] = gap_scan(sector66(), plan, resolution=33,
                               refine_tol=1e-4)
    return _CACHE[key]


def test_criterion_1_basis_dimension():
    t0 = time.perf_counter()
    table = enumerate_basis(LatticeShape(6, 6))
    elapsed = time.perf_counter() - t0
    cross = all(
        enumerate_basis(LatticeShape(L, N)).dim == dimension_oracle(LatticeShape(L, N))
        for L in range(1, 5) for N in range(0, 5)
    )
    check(
        "criterion 1",
        table.dim == 5336 and elapsed < 1.0 and cross,
        f"dim={table.dim} (expect 5336), {elapsed:.3f}s, "
        f"oracle cross-check L<=4: {cross}",
    )


def test_criterion_2_gap_mi_sf():
    rep = gap_report("mi_sf")
    ok = abs(rep.params.J - 0.122) <= 0.002 and abs(rep.gap - 0.31) <= 0.01
    check("criterion 2", ok,
          f"MI->SF J_gp={rep.params.J:.4f} (0.122+-0.002), "
          f"E_gp={rep.gap:.4f} (0.31+-0.01)")


def test_criterion_3_gap_sf_mi():
    rep = gap_report("sf_mi")
    ok = abs(rep.params.J - 0.104) <= 0.002 and abs(rep.gap - 0.25) <= 0.01
    check("criterion 3", ok,
          f"SF->MI J_gp={rep.params.J:.4f} (0.104+-0.002), "
          f"E_gp={rep.gap:.4f} (0.25+-0.01)")


def test_criterion_4_optimal_index():
    r1 = optimal_index(0.0, 0.5, 0.122)
    r2 = optimal_index(0.5, 0.0, 0.104)
    ok = abs(r1 - 1.41) <= 0.01 and abs(r2 - 0.234) <= 0.002
    check("criterion 4", ok,
          f"ln-form indices: {r1:.4f} (1.41+-0.01), {r2:.4f} (0.234+-0.002)")


def test_criterion_5_velocity_at_gap():
    v = velocity_at_value(RampSchedule(0.0, 0.5, 1.41), 0.122, T15)
    ok = abs(v - 0.010) <= 0.0005
    check("criterion 5", ok, f"J'_gp={v:.5f} (0.010+-0.0005)")


def test_criterion_6_end_to_end_fidelity():
    res, raw, _ = ramp_run("mi", 1.0)
    ok_h = abs(raw - 0.9738) <= 0.0005
    # the default tol is met by the first pair, 256 / 512 steps
    pinned = res.step_count == 512 and abs(raw - 0.9738135805) <= 1e-8
    _, draw, dnorm = ramp_run("mi", 1.0, kappa=1e-3, gamma=1e-5,
                              convention="literal-sigma-z")
    ok_d = abs(dnorm - 0.9737) <= 0.0005
    check(
        "criterion 6",
        ok_h and ok_d and pinned,
        f"F={raw:.11f} (0.9738+-0.0005, 0.9738135805+-1e-8) in "
        f"{res.step_count} steps (512); dissipative kappa=1e-3 gamma=1e-5: "
        f"F={dnorm:.5f} (0.9737+-0.0005) under literal-sigma-z convention "
        f"with the final state renormalized (raw |<psi|G>|^2={draw:.4f} "
        f"reflects the decayed norm)",
    )


def test_criterion_7_index_and_time_orderings():
    f_mi = {r: ramp_run("mi", r)[1] for r in (1 / 3, 1 / 2, 1.0, 2.0)}
    ok_mi = min(f_mi[1.0], f_mi[2.0]) > max(f_mi[1 / 3], f_mi[1 / 2])

    f_sf = {r: ramp_run("sf", r)[1] for r in (1 / 3, 1 / 2, 1.0, 2.0)}
    best_sf = max(f_sf, key=f_sf.get)
    ok_sf = best_sf in (1 / 2, 1.0)

    times = (5 * math.pi, 10 * math.pi, T15)
    mi_t = [ramp_run("mi", 1.0, T=t)[1] for t in times]
    sf_t = [ramp_run("sf", 1.0, T=t)[1] for t in times]
    ok_t = mi_t[0] < mi_t[1] < mi_t[2] and sf_t[0] < sf_t[1] < sf_t[2]

    check(
        "criterion 7",
        ok_mi and ok_sf and ok_t,
        "MI->SF F(rJ): " + ", ".join(f"{r:.3g}: {f:.4f}" for r, f in f_mi.items())
        + f"; SF->MI argmax rJ={best_sf:.3g}"
        + f"; F(T) MI {['%.4f' % f for f in mi_t]} SF {['%.4f' % f for f in sf_t]}",
    )


def test_criterion_8_limiting_ground_states():
    tpl = templates66()
    mi = mi_ground_state(table66(), 0.0, 1.0)
    f_mi = fidelity(mi, ground_state(tpl.assemble_copy(1.0, 0.0, 0.0)).vector)
    sf = sf_ground_state(table66())
    f_sf = fidelity(sf, ground_state(tpl.assemble_copy(0.0, 0.5, -0.5)).vector)
    ok = f_mi > 1 - 1e-8 and f_sf > 1 - 1e-8
    check("criterion 8", ok,
          f"MI fidelity 1-{1 - f_mi:.2e}, SF fidelity 1-{1 - f_sf:.2e}")


def test_criterion_9_rho1_map():
    cfg = RunConfig()
    cfg.sites = cfg.excitations = 6
    cfg.rho_i, cfg.rho_j = 1, 4
    cfg.j_grid = GridSpec(0.0, 0.5, 6)
    cfg.d_grid = GridSpec(-1.0, 1.0, 5)
    from jclattice.sweeps import run_rho1_map

    rows = run_rho1_map(cfg, threads=2)
    zero_row_ok = all(abs(r) <= 1e-10 for j, d, r in rows if j == 0.0)
    corner = next(r for j, d, r in rows if j == 0.5 and d == -1.0)
    by_delta = {}
    for j, d, r in rows:
        by_delta.setdefault(d, []).append((j, r))
    monotone = all(
        all(np.diff([r for _, r in sorted(series)]) > -1e-9)
        for series in by_delta.values()
    )
    ok = zero_row_ok and corner > 0.9 and monotone
    check("criterion 9", ok,
          f"rho1(1,4)=0 at J=0: {zero_row_ok}; deep-SF corner "
          f"(J=0.5, Delta=-1): {corner:.4f} (>0.9); monotone in J: {monotone}")


def test_criterion_10_pulse_sequences():
    eps, gd, N = 0.02, 0.03, 6
    res = simulate_sf_pulse(N, eps, gd)
    durations_ok = all(
        seg.duration == pytest.approx(
            math.pi / (2 * eps) if seg.kind == "C"
            else math.pi / (2 * math.sqrt(N * seg.step) * gd), rel=1e-14)
        for seg in res.segments
    )
    totals = [simulate_sf_pulse(n, eps, gd).duration for n in range(1, 7)]
    drive_parts = [n * math.pi / (2 * eps) for n in range(1, 7)]
    linear_ok = (all(np.diff(totals) > 0)
                 and np.allclose(np.diff(drive_parts, n=2), 0.0, atol=1e-12))
    ok = res.fidelity > 1 - 1e-8 and durations_ok and linear_ok
    check("criterion 10", ok,
          f"SF ladder fidelity 1-{1 - res.fidelity:.1e}; segment durations "
          f"exact: {durations_ok}; tau_d2 linear in N: {linear_ok}")


def test_criterion_11_property_suite():
    tpl = templates66()
    details = []

    evo, _, _ = ramp_run("mi", 1.0, sector=False)
    norm_ok = evo.norm_drift <= 1e-8
    details.append(f"norm drift {evo.norm_drift:.1e}")
    psi = evo.final_state / np.linalg.norm(evo.final_state)
    k0 = symmetric_isometry(tpl.translation).T @ psi
    leakage = 1.0 - np.vdot(k0, k0).real
    leak_ok = leakage <= 1e-8
    details.append(f"leakage {leakage:.1e}")

    h = tpl.assemble_copy(1.0, 0.122, 0.0)
    t = tpl.translation
    comm = (h @ t - t @ h).tocsr()
    comm_max = 0.0 if comm.nnz == 0 else float(np.abs(comm.data).max())
    comm_ok = comm_max <= 1e-12
    details.append(f"[H,T] {comm_max:.1e}")

    invariance = max(
        max(abs(a.g - b.g), abs(a.J - b.J), abs(a.delta - b.delta))
        for s in np.linspace(0, 1, 21)
        for a, b in [(trajectory_point(sf_mi_plan(rj=1.0), float(s)),
                      trajectory_point(RampPlan(
                          RampSchedule(0.0, 1.0, 3.0), RampSchedule(0.5, 0.0, 3.0),
                          RampSchedule(0.0, 0.0), T15), float(s)))]
    )
    inv_ok = invariance <= 1e-12
    details.append(f"trajectory invariance {invariance:.1e}")

    rng = np.random.default_rng(2)
    fd_worst = 0.0
    for sched in (RampSchedule(0.0, 0.5, 1.41), RampSchedule(0.5, 0.0, 0.234)):
        for _ in range(50):
            tt = rng.uniform(0.05, 0.95) * T15
            hstep = 1e-6 * T15
            fd = (sched.value_at_fraction((tt + hstep) / T15)
                  - sched.value_at_fraction((tt - hstep) / T15)) / (2 * hstep)
            v = velocity_at_value(sched, sched.value_at_fraction(tt / T15), T15)
            fd_worst = max(fd_worst, abs(v - fd) / abs(fd))
    fd_ok = fd_worst <= 1e-6
    details.append(f"velocity vs FD {fd_worst:.1e}")

    rep = gap_report("sf_mi")
    gp = rep.params
    gs = ground_state(tpl.assemble_copy(gp.g, gp.J, gp.delta))
    v = gs.vector
    partials = {
        "J": -float(v @ (tpl.hopping @ v)),
        "g": float(v @ (tpl.coupling @ v)),
        "delta": float(v @ (tpl.number_diag * v)),
    }
    rate = sweep_rate_at_gap(sf_mi_plan(), gp, partials)
    ratio_err = abs(rate.ratio_g_over_j - rate.ratio_g_over_j_trajectory)
    eq14_ok = ratio_err <= 1e-10
    details.append(f"sweep-rate ratio identity {ratio_err:.1e}")

    t1 = enumerate_basis(LatticeShape(1, 1))
    tpl1 = HamiltonianTemplates(t1)
    g_lz, width, T_lz = 0.1, 32.0, 320.0
    plan = RampPlan(RampSchedule(g_lz, g_lz), RampSchedule(0.0, 0.0),
                    RampSchedule(-width, width, 1.0), T_lz)
    res = evolve(tpl1, plan, np.array([1.0, 0.0], complex), initial_steps=8000)
    stay = abs(res.final_state[0]) ** 2
    lz = math.exp(-2 * math.pi * g_lz**2 / (2 * width / T_lz))
    lz_ok = abs(stay / lz - 1) <= 0.01
    details.append(f"Landau-Zener {stay:.4f} vs {lz:.4f}")

    ok = norm_ok and leak_ok and comm_ok and inv_ok and fd_ok and eq14_ok and lz_ok
    check("criterion 11", ok, "; ".join(details))


def test_figures_desk_scale_grids():
    """Figs. 4/6/7 qualitative reproduction on 3x3 desk-scale grids."""
    grids = {}
    for init in ("mi", "sf"):
        for rj in (1 / 3, 1 / 2, 1.0, 2.0):
            cfg = RunConfig()
            cfg.sites = cfg.excitations = 6
            cfg.init = init
            cfg.steps = 64
            cfg.tol = 1e-4
            cfg.jt_grid = GridSpec(0.0, 0.5, 3)
            cfg.dt_grid = GridSpec(-0.5, 0.5, 3)
            cfg.plan = mi_sf_plan(rj=rj) if init == "mi" else sf_mi_plan(rj=rj)
            grids[(init, rj)] = run_phase_diagram(cfg, threads=2)

    # MI-start grids degrade toward the SF corner (large J, negative Delta)
    mi_shape = all(
        g.fidelity[0].min() > g.fidelity[2, 0] for (i, _), g in grids.items()
        if i == "mi"
    )
    # SF-start grids degrade toward the MI corner (J -> 0)
    sf_shape = all(
        g.fidelity[2].min() > g.fidelity[0].min() for (i, _), g in grids.items()
        if i == "sf"
    )
    combined = combine_max_fidelity(list(grids.values()))
    frac = float(np.mean(combined.fidelity > 0.9))
    ok = mi_shape and sf_shape and frac > 0.9
    check(
        "figures 4/6/7",
        ok,
        f"MI grids degrade toward SF corner: {mi_shape}; SF grids degrade "
        f"toward MI corner: {sf_shape}; combined max > 0.9 on "
        f"{frac * 100:.0f}% of the 3x3 grid "
        f"(min {float(combined.fidelity.min()):.4f})",
    )
