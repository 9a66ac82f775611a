import math

import numpy as np
import pytest
from scipy.linalg import expm

from jclattice import sweeps
from jclattice.basis import LatticeShape, enumerate_basis
from jclattice.config import RunConfig
from jclattice.operators import HamiltonianTemplates, symmetric_isometry
from jclattice.propagate import (
    MAX_KRYLOV,
    NormBlowUp,
    StepSizeUnderflow,
    _expmv,
    evolve,
    evolve_dissipative,
    fidelity,
)
from jclattice.ramp import RampPlan, RampSchedule
from jclattice.spectrum import ground_state
from jclattice.states import mi_ground_state, sf_ground_state


def plan_mi_sf(T, rj=1.0, jt=0.5):
    return RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, jt, rj),
                    RampSchedule(0.0, 0.0), T)


def plan_sf_mi(T, rj):
    return RampPlan(RampSchedule(0.0, 1.0, rj), RampSchedule(0.5, 0.0, rj),
                    RampSchedule(0.0, 0.0, rj), T)


def reversed_plan(plan):
    """Endpoint-swapped plan (the time-mirror of linear ramps)."""
    def flip(s):
        return RampSchedule(s.stop, s.start, s.index)

    return RampPlan(flip(plan.g), flip(plan.J), flip(plan.delta), plan.total_time)


def constant_plan(T, g=1.0, J=0.2, d=0.0):
    return RampPlan(RampSchedule(g, g), RampSchedule(J, J),
                    RampSchedule(d, d), T)


def checkpoint_rows(templates, plan, psi0, checkpoints, steps):
    """The ramp driver's checkpoint rows (t, g, J, Delta, norm, overlap with
    the instantaneous ground state) of a Hermitian run at the default tol."""
    ctx = sweeps.SimContext(RunConfig(steps=steps), templates, psi0, None)
    rows, _ = sweeps._run_plan(ctx, plan, checkpoints)
    return rows


def test_fidelity_basics():
    a = np.array([1.0, 0.0], complex)
    b = np.array([0.0, 1.0], complex)
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == 0.0
    c = 0.5 - 0.3j
    assert fidelity(c * a, a) == pytest.approx(abs(c) ** 2)
    with pytest.raises(ValueError):
        fidelity(a, np.ones(3, complex))


def test_stationary_eigenstate(table33, templates33):
    plan = constant_plan(6.0)
    gs = ground_state(templates33.assemble_copy(1.0, 0.2, 0.0))
    res = evolve(templates33, plan, gs.vector, initial_steps=4000)
    assert abs(abs(np.vdot(gs.vector, res.final_state)) - 1) < 1e-8


def test_norm_conservation_and_leakage(table33, templates33):
    plan = plan_mi_sf(15 * math.pi)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    res = evolve(templates33, plan, psi0)
    assert res.norm_drift <= 1e-8
    psi = res.final_state / np.linalg.norm(res.final_state)
    k0 = symmetric_isometry(templates33.translation).T @ psi
    assert 1.0 - np.vdot(k0, k0).real <= 1e-8


def test_step_halving_converges_fidelity(table33, templates33):
    plan = plan_mi_sf(4 * math.pi)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    tgt = ground_state(templates33.assemble_copy(1.0, 0.5, 0.0)).vector
    f1 = fidelity(evolve(templates33, plan, psi0, initial_steps=256).final_state, tgt)
    f2 = fidelity(evolve(templates33, plan, psi0, initial_steps=512).final_state, tgt)
    assert abs(f1 - f2) < 1e-6


def test_adiabatic_monotonicity_small_lattice(table33, templates33):
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    tgt = ground_state(templates33.assemble_copy(1.0, 0.5, 0.0)).vector
    fids = []
    for T in (5 * math.pi, 10 * math.pi, 15 * math.pi):
        res = evolve(templates33, plan_mi_sf(T), psi0)
        fids.append(fidelity(res.final_state, tgt))
    assert fids[0] < fids[1] < fids[2]


def test_time_reversal_consistency(table33, templates33):
    # H(t) is real symmetric, so the reversed-plan propagator is the
    # complex conjugate of the inverse: conj(evolve_rev(conj(psi_T))) = psi_0
    plan = plan_mi_sf(3 * math.pi, rj=1.0)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    fwd = evolve(templates33, plan, psi0, initial_steps=256)
    back = evolve(templates33, reversed_plan(plan),
                  np.conj(fwd.final_state), initial_steps=256)
    psi_back = np.conj(back.final_state)
    assert fidelity(psi_back, psi0) > 1 - 1e-6


def test_landau_zener_against_closed_form():
    # linear sweep of the detuning through the (1,down)/(0,up) crossing;
    # transition probability exp(-2 pi g^2 / rate) in the wide-window limit
    table = enumerate_basis(LatticeShape(1, 1))
    tpl = HamiltonianTemplates(table)
    g, width, T = 0.1, 32.0, 320.0
    plan = RampPlan(RampSchedule(g, g), RampSchedule(0.0, 0.0),
                    RampSchedule(-width, width, 1.0), T)
    psi0 = np.array([1.0, 0.0], complex)  # photon = diabatic ground at -width
    res = evolve(tpl, plan, psi0, initial_steps=8000)
    stay = abs(res.final_state[0]) ** 2
    rate = 2 * width / T
    lz = math.exp(-2 * math.pi * g**2 / rate)
    assert stay == pytest.approx(lz, rel=0.01)


def test_dissipative_zero_rates_matches_hermitian(table33, templates33):
    plan = plan_mi_sf(2 * math.pi)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    a = evolve(templates33, plan, psi0, initial_steps=2000)
    b = evolve_dissipative(templates33, plan, psi0, kappa=0.0, gamma=0.0,
                           initial_steps=2000)
    assert np.array_equal(a.final_state, b.final_state)


def test_dissipative_norm_decays(table33, templates33):
    plan = plan_mi_sf(4 * math.pi)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    res = evolve_dissipative(templates33, plan, psi0, kappa=0.05, gamma=0.0,
                             convention="number-conserving",
                             initial_steps=4000, checkpoints=6)
    norms = [np.linalg.norm(psi) for psi in res.states]
    assert all(np.diff(norms) < 0)
    assert np.linalg.norm(res.final_state) < 1.0


def test_dissipative_literal_constant_inflates_norm(table33, templates33):
    # all-down-heavy states gain amplitude under the literal sigma-z form
    plan = constant_plan(2.0, g=0.0, J=0.3, d=-1.0)
    psi0 = sf_ground_state(table33)  # photons only, sum sigma_z = -L
    res = evolve_dissipative(templates33, plan, psi0, kappa=0.0, gamma=0.1,
                             convention="literal-sigma-z", initial_steps=500)
    # norm^2 grows as e^{+gamma L t} when every populated state is all-down
    assert np.linalg.norm(res.final_state) ** 2 == pytest.approx(
        math.exp(0.1 * 3 * 2.0), rel=1e-6)


def test_norm_blowup_guard(table33, templates33):
    plan = constant_plan(40.0, g=0.0, J=0.3)
    psi0 = sf_ground_state(table33)
    with pytest.raises(NormBlowUp):
        evolve_dissipative(templates33, plan, psi0, kappa=0.0, gamma=2.0,
                           convention="literal-sigma-z", initial_steps=4000,
                           tol=1e-3)


def test_step_underflow(table33, templates33, monkeypatch):
    import jclattice.propagate as propagate

    monkeypatch.setattr(propagate, "MAX_REFINEMENTS", 1)
    plan = plan_mi_sf(2 * math.pi)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    with pytest.raises(StepSizeUnderflow):
        evolve(templates33, plan, psi0, tol=1e-16, initial_steps=64)


def test_checkpoints_schema(table33, templates33):
    plan = plan_mi_sf(2 * math.pi)
    psi0 = mi_ground_state(table33, 0.0, 1.0)
    rows = checkpoint_rows(templates33, plan, psi0, 4, steps=1000)
    assert len(rows) == 4
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(2 * math.pi)
    assert rows[0][5] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="only t = 0"):
        evolve(templates33, plan, psi0, checkpoints=1)


def test_dimension_mismatch(table33, templates33):
    with pytest.raises(ValueError):
        evolve(templates33, plan_mi_sf(1.0), np.ones(5, complex))


TOL_CASES = {
    "hermitian r=1": dict(start="mi", rj=1.0, rates=None),
    "sf->mi r=1/3": dict(start="sf", rj=1 / 3, rates=None),
    "dissipative r=1": dict(start="mi", rj=1.0, rates=(0.05, 0.01)),
}


def _tol_run(table, templates, case, tol, initial_steps=16):
    c = TOL_CASES[case]
    if c["start"] == "mi":
        plan, psi0 = plan_mi_sf(4 * math.pi, c["rj"]), mi_ground_state(table, 0.0, 1.0)
    else:
        plan, psi0 = plan_sf_mi(4 * math.pi, c["rj"]), sf_ground_state(table)
    if c["rates"] is None:
        return evolve(templates, plan, psi0, tol=tol, initial_steps=initial_steps)
    kappa, gamma = c["rates"]
    return evolve_dissipative(templates, plan, psi0, kappa, gamma,
                              convention="number-conserving", tol=tol,
                              initial_steps=initial_steps)


@pytest.mark.parametrize("case", sorted(TOL_CASES))
def test_tol_bounds_the_state_error(table33, templates33, case):
    reference = _tol_run(table33, templates33, case, 1e-12, 512).final_state
    for tol in (1e-4, 1e-6, 1e-8):
        # a coarse start leaves the accuracy to the doubling rule
        res = _tol_run(table33, templates33, case, tol)
        scale = max(1.0, np.linalg.norm(res.final_state))
        assert np.linalg.norm(res.final_state - reference) <= tol * scale
        assert res.error_estimate <= tol * scale


@pytest.mark.parametrize("rj", [1 / 3, 0.233])
def test_small_index_ramp_keeps_fourth_order(table33, templates33, rj):
    # dH/dt diverges at t = 0 for r < 1; on a uniform time grid the default
    # tolerance ran out of refinements
    res = evolve(templates33, plan_sf_mi(15 * math.pi, rj),
                 sf_ground_state(table33))
    assert res.step_count <= 4 * 512
    assert res.error_estimate <= 1e-8


def test_checkpoints_at_exact_times_with_one_solve_each(table33, templates33,
                                                        monkeypatch):
    solves = []

    def counting(h, **kwargs):
        solves.append(h.shape)
        return ground_state(h, **kwargs)

    monkeypatch.setattr(sweeps, "ground_state", counting)
    T = 2 * math.pi
    plan = plan_sf_mi(T, 1 / 3)
    rows = checkpoint_rows(templates33, plan, sf_ground_state(table33), 7, steps=8)
    assert len(solves) == 7
    assert [row[0] for row in rows] == pytest.approx(
        [k / 6 * T for k in range(7)], rel=1e-15, abs=0.0)
    # a checkpoint holds the state of a run that ends at its time
    half = RampPlan(*(RampSchedule(s.start, s.value_at_fraction(0.5), s.index)
                      for s in (plan.g, plan.J, plan.delta)), T / 2)
    psi = evolve(templates33, half, sf_ground_state(table33)).final_state
    p = plan.params_at_fraction(0.5)
    gs = ground_state(templates33.assemble_copy(p.g, p.J, p.delta)).vector
    assert rows[3][5] == pytest.approx(fidelity(psi, gs), abs=1e-7)


def test_norm_blowup_guard_short_runs(table33, templates33, monkeypatch):
    # the guard checks every step, so a single short run trips it
    import jclattice.propagate as propagate

    monkeypatch.setattr(propagate, "MAX_REFINEMENTS", 0)
    plan = constant_plan(40.0, g=0.0, J=0.3)
    with pytest.raises(NormBlowUp):
        evolve_dissipative(templates33, plan, sf_ground_state(table33),
                           kappa=0.0, gamma=2.0, convention="literal-sigma-z",
                           initial_steps=64, tol=1e-3)


def test_first_pair_accepted_on_the_scaled_estimate(table33, templates33,
                                                    monkeypatch):
    # at n = 32 this ramp has ||psi_64 - psi_32|| = 2.6e-6: above tol = 1e-6,
    # so the raw difference would go on to 128 steps, but / 7.5 is 3.4e-7
    import jclattice.propagate as propagate

    outputs = []

    def counting(*args):
        outputs.append(expmv(*args))
        return outputs[-1]

    expmv = propagate._expmv
    monkeypatch.setattr(propagate, "_expmv", counting)
    n, tol = 32, 1e-6
    res = evolve(templates33, plan_mi_sf(4 * math.pi),
                 mi_ground_state(table33, 0.0, 1.0), tol=tol, initial_steps=n)
    assert len(outputs) == 6 * n  # two exponentials a step, n + 2n steps
    assert res.step_count == 2 * n
    psi_n, psi_2n = outputs[2 * n - 1], outputs[-1]
    assert np.array_equal(res.final_state, psi_2n)
    diff = np.linalg.norm(psi_2n - psi_n)
    assert diff > tol
    assert res.error_estimate == pytest.approx(diff / propagate.RICHARDSON_SCALE,
                                               rel=1e-12)
    assert res.error_estimate <= tol


def test_evolve_refuses_a_zero_or_non_finite_state(table33, templates33):
    psi = mi_ground_state(table33, 0.0, 1.0)
    for bad in (0.0 * psi, np.where(psi > 0, math.inf, psi),
                np.where(psi > 0, math.nan, psi)):
        with pytest.raises(ValueError, match="need a finite, nonzero state"):
            evolve(templates33, plan_mi_sf(2 * math.pi), bad, initial_steps=8)


def step_matrix(templates, dt, decay=None, g=1.0, J=0.25):
    """dt * (H - i D) as the complex CSR matrix the stepper exponentiates."""
    a = templates.assemble_copy(g, J, 0.0).astype(complex)
    if decay is not None:
        a.data[templates.diag_positions] -= 1j * decay
    a.data *= dt
    return a


def krylov_run(a, psi, hermitian, tol=1e-11):
    """_expmv's result, its Krylov vector count m and the vectors."""
    basis = np.full((MAX_KRYLOV + 1, len(psi)), np.nan, dtype=complex)
    out = _expmv(a, psi, tol, basis, hermitian)
    m = int(np.isfinite(basis[:, 0]).sum()) - 1  # one more row holds the residual
    return out, m, basis[:m]


def test_lanczos_recurrence_matches_full_orthogonalisation(table66, sector66):
    psi = (sector66.isometry.T @ mi_ground_state(table66, 0.0, 1.0)).astype(complex)
    # one exponential of the T = 15pi ramp at 512 steps, and a long step
    for dt, least in ((15 * math.pi / 512, 1), (0.6, 15)):
        a = step_matrix(sector66, dt)
        lanczos, m, _ = krylov_run(a, psi, True)
        arnoldi, m_full, _ = krylov_run(a, psi, False)
        assert m == m_full >= least
        assert np.linalg.norm(lanczos - arnoldi) <= 1e-13 * np.linalg.norm(psi)


def test_dissipative_evolve_orthogonalises_fully(table33, templates33,
                                                 monkeypatch):
    import jclattice.propagate as propagate

    flags = []

    def recording(a, psi, tol, basis, hermitian):
        flags.append(hermitian)
        return expmv(a, psi, tol, basis, hermitian)

    expmv = propagate._expmv
    monkeypatch.setattr(propagate, "_expmv", recording)
    plan, psi0 = plan_mi_sf(2 * math.pi), mi_ground_state(table33, 0.0, 1.0)
    evolve_dissipative(templates33, plan, psi0, kappa=0.05, gamma=0.01,
                       tol=1e-4, initial_steps=8)
    assert flags and not any(flags)
    flags.clear()
    evolve(templates33, plan, psi0, tol=1e-4, initial_steps=8)
    assert flags and all(flags)


def test_truncated_recurrence_is_not_orthogonal_on_h_minus_i_d(table66,
                                                               sector66):
    # on H - iD the three-term recurrence still spans the Krylov space and
    # its result met tol in every case tried, but its vectors are far from
    # orthonormal, so the orthogonal projection Arnoldi's error analysis
    # assumes is gone; on H alone they stay orthonormal
    psi = (sector66.isometry.T @ mi_ground_state(table66, 0.0, 1.0)).astype(complex)
    decay = sector66.dissipative_rates(0.5, 0.1)

    def loss(vectors):
        gram = vectors.conj() @ vectors.T
        return np.abs(gram - np.eye(len(vectors))).max()

    for dt in (15 * math.pi / 512, 0.3):
        _, _, truncated = krylov_run(step_matrix(sector66, dt, decay), psi, True)
        _, _, full = krylov_run(step_matrix(sector66, dt, decay), psi, False)
        _, _, hermitian = krylov_run(step_matrix(sector66, dt), psi, True)
        assert loss(truncated) > 0.1
        assert loss(full) <= 1e-12 and loss(hermitian) <= 1e-12


def test_hermitian_krylov_exponential_matches_dense_expm(table66, sector66):
    # one exponential of the T = 15pi ramp at 512 steps and a long step, from
    # the Mott state at J = 0.25 and at J = 1e-7. The latter start is nearly
    # invariant: its first residual is about 1e-8, and the recomputed dot
    # <v_0, a v_1> carries alpha_0 times the rounding left along v_0, far
    # above tol, so the tridiagonal must take the residual norms
    psi = (sector66.isometry.T @ mi_ground_state(table66, 0.0, 1.0)).astype(complex)
    tol = 1e-11
    for J in (0.25, 1e-7):
        for dt in (15 * math.pi / 512, 0.6):
            a = step_matrix(sector66, dt, J=J)
            exact = expm(-1j * a.toarray()) @ psi
            out, m, _ = krylov_run(a, psi, True, tol)
            assert m >= 2
            assert np.linalg.norm(out - exact) <= tol * max(1.0, np.linalg.norm(psi))


def test_hermitian_krylov_exponential_of_an_eigenvector(sector66):
    # an invariant start: the first residual vanishes, so one Krylov vector
    a = step_matrix(sector66, 0.6)
    levels, vectors = np.linalg.eigh(a.toarray())
    psi = 2.0 * vectors[:, 3]
    tol = 1e-11
    out, m, _ = krylov_run(a, psi, True, tol)
    assert m == 1
    assert np.linalg.norm(out - np.exp(-1j * levels[3]) * psi) <= 2.0 * tol


def test_dense_expm_only_on_the_dissipative_path(table33, templates33,
                                                 monkeypatch):
    # a Hermitian step exponentiates its real tridiagonal by eigendecomposition
    import scipy.linalg

    class DenseExpm(Exception):
        pass

    def refuse(m):
        raise DenseExpm

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    plan, psi0 = plan_mi_sf(2 * math.pi), mi_ground_state(table33, 0.0, 1.0)
    res = evolve(templates33, plan, psi0, tol=1e-4, initial_steps=8)
    assert res.norm_drift <= 1e-8
    with pytest.raises(DenseExpm):
        evolve_dissipative(templates33, plan, psi0, kappa=0.05, gamma=0.01,
                           tol=1e-4, initial_steps=8)
