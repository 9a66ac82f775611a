import dataclasses
import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dstein

from jclattice import spectrum, sweeps
from jclattice.basis import LatticeShape, enumerate_basis
from jclattice.config import GridSpec, RunConfig, load_config
from jclattice.operators import (
    Block,
    HamiltonianTemplates,
    LatticeParams,
    block_sectors,
    symmetric_isometry,
    symmetric_sector,
)
from jclattice.propagate import fidelity
from jclattice.ramp import RampPlan, RampSchedule, trajectory_point
from jclattice.spectrum import (
    DEGENERACY_TOL,
    LEVEL_TOL,
    VECTOR_TOL,
    ConvergenceError,
    DegeneracyError,
    _lowest_eigh,
    block_levels,
    gap_scan,
    ground_state,
    start_vector,
    symmetric_pair,
)
from jclattice.states import mi_ground_state, sf_ground_state

from conftest import block_isometries, index_of, sparse

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def k0_weight(v, translation):
    """Squared norm of the projection of `v` onto the k = 0 sector."""
    pv = symmetric_isometry(translation).T @ v
    return float(np.vdot(pv, pv).real)


def test_single_site_ground_energy_formula():
    templates = HamiltonianTemplates(enumerate_basis(LatticeShape(1, 1)))
    for delta in (-1.3, -0.2, 0.0, 0.4, 2.0):
        h = templates.assemble_copy(1.0, 0.0, delta)
        chi = math.sqrt(delta**2 + 4.0)
        assert ground_state(h).energy == pytest.approx((delta - chi) / 2, abs=1e-12)


def test_ground_state_sign_convention(table33, templates33):
    h = templates33.assemble_copy(1.0, 0.2, 0.0)
    gs = ground_state(h)
    assert gs.vector[np.argmax(np.abs(gs.vector))] > 0
    # deterministic across repeated solves (fixed Lanczos seed)
    gs2 = ground_state(templates33.assemble_copy(1.0, 0.2, 0.0))
    assert np.array_equal(gs.vector, gs2.vector)


def test_ground_state_degeneracy_error():
    h = sp.diags([1.0, 1.0, 2.0]).tocsr()
    with pytest.raises(DegeneracyError):
        ground_state(h)


def test_eigenvector_residuals(table33, templates33):
    h = templates33.assemble_copy(1.0, 0.3, -0.2)
    w, v = _lowest_eigh(h, 6)
    for energy, vector in zip(w, v.T):
        residual = np.linalg.norm(h @ vector - energy * vector)
        assert residual <= 1e-8 * max(1.0, abs(energy))
    assert list(w) == sorted(w)


def test_dense_vs_iterative_agreement(templates33):
    # dense full diagonalization is the oracle for the Lanczos path
    h = templates33.assemble_copy(1.0, 0.25, 0.1)
    dense = np.linalg.eigvalsh(h.toarray())[:6]
    import jclattice.spectrum as spec

    old = spec.DENSE_CUTOFF
    spec.DENSE_CUTOFF = 1  # force the iterative path
    try:
        w, _ = _lowest_eigh(h, 6)
    finally:
        spec.DENSE_CUTOFF = old
    assert np.allclose(w, dense, atol=1e-9)


def test_lowest_eigh_matches_dense_eigh_on_the_csr_matrix(sector66):
    h = sector66.assemble_copy(1.0, 0.3, 0.0)
    w, v = _lowest_eigh(h, 3)
    w_ref, v_ref = np.linalg.eigh(h.toarray())
    assert w == pytest.approx(w_ref[:3], abs=1e-12)
    assert np.abs(np.sum(v * v_ref[:, :3], axis=0)) == pytest.approx(1.0, abs=1e-12)
    for theta, x in zip(w, v.T):
        assert np.linalg.norm(h @ x - theta * x) <= VECTOR_TOL * abs(theta)


def one_block(table, q, parity):
    tpl, = [tpl for tpl in block_sectors(table)
            if (tpl.block.q, tpl.block.parity) == (q, parity)]
    return tpl


def test_unconverged_ritz_values_are_not_accepted(table66):
    # at J = 0 the (1, +) block's lowest level is five-fold; a Ritz value of
    # T_m that has not converged must show its true residual, not pass the
    # stopping rule with a vector whose last component looks tiny
    h = one_block(table66, 1, 1).assemble_copy(1.0, 0.0, 0.0)
    assert h.shape[0] == 882
    w, v = spectrum._lanczos(h, 3, start_vector(882, spectrum._LANCZOS_SEED), VECTOR_TOL)
    assert np.sort(w) == pytest.approx(np.linalg.eigvalsh(h.toarray())[:3], abs=1e-9)
    for theta, x in zip(w, v.T):
        assert np.linalg.norm(h @ x - theta * x) <= VECTOR_TOL * abs(theta)


def test_a_level_at_zero_converges_on_the_rounding_floor(table66):
    # at g = 0, J = Delta / 2 the ground level is 0, where tol |theta| is
    # below rounding: the solve must stop on the floor, not the step cap
    h = one_block(table66, 0, 1).assemble_copy(0.0, 0.5, 1.0)
    w, _ = _lowest_eigh(h, 1, None, LEVEL_TOL)
    assert w[0] == pytest.approx(np.linalg.eigvalsh(h.toarray())[0], abs=1e-10)


def test_an_invariant_krylov_space_does_not_hide_a_degenerate_copy(table66):
    # at g = J = 0 the (0, +) block's lowest level is 50-fold; an invariant
    # Krylov space holds one copy of it, so the pair's solve must restart
    # and find a second copy before it stops
    h = one_block(table66, 0, 1).assemble_copy(0.0, 0.0, -1.0)
    dense = np.linalg.eigvalsh(h.toarray())
    assert dense[1] - dense[0] < DEGENERACY_TOL
    with pytest.raises(DegeneracyError):
        ground_state(h)


def test_unconverged_inverse_iteration_raises(sector66, monkeypatch):
    def unconverged(*args):
        z, _ = dstein(*args)
        return z, 1

    monkeypatch.setattr(spectrum, "dstein", unconverged)
    with pytest.raises(ConvergenceError, match=r"dstein: 1 of 2 Ritz vectors"):
        ground_state(sector66.assemble(1.0, 0.2, 0.0))


def test_mott_ground_state_fidelity(table66, templates66):
    h = templates66.assemble_copy(1.0, 0.0, 0.0)
    gs = ground_state(h)
    psi = mi_ground_state(table66, 0.0, 1.0)
    assert fidelity(psi, gs.vector) > 1 - 1e-10
    assert k0_weight(gs.vector, templates66.translation) >= 1 - 1e-8


def test_condensate_ground_state_fidelity(table66, templates66):
    h = templates66.assemble_copy(0.0, 0.5, -0.5)
    gs = ground_state(h)
    psi = sf_ground_state(table66)
    assert fidelity(psi, gs.vector) > 1 - 1e-10


@pytest.mark.parametrize("shape,sector,J,lowest", [
    (LatticeShape(6, 6), True, 0.1, [0.0, 0.8, 0.9]),
    (LatticeShape(6, 6), True, 0.0, [0.0, 1.0, 1.0]),
    (LatticeShape(5, 5), False, 0.1, [0.0, 0.8]),  # 0.8 is five-fold
], ids=["sector-J0.1", "sector-J0", "full-L5"])
def test_zero_row_level_at_g_zero(shape, sector, J, lowest):
    # at g = 0 the row of H for the all-qubits-up state is zero: a level 0
    # that the Krylov space holds only through the start vector
    table = enumerate_basis(shape)
    tpl = symmetric_sector(table) if sector else HamiltonianTemplates(table)
    h = tpl.assemble_copy(0.0, J, 1.0)
    w = np.linalg.eigvalsh(h.toarray())
    assert w[:len(lowest)] == pytest.approx(lowest, abs=1e-12)
    gs = ground_state(h)
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    assert np.abs(gs.vector).max() == pytest.approx(1.0, abs=1e-12)
    e0, e1, _ = symmetric_pair(h)
    assert [e0, e1] == pytest.approx(lowest[:2], abs=1e-10)
    # listed once, also from a start vector with no weight on that state
    v0 = np.where(np.abs(gs.vector) > 0.5, 0.0, 1.0)
    w, v = _lowest_eigh(h, len(lowest), v0)
    assert w == pytest.approx(lowest, abs=1e-10)
    assert np.allclose(h @ v, v * w, atol=1e-9)


def test_level_solver_continues_past_an_invariant_start(sector66):
    # at g = 0 the photon-free state is an eigenvector on its own: a start
    # there spans one level, so the pair needs a fresh orthogonal direction
    h = sector66.assemble(0.0, 0.1, 1.0)
    start = (np.asarray(abs(sparse(h)).sum(axis=1)).ravel() == 0).astype(float)
    assert start.sum() == 1
    e0, e1, _ = symmetric_pair(h, v0=start)
    assert [e0, e1] == pytest.approx([0.0, 0.8], abs=1e-10)


def test_symmetric_weight_limits(table33, templates33):
    t = templates33.translation
    assert k0_weight(mi_ground_state(table33, 0.0, 1.0), t) \
        == pytest.approx(1.0, abs=1e-12)
    assert k0_weight(sf_ground_state(table33), t) == pytest.approx(1.0, abs=1e-12)
    # localized single-orbit basis state: weight 1/L
    psi = np.zeros(table33.dim)
    psi[index_of(table33, ((2, 0), (0, 0), (1, 0)))] = 1.0
    assert k0_weight(psi, t) == pytest.approx(1 / 3, abs=1e-12)


def test_projector_idempotent(table33, templates33):
    p = symmetric_isometry(templates33.translation)
    rng = np.random.default_rng(3)
    for _ in range(4):
        v = rng.standard_normal(table33.dim)
        once = p @ (p.T @ v)
        twice = p @ (p.T @ once)
        assert np.max(np.abs(twice - once)) < 1e-12


def test_symmetric_pair_matches_classified_spectrum(table33, templates33):
    h = templates33.assemble_copy(1.0, 0.15, 0.0)
    e0, e1, _ = symmetric_pair(h, templates33.translation)
    blocks = block_sectors(table33)
    levels, = block_levels(blocks, [LatticeParams(1.0, 0.15, 0.0)], 10)
    assert e0 == pytest.approx(levels[0][0], abs=1e-9)
    sym_excited = [e for e, block in levels[1:] if block == Block(0, 1, 3)]
    assert sym_excited, "need a symmetric excited state within 10 levels"
    assert e1 == pytest.approx(sym_excited[0], abs=1e-8)


@pytest.mark.parametrize("shape", [LatticeShape(2, 2), LatticeShape(3, 3),
                                   LatticeShape(4, 4), LatticeShape(5, 5),
                                   LatticeShape(6, 4)], ids=str)
def test_block_levels_are_the_full_spectrum_labelled_by_block(shape):
    table = enumerate_basis(shape)
    full = HamiltonianTemplates(table)
    blocks = block_sectors(table)
    points = [LatticeParams(g, J, delta)
              for g, J, delta in [(1.0, 0.2, 0.0), (0.7, 0.35, 0.6), (0.8, -0.25, -0.4)]]
    for p, levels in zip(points, block_levels(blocks, points, 8)):
        w, v = np.linalg.eigh(full.assemble_copy(p.g, p.J, p.delta).toarray())
        assert len(levels) == 8
        assert np.abs([e for e, _ in levels] - w[:8]).max() <= 1e-10
        for i, (_, block) in enumerate(levels):
            # a level that is degenerate only by its irrep's dimension lies
            # in its block: the cosine row holds one vector of a doublet
            near = np.flatnonzero(np.abs(w - w[i]) < 1e-6)
            if len(near) == block.multiplicity and near[0] == i:
                p, = block_isometries(table, [block])
                pv = p.T @ v[:, near]
                assert np.sum(pv * pv) >= 1 - 1e-8


def test_degenerate_levels_follow_the_block_order(table66):
    # at s = 0 of configs/spectrum_mi_sf.cfg (J = 0) levels 1-5 are one
    # level, E - E0 = 2 - sqrt(2), held by several blocks whose solvers
    # round it differently: the labels follow `blocks`, not that rounding
    blocks = block_sectors(table66)
    levels, = block_levels(blocks, [LatticeParams(1.0, 0.0, 0.0)], 6)
    energies = [e for e, _ in levels]
    assert energies == sorted(energies)
    assert np.ptp(energies[1:]) < DEGENERACY_TOL
    order = [tpl.block for tpl in blocks]
    positions = [order.index(block) for _, block in levels[1:]]
    assert positions == sorted(positions)


@pytest.mark.parametrize("g, J", [((1.0, 1.0), (0.0, 0.5)), ((0.0, 1.0), (0.5, 0.0))],
                         ids=["mi_sf", "sf_mi"])
def test_warm_started_block_levels_match_dense_eigh(table66, g, J):
    # each block walks the trajectory from its previous lowest vector, asking
    # for several levels at VECTOR_TOL: every merged level must be that of
    # dense eigh on each block, repeated by the block's multiplicity
    plan = RampPlan(RampSchedule(*g), RampSchedule(*J), RampSchedule(0.0, 0.0), 1.0)
    points = [trajectory_point(plan, float(s)) for s in np.linspace(0.0, 1.0, 9)]
    blocks = block_sectors(table66)
    for p, levels in zip(points, block_levels(blocks, points, 6)):
        dense = np.sort([e for tpl in blocks
                         for e in np.linalg.eigvalsh(tpl.assemble(p.g, p.J, p.delta).toarray())
                         for _ in range(tpl.block.multiplicity)])
        assert np.abs([e for e, _ in levels] - dense[:6]).max() <= 1e-12, p


def mi_sf_plan(T=15 * math.pi, rj=1.0):
    return RampPlan(
        RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.5, rj),
        RampSchedule(0.0, 0.0), T,
    )


def test_gap_curve_single_interior_minimum(templates66):
    # qualitative shape of the symmetric excitation along the Mott->SF path
    gaps = []
    for J in np.linspace(0.02, 0.5, 13):
        h = templates66.assemble(1.0, float(J), 0.0)
        e0, e1, _ = symmetric_pair(h, templates66.translation)
        gaps.append(e1 - e0)
    diffs = np.sign(np.diff(gaps))
    switches = np.count_nonzero(np.diff(diffs))
    assert switches == 1  # decreasing then increasing


def test_gap_scan_interior_ground_weight(templates66):
    plan = mi_sf_plan()
    from jclattice.ramp import trajectory_point

    for s in (0.1, 0.24, 0.6, 1.0):
        p = trajectory_point(plan, s)
        h = templates66.assemble_copy(p.g, p.J, p.delta)
        gs = ground_state(h)
        assert k0_weight(gs.vector, templates66.translation) >= 1 - 1e-8


def test_gap_scan_resolution_invariance(sector66):
    plan = mi_sf_plan()
    r1 = gap_scan(sector66, plan, resolution=17, refine_tol=1e-4)
    r2 = gap_scan(sector66, plan, resolution=34, refine_tol=1e-4)
    assert abs(r1.s - r2.s) < 5e-4
    assert r1.gap == pytest.approx(r2.gap, rel=1e-6)


def test_gap_scan_constant_trajectory_tiebreak(sector33):
    plan = RampPlan(
        RampSchedule(1.0, 1.0), RampSchedule(0.2, 0.2), RampSchedule(0.0, 0.0),
        10.0,
    )
    report = gap_scan(sector33, plan, resolution=16)
    assert report.s == 0.0
    assert report.params.J == pytest.approx(0.2)


def test_gap_scan_rejects_low_resolution(sector33, templates33):
    with pytest.raises(ValueError):
        gap_scan(sector33, mi_sf_plan(), resolution=8)
    for refine_tol in (0.0, -1.0):  # golden-section refinement never ends
        with pytest.raises(ValueError):
            gap_scan(sector33, mi_sf_plan(), refine_tol=refine_tol)
    with pytest.raises(ValueError):  # the full basis is no symmetric sector
        gap_scan(templates33, mi_sf_plan())


def test_symmetric_gap_invariant_under_basis_reordering(table33, templates33):
    # conjugating H and T by any permutation must leave the gap unchanged
    h = templates33.assemble_copy(1.0, 0.13, 0.0)
    t = templates33.translation
    e0, e1, _ = symmetric_pair(h, t)
    rng = np.random.default_rng(17)
    perm = rng.permutation(table33.dim)
    p = sp.csr_matrix(
        (np.ones(table33.dim), (perm, np.arange(table33.dim))),
        shape=(table33.dim, table33.dim),
    )
    h2 = (p @ sparse(h) @ p.T).tocsr()
    t2 = (p @ sparse(t) @ p.T).tocsr()
    f0, f1, _ = symmetric_pair(h2, t2)
    gap, gap2 = e1 - e0, f1 - f0
    assert abs(gap2 - gap) <= 0.01 * gap


# --- solver tolerances ---------------------------------------------------------

@pytest.mark.parametrize("config", ["gap_mi_sf.cfg", "gap_sf_mi.cfg"])
def test_level_tol_solves_meet_the_kato_temple_bound(table66, config):
    # a Ritz value is within ||r||^2 / delta of its level, delta the distance
    # to the next distinct level; the LEVEL_TOL solves of the gap scan must
    # keep both that bound and the level itself within 1e-12 of dense eigh
    plan = load_config(CONFIGS / config).plan
    blocks = block_sectors(table66)
    points = [trajectory_point(plan, float(s)) for s in np.linspace(0.0, 1.0, 33)[::4]]
    for k, tpl in enumerate(blocks):
        walk, x = block_levels([tpl], points, 1), None
        for p, ((theta, block),) in zip(points, walk):
            h = tpl.assemble(p.g, p.J, p.delta)
            dense = np.linalg.eigvalsh(h.toarray())
            assert block == tpl.block
            assert theta == pytest.approx(dense[0], abs=1e-12)
            if k == 0:
                e0, e1, x = symmetric_pair(h, v0=x)
                assert [e0, e1] == pytest.approx(dense[:2], abs=1e-12)
                theta = e0
            else:
                # block_levels' own walk: the same solve from the same start
                w, v = _lowest_eigh(h, 1, x, LEVEL_TOL)
                assert w[0] == theta
                x = v[:, 0]
            r = h @ x - theta * x
            delta = dense[dense > dense[0] + DEGENERACY_TOL][0] - dense[0]
            assert np.dot(r, r) / delta <= 1e-12
            # the true residual meets the stopping rule, not only its estimate
            assert np.linalg.norm(r) <= LEVEL_TOL * abs(theta)
            # a solve whose vector is used keeps the precision it had on ARPACK
            if dense[1] - dense[0] >= DEGENERACY_TOL:
                gs = ground_state(h)
                assert gs.energy == pytest.approx(dense[0], abs=1e-12)
                r = h @ gs.vector - gs.energy * gs.vector
                assert np.linalg.norm(r) <= VECTOR_TOL * abs(gs.energy)


def stopped_solves(monkeypatch) -> list:
    """(matrix, bound) of every solve from now on that stops above its bound."""
    stopped, lanczos = [], spectrum._lanczos

    def recording(h, k, v0, tol, bound=None):
        w, v = lanczos(h, k, v0, tol, bound)
        if not len(w):
            stopped.append((h, bound))
        return w, v

    monkeypatch.setattr(spectrum, "_lanczos", recording)
    return stopped


@pytest.mark.parametrize("config,sites", [("gap_mi_sf.cfg", 6), ("gap_sf_mi.cfg", 6),
                                          ("gap_mi_sf.cfg", 5), ("gap_sf_mi.cfg", 5),
                                          ("reversed", 6)])
def test_solves_stopped_above_e1_have_no_level_below_it(monkeypatch, tmp_path, config,
                                                        sites):
    # an other block's solve in the gap scan stops once its lowest Ritz value
    # less its residual clears the symmetric E1: dense eigvalsh must then put
    # that block's lowest level above E1. At L = 5 every block lies under
    # DENSE_CUTOFF, which is lowered so that Lanczos solves them all. The
    # reversed MI -> SF trajectory starts cold at J = 0.5, where the (1, +)
    # block lies 0.46 below E1 and a cold solve's first Ritz values clear it
    if sites == 5:
        monkeypatch.setattr(spectrum, "DENSE_CUTOFF", 20)
    stopped = stopped_solves(monkeypatch)
    if config == "reversed":
        cfg = load_config(CONFIGS / "gap_mi_sf.cfg")
        cfg.plan = dataclasses.replace(cfg.plan, J=RampSchedule(0.5, 0.0))
    else:
        cfg = load_config(CONFIGS / config)
    cfg = dataclasses.replace(cfg, sites=sites, excitations=sites,
                              out=str(tmp_path / "gap.csv"))
    report = sweeps.run_gap_scan(cfg)
    s_of = {e1: s for s, _, _, e1 in report.curve}
    for h, bound in stopped:
        assert np.linalg.eigvalsh(h.toarray())[0] > bound, (s_of[bound], h.shape)
    at = {s_of[bound] for _, bound in stopped}
    assert 0.0 not in at  # each walk starts cold there
    if config == "gap_sf_mi.cfg":
        assert 0.03125 in at  # next to g = 0, where the (0, +) block has a zero row
    elif config == "gap_mi_sf.cfg":
        # at s = 0.28-0.375 a block below E1 sets E_gap_any, beside the
        # blocks stopped above it
        assert {0.28125, 0.3125, 0.34375, 0.375} <= at
    if sites == 5:  # the whole column against dense levels of every block
        _, *others = block_sectors(enumerate_basis(LatticeShape(5, 5)))
        with open(tmp_path / "gap.csv") as fh:
            rows = [line.split(",") for line in fh if line[0].isdigit()][:-1]
        for (s, p, e0, e1), row in zip(report.curve, rows):
            lowest = min(np.linalg.eigvalsh(tpl.assemble(p.g, p.J, p.delta).toarray())[0]
                         for tpl in others)
            assert float(row[5]) == pytest.approx(max(min(e1, lowest) - e0, 0.0), abs=1e-12)


def test_a_zero_row_keeps_its_level_under_a_bound(sector66):
    # at g = 0 the all-qubits-up row is zero: its level 0 lies under a bound
    # >= 0 even when the start vector, and so the Krylov space, misses it
    h = sector66.assemble_copy(0.0, 0.1, 1.0)
    v0 = (np.bincount(h.rows(), np.abs(h.data), h.shape[0]) > 0).astype(float)
    w, _ = _lowest_eigh(h, 1, v0, LEVEL_TOL, bound=0.5)
    assert w == pytest.approx([0.0], abs=1e-12)
    # a bound below the zero level may still stop the solve above it
    w, v = _lowest_eigh(h, 1, v0, LEVEL_TOL, bound=-0.5)
    assert len(w) == 0 and v.shape == (h.shape[0], 1)


def test_only_level_reporting_solves_stop_at_level_tol(table66, sector66, monkeypatch):
    # a solve whose vector becomes a state (a ramp's checkpoint and target
    # ground vectors, rho1) stops at VECTOR_TOL; a solve that reports only
    # levels stops at LEVEL_TOL
    seen = []
    lanczos = spectrum._lanczos

    def recording_lanczos(h, k, v0, tol, bound=None):
        seen.append(tol)
        return lanczos(h, k, v0, tol, bound)

    monkeypatch.setattr(spectrum, "_lanczos", recording_lanczos)

    def solves(call):
        seen.clear()
        call()
        assert seen
        return set(seen)

    h = sector66.assemble(1.0, 0.2, 0.0)
    plan = mi_sf_plan(2 * math.pi)
    psi = sector66.isometry.T @ mi_ground_state(table66, 0.0, 1.0)
    rho1 = dataclasses.replace(load_config(CONFIGS / "rho1_map.cfg"), out=None,
                               j_grid=GridSpec(0.2, 0.2, 1), d_grid=GridSpec(0.0, 0.0, 1))
    blocks = block_sectors(table66)
    p = LatticeParams(1.0, 0.2, 0.0)
    vector = {1e-12}
    assert solves(lambda: ground_state(h)) == vector
    ramp = sweeps.SimContext(RunConfig(), sector66, psi, None)
    assert solves(lambda: sweeps._run_plan(ramp, plan, checkpoints=3)) == vector
    assert solves(lambda: sweeps.run_rho1_map(rho1)) == vector
    # three levels: more than the multiplicity of every block
    assert solves(lambda: block_levels(blocks, [p], 3)) == vector
    assert solves(lambda: symmetric_pair(h)) == {LEVEL_TOL}
    assert solves(lambda: block_levels(blocks, [p], 1)) == {LEVEL_TOL}


def test_convergence_error_names_the_tolerance_and_dimension(sector66, monkeypatch):
    # a cold start needs more than 8 steps for the ground pair
    monkeypatch.setattr(spectrum, "LANCZOS_MAX_STEPS", 8)
    with pytest.raises(ConvergenceError, match=r"tol=1e-12 .* \(dim=500\)"):
        ground_state(sector66.assemble(1.0, 0.2, 0.0))


def test_level_solver_step_cap_names_the_tolerance_dimension_and_steps(
        sector66, monkeypatch):
    # a cold start needs more than 8 steps for the symmetric pair
    monkeypatch.setattr(spectrum, "LANCZOS_MAX_STEPS", 8)
    with pytest.raises(ConvergenceError,
                       match=r"tol=1e-08 .* in 8 steps \(dim=500\)"):
        symmetric_pair(sector66.assemble(1.0, 0.2, 0.0))
