import math

import numpy as np
import pytest

from jclattice.basis import LatticeShape, enumerate_basis
from jclattice.operators import HamiltonianTemplates, symmetric_isometry
from jclattice.propagate import fidelity
from jclattice.spectrum import ground_state
from jclattice.states import (
    mi_ground_state,
    polariton_doublet,
    sf_ground_state,
    simulate_mi_pulse,
    simulate_sf_pulse,
)

from conftest import basis_states, index_of


def test_doublet_identities():
    for n in (1, 2, 3):
        for delta in (-0.8, 0.0, 0.6):
            d = polariton_doublet(n, delta, 1.0)
            lo = d.lower_amplitudes
            hi = (math.cos(d.theta / 2), math.sin(d.theta / 2))  # |n,+>
            assert lo[0] ** 2 + lo[1] ** 2 == pytest.approx(1.0)
            assert hi[0] ** 2 + hi[1] ** 2 == pytest.approx(1.0)
            assert d.chi == pytest.approx(math.sqrt(delta**2 + 4 * n))
            # energies are the eigenvalues of the single-site n-excitation block
            table = enumerate_basis(LatticeShape(1, n))
            h = HamiltonianTemplates(table).assemble_copy(1.0, 0.0, delta)
            w = np.linalg.eigvalsh(h.toarray())
            assert w[0] == pytest.approx(d.energy_minus, abs=1e-12)
            assert w[-1] == pytest.approx(d.energy_plus, abs=1e-12)


def test_doublet_resonant_angle():
    d = polariton_doublet(1, 0.0, 1.0)
    assert d.theta == pytest.approx(math.pi / 2)
    lo = d.lower_amplitudes
    assert lo[0] == pytest.approx(1 / math.sqrt(2))
    assert lo[1] == pytest.approx(-1 / math.sqrt(2))


def test_mott_state_resonant_amplitudes():
    table = enumerate_basis(LatticeShape(2, 2))
    psi = mi_ground_state(table, 0.0, 1.0)
    i = index_of(table, ((1, 0), (1, 0)))
    j = index_of(table, ((0, 1), (0, 1)))
    k = index_of(table, ((1, 0), (0, 1)))
    assert psi[i] == pytest.approx(0.5)
    assert psi[j] == pytest.approx(0.5)  # two minus signs
    assert psi[k] == pytest.approx(-0.5)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_mott_state_support():
    table = enumerate_basis(LatticeShape(3, 3))
    psi = mi_ground_state(table, 0.3, 1.0)
    for i, config in enumerate(basis_states(table)):
        per_site_ok = all((n, s) in ((1, 0), (0, 1)) for n, s in config)
        if not per_site_ok:
            assert psi[i] == 0.0


def test_mott_state_is_exact_ground_at_zero_hopping(table33, templates33):
    for delta in (-0.4, 0.0, 0.8):
        h = templates33.assemble_copy(1.0, 0.0, delta)
        gs = ground_state(h)
        psi = mi_ground_state(table33, delta, 1.0)
        assert fidelity(psi, gs.vector) > 1 - 1e-10


def test_mott_state_photon_limit():
    # Delta -> -infinity pushes the lower polariton onto the photon branch
    table = enumerate_basis(LatticeShape(2, 2))
    psi = mi_ground_state(table, -50.0, 1.0)
    all_photons = index_of(table, ((1, 0), (1, 0)))
    assert abs(psi[all_photons]) ** 2 > 0.999


def test_mott_state_requires_unit_filling():
    table = enumerate_basis(LatticeShape(3, 2))
    with pytest.raises(ValueError):
        mi_ground_state(table, 0.0, 1.0)
    with pytest.raises(ValueError):
        sf_ground_state(table)


def test_condensate_amplitudes_two_sites():
    table = enumerate_basis(LatticeShape(2, 2))
    psi = sf_ground_state(table)
    vals = {
        ((2, 0), (0, 0)): 0.5,
        ((1, 0), (1, 0)): 1 / math.sqrt(2),
        ((0, 0), (2, 0)): 0.5,
    }
    for config, expected in vals.items():
        assert psi[index_of(table, config)] == pytest.approx(expected)


def test_condensate_norm_and_symmetry(table66, templates66):
    psi = sf_ground_state(table66)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    k0 = symmetric_isometry(templates66.translation).T @ psi
    assert k0 @ k0 == pytest.approx(1.0, abs=1e-10)


def test_condensate_is_ground_without_coupling(table33, templates33):
    # holds at Delta < 0 and at the Delta = 0 boundary of the superfluid-start ramps
    for delta in (-0.5, 0.0):
        h = templates33.assemble_copy(0.0, 0.5, delta)
        gs = ground_state(h)
        psi = sf_ground_state(table33)
        assert fidelity(psi, gs.vector) > 1 - 1e-10


def test_mi_pulse_high_fidelity_small_drive():
    res = simulate_mi_pulse(0.0, 1.0, 0.02)
    assert res.fidelity > 0.999
    # leakage to the upper polariton is suppressed as (eps/g)^2
    assert res.leakage_upper < (0.02 / 1.0) ** 2 * 10


def test_mi_pulse_two_level_limit():
    # vanishing drive makes the rotating-frame two-level reduction exact
    res = simulate_mi_pulse(0.0, 1.0, 1e-4)
    assert res.fidelity > 1 - 1e-6


def test_mi_pulse_duration_scales_inversely_with_drive():
    a = simulate_mi_pulse(0.0, 1.0, 0.02)
    b = simulate_mi_pulse(0.0, 1.0, 0.01)
    assert b.duration == pytest.approx(2 * a.duration, rel=1e-12)
    assert a.duration == pytest.approx(
        math.pi / (2 * 0.02 * math.cos(math.pi / 4)), rel=1e-12)


def test_mi_pulse_validation():
    with pytest.raises(ValueError):
        simulate_mi_pulse(0.0, 1.0, 0.0)


def test_sf_pulse_single_excitation_ladder():
    res = simulate_sf_pulse(1, 0.05, 0.05)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    kinds = [seg.kind for seg in res.segments]
    assert kinds == ["C", "Q"]
    for seg in res.segments:
        assert seg.cumulative_fidelity == pytest.approx(1.0, abs=1e-12)


def test_sf_pulse_six_excitations_exact():
    eps, gd, N = 0.02, 0.03, 6
    res = simulate_sf_pulse(N, eps, gd)
    assert res.fidelity > 1 - 1e-10
    taus_c = [s.duration for s in res.segments if s.kind == "C"]
    taus_q = [s.duration for s in res.segments if s.kind == "Q"]
    assert all(t == pytest.approx(math.pi / (2 * eps)) for t in taus_c)
    for l, t in enumerate(taus_q, start=1):
        assert t == pytest.approx(math.pi / (2 * math.sqrt(N * l) * gd))
    expected_total = N * math.pi / (2 * eps) + sum(
        math.pi / (2 * math.sqrt(N * l) * gd) for l in range(1, N + 1))
    assert res.duration == pytest.approx(expected_total, rel=1e-12)


def test_sf_pulse_duration_linear_in_n():
    eps = gd = 0.02
    totals = [simulate_sf_pulse(n, eps, gd).duration for n in range(1, 9)]
    assert all(np.diff(totals) > 0)
    # the drive part is exactly N pi/(2 eps): zero curvature
    drive_part = [
        sum(s.duration for s in simulate_sf_pulse(n, eps, gd).segments
            if s.kind == "C")
        for n in range(1, 6)
    ]
    second_diffs = np.diff(drive_part, n=2)
    assert np.allclose(second_diffs, 0.0, atol=1e-12)


def test_sf_pulse_validation():
    with pytest.raises(ValueError):
        simulate_sf_pulse(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        simulate_sf_pulse(2, 0.0, 0.1)
