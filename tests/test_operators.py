import numpy as np
import pytest
import scipy.sparse as sp

from jclattice.basis import LatticeShape, enumerate_basis, index_of
from jclattice.operators import (
    HamiltonianTemplates,
    LatticeParams,
    build_coupling,
    build_correlator,
    build_dissipative_diagonal,
    build_h0,
    build_hamiltonian,
    build_hopping,
    build_translation,
    dissipative_rates,
    number_diagonal,
)
from jclattice.states import mi_ground_state, sf_ground_state

from conftest import kron_sector_hamiltonian


def max_abs(m):
    return 0.0 if m.nnz == 0 else np.abs(m.data).max()


def test_single_site_doublet_eigenvalues():
    table = enumerate_basis(LatticeShape(1, 1))
    h = build_h0(table, LatticeParams(g=1.0, delta=0.0))
    w = np.linalg.eigvalsh(h.toarray())
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_onsite_interaction_sign():
    # adding a second polariton costs more than the first: E(2,-) > 2 E(1,-)
    t1 = enumerate_basis(LatticeShape(1, 1))
    t2 = enumerate_basis(LatticeShape(1, 2))
    e1 = np.linalg.eigvalsh(build_h0(t1, LatticeParams(g=1.0)).toarray())[0]
    e2 = np.linalg.eigvalsh(build_h0(t2, LatticeParams(g=1.0)).toarray())[0]
    assert e2 > 2 * e1


def test_zero_coupling_is_diagonal():
    table = enumerate_basis(LatticeShape(2, 2))
    h = build_h0(table, LatticeParams(g=0.0, delta=0.7))
    off = h - sp.diags(h.diagonal())
    assert max_abs(off.tocsr()) == 0.0


def test_single_site_hopping_is_zero():
    table = enumerate_basis(LatticeShape(1, 2))
    assert build_hopping(table).nnz == 0


def test_two_site_bond_is_doubled():
    # periodic indexing over j = 1, 2 hits the single bond twice
    table = enumerate_basis(LatticeShape(2, 1))
    hop = build_hopping(table)
    a = index_of(table, ((1, 0), (0, 0)))
    b = index_of(table, ((0, 0), (1, 0)))
    assert hop[a, b] == pytest.approx(2.0)
    assert hop[b, a] == pytest.approx(2.0)


def test_three_site_single_hop_element():
    table = enumerate_basis(LatticeShape(3, 1))
    hop = build_hopping(table)
    src = index_of(table, ((1, 0), (0, 0), (0, 0)))
    dst = index_of(table, ((0, 0), (1, 0), (0, 0)))
    assert hop[dst, src] == pytest.approx(1.0)


def test_bosonic_matrix_elements_sqrt_n():
    # single-site coupling block: <n-1, up| a sigma^+ |n, down> = sqrt(n)
    for n in range(1, 5):
        table = enumerate_basis(LatticeShape(1, n))
        coup = build_coupling(table)
        src = index_of(table, ((n, 0),))
        dst = index_of(table, ((n - 1, 1),))
        assert coup[dst, src] == pytest.approx(np.sqrt(n))


def test_hamiltonian_reduces_to_h0_without_hopping():
    table = enumerate_basis(LatticeShape(3, 2))
    params = LatticeParams(g=0.8, J=0.0, delta=-0.3)
    diff = build_hamiltonian(table, params) - build_h0(table, params)
    assert max_abs(diff.tocsr()) == 0.0


def test_exact_structural_symmetry():
    table = enumerate_basis(LatticeShape(3, 3))
    for m in (build_coupling(table), build_hopping(table),
              build_hamiltonian(table, LatticeParams(g=1.0, J=0.37, delta=0.21))):
        diff = (m - m.T).tocsr()
        assert max_abs(diff) == 0.0


def test_translation_invariance_commutator():
    table = enumerate_basis(LatticeShape(3, 3))
    t = build_translation(table)
    for g, J, d in ((1.0, 0.2, 0.0), (0.5, 0.45, -0.8), (2.0, 0.0, 1.3)):
        h = build_hamiltonian(table, LatticeParams(g=g, J=J, delta=d))
        comm = (h @ t - t @ h).tocsr()
        assert max_abs(comm) < 1e-12


def test_translation_is_orthogonal_permutation():
    table = enumerate_basis(LatticeShape(4, 2))
    t = build_translation(table)
    eye = t.T @ t
    assert np.allclose(eye.toarray(), np.eye(table.dim))
    power = t.copy()
    for _ in range(3):
        power = t @ power
    assert np.allclose(power.toarray(), np.eye(table.dim))


def test_translation_fixes_uniform_product_state():
    table = enumerate_basis(LatticeShape(3, 3))
    t = build_translation(table)
    psi = mi_ground_state(table, 0.0, 1.0)
    assert np.allclose(t @ psi, psi, atol=1e-15)


def test_deep_mott_ground_energy_at_unit_filling(table66):
    h = build_hamiltonian(table66, LatticeParams(g=1.0, J=0.0, delta=0.0))
    psi = mi_ground_state(table66, 0.0, 1.0)
    energy = psi @ (h @ psi)
    assert energy == pytest.approx(-6.0, abs=1e-12)


def test_correlator_diagonal_is_photon_number():
    table = enumerate_basis(LatticeShape(3, 2))
    c11 = build_correlator(table, 1, 1)
    assert np.allclose(c11.diagonal(), table.photons[:, 0])


def test_correlator_vanishes_in_mott_state(table66):
    corr = build_correlator(table66, 1, 4)
    psi = mi_ground_state(table66, 0.0, 1.0)
    assert abs(psi @ (corr @ psi)) < 1e-14


def test_correlator_condensate_value():
    # direct contraction of the multinomial condensate: <a1+ a2> = N/L = 1
    table = enumerate_basis(LatticeShape(2, 2))
    corr = build_correlator(table, 1, 2)
    psi = sf_ground_state(table)
    assert psi @ (corr @ psi) == pytest.approx(1.0, abs=1e-14)


def test_correlator_site_bounds():
    table = enumerate_basis(LatticeShape(2, 1))
    with pytest.raises(ValueError):
        build_correlator(table, 0, 1)
    with pytest.raises(ValueError):
        build_correlator(table, 1, 3)


def test_sector_closure_no_out_of_sector_indices():
    # structural excitation conservation: every operator maps the sector
    # onto itself, so every stored column/row index is a valid ordinal
    table = enumerate_basis(LatticeShape(3, 3))
    for m in (build_coupling(table), build_hopping(table),
              build_correlator(table, 1, 3), build_translation(table)):
        coo = m.tocoo()
        assert coo.row.min() >= 0 and coo.row.max() < table.dim
        assert coo.col.min() >= 0 and coo.col.max() < table.dim


def test_dissipative_zero_rates_is_zero_operator():
    table = enumerate_basis(LatticeShape(2, 2))
    d = build_dissipative_diagonal(table, 0.0, 0.0)
    assert max_abs(d.tocsr()) == 0.0


def test_dissipative_literal_all_down_qubit_contribution():
    table = enumerate_basis(LatticeShape(6, 6))
    gamma = 0.4
    d = build_dissipative_diagonal(table, 0.0, gamma, "literal-sigma-z")
    all_photons = index_of(table, tuple((1, 0) for _ in range(6)))
    # sum sigma_z = -6 for all qubits down: entry is +3i*gamma
    assert d.diagonal()[all_photons] == pytest.approx(3j * gamma)


def test_dissipative_number_conserving_photon_total():
    table = enumerate_basis(LatticeShape(6, 6))
    kappa = 0.2
    d = build_dissipative_diagonal(table, kappa, 0.0, "number-conserving")
    one_each = index_of(table, tuple((1, 0) for _ in range(6)))
    assert d.diagonal()[one_each] == pytest.approx(-3j * kappa)


def test_dissipative_validation():
    table = enumerate_basis(LatticeShape(2, 2))
    with pytest.raises(ValueError):
        dissipative_rates(table, -0.1, 0.0)
    with pytest.raises(ValueError):
        dissipative_rates(table, 0.0, 0.0, "bogus")


def test_lattice_params_frequencies():
    p = LatticeParams(g=1.0, omega_c=5.0, omega_z=5.5)
    assert p.delta == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        LatticeParams(g=1.0, omega_c=5.0)


def test_h0_with_explicit_frequencies_adds_constant():
    table = enumerate_basis(LatticeShape(2, 2))
    base = build_h0(table, LatticeParams(g=1.0, delta=-0.5))
    lifted = build_h0(table, LatticeParams(g=1.0, omega_c=5.0, omega_z=5.5))
    diff = (lifted - base).tocsr()
    offdiag = diff - sp.diags(diff.diagonal())
    assert max_abs(offdiag.tocsr()) == 0.0
    assert np.allclose(diff.diagonal(), 5.5 * 2)


def test_against_kron_product_oracle():
    for (L, N, g, J, d) in ((2, 2, 1.0, 0.3, 0.0), (2, 2, 0.7, 0.2, -0.4),
                            (3, 2, 1.0, 0.25, 0.5)):
        table = enumerate_basis(LatticeShape(L, N))
        mine = np.linalg.eigvalsh(
            build_hamiltonian(table, LatticeParams(g=g, J=J, delta=d)).toarray()
        )
        oracle = np.linalg.eigvalsh(kron_sector_hamiltonian(L, N, g, J, d))
        assert np.allclose(mine, oracle, atol=1e-10)


def test_templates_match_direct_assembly(table33, templates33):
    params = LatticeParams(g=0.9, J=0.31, delta=-0.2)
    direct = build_hamiltonian(table33, params)
    templated = templates33.assemble_copy(0.9, 0.31, -0.2)
    assert max_abs((direct - templated).tocsr()) < 1e-15


def test_data_for_into_a_buffer_is_bitwise_the_expression(templates66):
    t = templates66
    buf = np.full(t.data_number.size, np.nan)
    for g, J, delta in [(0.9, 0.31, -0.2), (1.0, 0.5, 0.0), (1 / 3, -0.07, 2.5)]:
        expected = delta * t.data_number + g * t.data_coupling - J * t.data_hopping
        assert t.data_for(g, J, delta, out=buf) is buf
        assert np.array_equal(buf, expected)
        assert np.array_equal(t.data_for(g, J, delta), expected)
        assert np.array_equal(t.assemble(g, J, delta).data, expected)


def test_operator_dump_roundtrip(tmp_path, table33):
    # coordinate-list text dump for cross-implementation checks
    from jclattice.operators import write_operator_text

    h = build_hamiltonian(table33, LatticeParams(g=1.0, J=0.1))
    path = tmp_path / "h.txt"
    write_operator_text(h, path)
    rows, cols, vals = [], [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        r, c, v = line.split()
        rows.append(int(r)), cols.append(int(c)), vals.append(float(v))
    rebuilt = sp.csr_matrix((vals, (rows, cols)), shape=h.shape)
    assert max_abs((rebuilt - h).tocsr()) == 0.0
