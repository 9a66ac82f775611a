import numpy as np
import pytest
import scipy.sparse as sp

from jclattice.basis import LatticeShape, enumerate_basis
from jclattice.operators import (
    HamiltonianTemplates,
    build_coupling,
    build_correlator,
    build_hopping,
    build_translation,
    matvec,
    site_totals,
)
from jclattice.states import mi_ground_state, sf_ground_state

from conftest import index_of, kron_sector_hamiltonian, site_arrays


def max_abs(m):
    return 0.0 if m.nnz == 0 else np.abs(m.data).max()


def hamiltonian(table, g, J=0.0, delta=0.0):
    return HamiltonianTemplates(table).assemble_copy(g, J, delta)


def test_single_site_doublet_eigenvalues():
    table = enumerate_basis(LatticeShape(1, 1))
    h = hamiltonian(table, g=1.0)
    w = np.linalg.eigvalsh(h.toarray())
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_onsite_interaction_sign():
    # adding a second polariton costs more than the first: E(2,-) > 2 E(1,-)
    t1 = enumerate_basis(LatticeShape(1, 1))
    t2 = enumerate_basis(LatticeShape(1, 2))
    e1 = np.linalg.eigvalsh(hamiltonian(t1, g=1.0).toarray())[0]
    e2 = np.linalg.eigvalsh(hamiltonian(t2, g=1.0).toarray())[0]
    assert e2 > 2 * e1


def test_zero_coupling_is_diagonal():
    table = enumerate_basis(LatticeShape(2, 2))
    h = hamiltonian(table, g=0.0, delta=0.7)
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
    h0 = sp.diags(-0.3 * site_totals(table, table.keys)[0]) + 0.8 * build_coupling(table)
    diff = hamiltonian(table, g=0.8, J=0.0, delta=-0.3) - h0
    assert max_abs(diff.tocsr()) == 0.0


def test_exact_structural_symmetry():
    table = enumerate_basis(LatticeShape(3, 3))
    for m in (build_coupling(table), build_hopping(table),
              hamiltonian(table, g=1.0, J=0.37, delta=0.21)):
        diff = (m - m.T).tocsr()
        assert max_abs(diff) == 0.0


def test_translation_invariance_commutator():
    table = enumerate_basis(LatticeShape(3, 3))
    t = build_translation(table)
    for g, J, d in ((1.0, 0.2, 0.0), (0.5, 0.45, -0.8), (2.0, 0.0, 1.3)):
        h = hamiltonian(table, g=g, J=J, delta=d)
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


def test_deep_mott_ground_energy_at_unit_filling(table66, templates66):
    h = templates66.assemble_copy(1.0, 0.0, 0.0)
    psi = mi_ground_state(table66, 0.0, 1.0)
    energy = psi @ (h @ psi)
    assert energy == pytest.approx(-6.0, abs=1e-12)


def test_correlator_diagonal_is_photon_number():
    table = enumerate_basis(LatticeShape(3, 2))
    c11 = build_correlator(table, 1, 1)
    assert np.allclose(c11.diagonal(), site_arrays(table)[0][:, 0])


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
    templates = HamiltonianTemplates(enumerate_basis(LatticeShape(2, 2)))
    assert np.abs(templates.dissipative_rates(0.0, 0.0)).max() == 0.0


def test_dissipative_literal_all_down_qubit_contribution(table66, templates66):
    gamma = 0.4
    d = templates66.dissipative_rates(0.0, gamma, "literal-sigma-z")
    all_photons = index_of(table66, tuple((1, 0) for _ in range(6)))
    # sum sigma_z = -6 for all qubits down: the rate, H - i D, is -3 gamma
    assert d[all_photons] == pytest.approx(-3 * gamma)


def test_dissipative_number_conserving_photon_total(table66, templates66):
    kappa = 0.2
    d = templates66.dissipative_rates(kappa, 0.0, "number-conserving")
    one_each = index_of(table66, tuple((1, 0) for _ in range(6)))
    assert d[one_each] == pytest.approx(3 * kappa)


def test_dissipative_validation():
    templates = HamiltonianTemplates(enumerate_basis(LatticeShape(2, 2)))
    with pytest.raises(ValueError):
        templates.dissipative_rates(-0.1, 0.0)
    with pytest.raises(ValueError):
        templates.dissipative_rates(0.0, 0.0, "bogus")


def test_against_kron_product_oracle():
    for (L, N, g, J, d) in ((2, 2, 1.0, 0.3, 0.0), (2, 2, 0.7, 0.2, -0.4),
                            (3, 2, 1.0, 0.25, 0.5)):
        table = enumerate_basis(LatticeShape(L, N))
        mine = np.linalg.eigvalsh(hamiltonian(table, g=g, J=J, delta=d).toarray())
        oracle = np.linalg.eigvalsh(kron_sector_hamiltonian(L, N, g, J, d))
        assert np.allclose(mine, oracle, atol=1e-10)


def test_templates_match_direct_assembly(table33, templates33):
    direct = (sp.diags(-0.2 * site_totals(table33, table33.keys)[0])
              + 0.9 * build_coupling(table33) - 0.31 * build_hopping(table33))
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


def test_assemble_returns_a_matrix_its_caller_owns(templates33):
    tpl = templates33
    h1 = tpl.assemble(0.9, 0.31, -0.2)
    kept = h1.copy()
    h2 = tpl.assemble(1.0, 0.5, 0.0)
    tpl.assemble(0.2, 0.0, 1.5)
    assert h2 is not h1 and not np.shares_memory(h1.data, h2.data)
    assert np.array_equal(h1.data, kept.data)
    assert max_abs(h1 - kept) == 0.0


def test_matvec_is_bitwise_the_scipy_product(sector66):
    # the one use of scipy's private CSR kernel: a scipy release that
    # changes it fails here instead of drifting
    rng = np.random.default_rng(11)
    for tpl in (sector66, HamiltonianTemplates(enumerate_basis(LatticeShape(4, 4)))):
        h = tpl.assemble_copy(0.9, 0.31, -0.2)
        dissipative = h.astype(complex)
        dissipative.data[tpl.diag_positions] -= 0.2j * tpl.number_diag
        real = rng.standard_normal(tpl.dim)
        for m in (h, dissipative):
            for x in (real, real + 1j * rng.standard_normal(tpl.dim)):
                expected = m @ x
                out = np.full(tpl.dim, np.nan, dtype=expected.dtype)
                assert matvec(m, x, out) is out
                assert np.array_equal(out, expected)
    # the kernel itself would read or write past a short vector
    with pytest.raises(ValueError, match="needs x of shape"):
        matvec(h, real[:-1], np.empty(h.shape[0]))
    with pytest.raises(ValueError, match="needs x of shape"):
        matvec(h, real, np.empty(h.shape[0] - 1))
