import itertools

import numpy as np
import pytest

from jclattice import basis, operators
from jclattice.basis import (
    LatticeShape,
    ResourceLimitError,
    SectorError,
    enumerate_basis,
    sector_dimension,
    write_basis_text,
)
from jclattice.operators import (HamiltonianTemplates, build_correlator, build_coupling,
                                 build_hopping, build_translation, symmetric_sector)

from conftest import (basis_states, dimension_oracle, index_of, keys_of, site_arrays,
                      translate_config)


def test_unit_filling_six_sites_dimension():
    table = enumerate_basis(LatticeShape(6, 6))
    assert table.dim == 5336


def test_vacuum_single_site():
    table = enumerate_basis(LatticeShape(1, 0))
    assert table.dim == 1
    assert basis_states(table) == (((0, 0),),)


def test_single_site_doublet_order():
    table = enumerate_basis(LatticeShape(1, 1))
    assert table.dim == 2
    # qubit-down sorts first: (1, down) then (0, up)
    assert basis_states(table) == (((1, 0),), ((0, 1),))
    assert index_of(table, ((1, 0),)) == 0
    assert index_of(table, ((0, 1),)) == 1


def test_two_sites_one_excitation_dimension():
    shape = LatticeShape(2, 1)
    assert enumerate_basis(shape).dim == 4
    assert dimension_oracle(shape) == 4


def test_round_trip_bijection():
    table = enumerate_basis(LatticeShape(3, 2))
    for i, config in enumerate(basis_states(table)):
        assert index_of(table, config) == i
    assert len(set(basis_states(table))) == table.dim


def test_index_of_rejects_wrong_sector():
    table = enumerate_basis(LatticeShape(1, 1))
    with pytest.raises(SectorError):
        index_of(table, ((0, 0),))
    with pytest.raises(SectorError):
        index_of(table, ((1, 1),))
    with pytest.raises(SectorError):
        index_of(table, ((1, 0), (0, 0)))


def test_every_row_has_exact_excitation_count():
    for L, N in ((2, 3), (3, 3), (4, 2)):
        table = enumerate_basis(LatticeShape(L, N))
        photons, qubits = site_arrays(table)
        totals = photons.sum(axis=1) + qubits.sum(axis=1)
        assert (totals == N).all()


def test_enumeration_matches_oracle_small_shapes():
    for L in range(1, 5):
        for N in range(0, 5):
            shape = LatticeShape(L, N)
            assert enumerate_basis(shape).dim == dimension_oracle(shape)


def test_oracle_reference_values_and_frozen_regression():
    assert dimension_oracle(LatticeShape(6, 6)) == 5336
    assert dimension_oracle(LatticeShape(1, 1)) == 2
    # frozen output of the exhaustive filter, see also closed form
    assert dimension_oracle(LatticeShape(3, 3)) == 38
    assert sector_dimension(LatticeShape(3, 3)) == 38


def test_translate_identity_and_periodicity():
    config = ((1, 0), (0, 1), (2, 0))
    assert translate_config(config, 0) == config
    assert translate_config(config, 3) == config
    assert translate_config(((1, 0), (0, 1)), 1) == ((0, 1), (1, 0))


def test_translate_is_basis_permutation():
    table = enumerate_basis(LatticeShape(3, 3))
    for shift in range(3):
        shifted = {translate_config(c, shift) for c in basis_states(table)}
        assert shifted == set(basis_states(table))


def test_translate_preserves_excitations():
    config = ((2, 1), (0, 0), (1, 1))
    out = translate_config(config, 2)
    assert sum(n + s for n, s in out) == sum(n + s for n, s in config)


def test_dimension_cap(monkeypatch):
    # the cap is on what a run builds: a symmetry block, or the full basis
    # for the full-space builders; enumerating the keys has its own bound
    monkeypatch.setattr(basis, "DEFAULT_DIM_CAP", 1000)
    table = enumerate_basis(LatticeShape(6, 6))  # 5336 keys

    def decoded(*args):
        raise AssertionError("keys decoded before the cap check")

    with monkeypatch.context() as late:  # refused before any move is built
        for name in ("site_totals", "coupling_moves", "photon_moves"):
            late.setattr(operators, name, decoded)
        for build in (HamiltonianTemplates, build_coupling, build_hopping,
                      build_translation, lambda t: build_correlator(t, 1, 4)):
            with pytest.raises(ResourceLimitError):
                build(table)
    assert symmetric_sector(table).dim == 500
    monkeypatch.setattr(basis, "DEFAULT_DIM_CAP", 400)
    with pytest.raises(ResourceLimitError):
        symmetric_sector(table)
    monkeypatch.setattr(basis, "ENUMERATION_BYTE_CAP",
                        5336 * basis.ENUMERATION_BYTES_PER_KEY - 1)
    with pytest.raises(ResourceLimitError):
        enumerate_basis(LatticeShape(6, 6))
    with pytest.raises(ResourceLimitError):
        dimension_oracle(LatticeShape(12, 12), product_cap=10_000)


def test_enumeration_bound_admits_nine_sites_and_refuses_eleven():
    # refused from the predicted count, before anything is allocated
    for L, admitted in ((9, True), (10, True), (11, False)):
        bytes_needed = (basis.sector_dimension(LatticeShape(L, L))
                        * basis.ENUMERATION_BYTES_PER_KEY)
        assert (bytes_needed <= basis.ENUMERATION_BYTE_CAP) == admitted
    with pytest.raises(ResourceLimitError):
        enumerate_basis(LatticeShape(11, 11))


@pytest.mark.parametrize("L,N", [(1, 0), (1, 3), (2, 2), (3, 3), (4, 2), (3, 5)])
def test_keys_equal_a_digit_built_reference(L, N):
    # every digit string s (N+1) + n in lexicographic order, kept when it
    # holds N excitations, read left to right in radix 2N+2
    table = enumerate_basis(LatticeShape(L, N))
    digits = np.array([d for d in itertools.product(range(2 * N + 2), repeat=L)
                       if sum(x // (N + 1) + x % (N + 1) for x in d) == N])
    keys = [sum(int(x) * (2 * N + 2) ** (L - 1 - j) for j, x in enumerate(d))
            for d in digits]
    assert table.keys.tolist() == keys
    assert table.keys.dtype == np.int64 and not table.keys.flags.writeable
    for j in range(L):
        photons, qubits = table.occupation(table.keys, j)
        assert np.array_equal(photons, digits[:, j] % (N + 1))
        assert np.array_equal(qubits, digits[:, j] // (N + 1))
    # moving every site's content: np.roll and reversal of the digit strings
    photons, qubits = digits % (N + 1), digits // (N + 1)
    for shift in (1, -1):
        assert np.array_equal(table.rolled(table.keys, shift), keys_of(
            table, np.roll(photons, shift, axis=1), np.roll(qubits, shift, axis=1)))
    assert np.array_equal(table.mirrored(table.keys),
                          keys_of(table, photons[:, ::-1], qubits[:, ::-1]))


def test_serialization_is_stable(tmp_path):
    shape = LatticeShape(3, 2)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_basis_text(enumerate_basis(shape), p1)
    write_basis_text(enumerate_basis(shape), p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "# L=3 N=2 dim=18"
    assert len(lines) == 19
    # first row in (qubit, photons) order: all excitations as photons on site 3
    assert lines[1] == "0 0 0 0 2 0"


@pytest.mark.parametrize("shape", [LatticeShape(3, 3), LatticeShape(2, 11)], ids=str)
def test_basis_text_is_the_configurations_line_by_line(tmp_path, shape):
    # the format as first written from the configuration tuples; N = 11
    # has two-digit photon counts
    table = enumerate_basis(shape)
    write_basis_text(table, tmp_path / "basis.txt")
    expected = f"# L={shape.sites} N={shape.excitations} dim={table.dim}\n" + "".join(
        " ".join(f"{n} {s}" for n, s in config) + "\n"
        for config in basis_states(table))
    assert (tmp_path / "basis.txt").read_bytes() == expected.encode("ascii")


def test_shape_validation():
    with pytest.raises(ValueError):
        LatticeShape(0, 1)
    with pytest.raises(ValueError):
        LatticeShape(2, -1)
