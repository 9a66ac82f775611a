import functools

import numpy as np
import pytest

from jclattice.basis import LatticeShape, SectorError, enumerate_basis
from jclattice.operators import HamiltonianTemplates, symmetric_sector


@pytest.fixture(scope="session")
def table33():
    return enumerate_basis(LatticeShape(3, 3))


@pytest.fixture(scope="session")
def templates33(table33):
    return HamiltonianTemplates(table33)


@pytest.fixture(scope="session")
def table66():
    return enumerate_basis(LatticeShape(6, 6))


@pytest.fixture(scope="session")
def templates66(table66):
    return HamiltonianTemplates(table66)


@pytest.fixture(scope="session")
def sector33(table33):
    return symmetric_sector(table33)


@pytest.fixture(scope="session")
def sector66(table66):
    return symmetric_sector(table66)


@functools.cache
def basis_states(table) -> tuple:
    """Configurations of `table` as tuples of per-site (photons, qubit) pairs."""
    return tuple(
        tuple(zip(n, s))
        for n, s in zip(table.photons.tolist(), table.qubits.tolist())
    )


def index_of(table, config) -> int:
    """Ordinal of `config` in the table; inverse of `basis_states(table)[i]`."""
    config = tuple((int(n), int(s)) for n, s in config)
    if len(config) != table.shape.sites:
        raise SectorError(
            f"config has {len(config)} sites, table has {table.shape.sites}"
        )
    N = table.shape.excitations
    total = sum(n + s for n, s in config)
    if total != N:
        raise SectorError(
            f"config holds {total} excitations, sector requires {N}"
        )
    if any(not (0 <= n <= N and s in (0, 1)) for n, s in config):
        raise SectorError(f"malformed configuration {config}")
    photons, qubits = np.array(config, dtype=np.int64).T
    return int(table.rank(table.key_of(photons, qubits)))


def translate_config(config, shift: int):
    """Cyclic site shift under the periodic boundary.

    Site j of the output equals site (j - shift) mod L of the input, so
    shift = L (or any multiple) is the identity.
    """
    config = tuple(config)
    L = len(config)
    shift %= L
    return tuple(config[(j - shift) % L] for j in range(L))


def kron_sector_hamiltonian(L, N, g, J, delta):
    """Independent dense oracle: build Eq.-style H on the full product
    space (photon cutoff N) with Kronecker products, then cut the fixed-N
    sector. Returns (H_sector, excitation-sorted basis index order is NOT
    matched to the package; use eigenvalues only)."""
    a = np.diag(np.sqrt(np.arange(1, N + 1)), 1)
    nph = np.diag(np.arange(N + 1.0))
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma^-, basis (down, up)
    qup = np.diag([0.0, 1.0])
    site_dim = (N + 1) * 2

    def site_op(op_ph, op_q, j):
        out = np.array([[1.0]])
        for k in range(L):
            out = np.kron(out, np.kron(op_ph, op_q) if k == j else np.eye(site_dim))
        return out

    dim = site_dim**L
    h = np.zeros((dim, dim))
    for j in range(L):
        h += delta * site_op(nph, np.eye(2), j)
        h += g * (site_op(a.T, sm, j) + site_op(a, sm.T, j))
    if L > 1:
        for j in range(L):
            jp = (j + 1) % L
            hop = site_op(a.T, np.eye(2), j) @ site_op(a, np.eye(2), jp)
            h += -J * (hop + hop.T)
    tot = np.zeros(dim)
    for j in range(L):
        tot += np.diag(site_op(nph, np.eye(2), j) + site_op(np.eye(N + 1), qup, j))
    mask = np.isclose(tot, N)
    return h[np.ix_(mask, mask)]
