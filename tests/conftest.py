import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from jclattice.basis import (BasisTable, LatticeShape, ResourceLimitError, SectorError,
                             enumerate_basis)
from jclattice.operators import (CANCELLED, HamiltonianTemplates, build_coupling,
                                 build_hopping, symmetric_sector)


def sparse(m) -> sp.csr_matrix:
    """A package matrix (`operators.Csr`) as a scipy CSR matrix of its own."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape, copy=True)


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


def _weights(table) -> np.ndarray:
    """Place value of each site's digit: site 0 is the most significant."""
    L = table.shape.sites
    return table.radix ** np.arange(L - 1, -1, -1, dtype=np.int64)


def site_arrays(table) -> tuple:
    """(dim, L) photon and qubit arrays of `table`, decoded from its keys:
    site j's digit s (N+1) + n, read left to right in radix 2N+2."""
    digits = table.keys[:, None] // _weights(table) % table.radix
    qubits, photons = np.divmod(digits, table.shape.excitations + 1)
    return photons, qubits


def keys_of(table, photons, qubits) -> np.ndarray:
    """Keys of configurations given as (..., L) photon and qubit arrays."""
    return (qubits * (table.shape.excitations + 1) + photons) @ _weights(table)


@functools.cache
def basis_states(table) -> tuple:
    """Configurations of `table` as tuples of per-site (photons, qubit) pairs."""
    photons, qubits = site_arrays(table)
    return tuple(
        tuple(zip(n, s))
        for n, s in zip(photons.tolist(), qubits.tolist())
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
    return int(table.rank(keys_of(table, photons, qubits)))


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


def dimension_oracle(shape: LatticeShape, product_cap: int = 1 << 26) -> int:
    """Count sector states by exhaustive filtering of the product space.

    Enumerates every photon configuration in {0..N}^L and every qubit
    configuration in {0,1}^L, keeping pairs whose total excitation number
    is exactly N. Independent of both `sector_dimension` and
    `enumerate_basis`; intended as a cross-check for small shapes.
    """
    L, N = shape.sites, shape.excitations
    total = (N + 1) ** L * 2**L
    if total > product_cap:
        raise ResourceLimitError(
            f"product space has {total} states, above cap {product_cap}"
        )
    photon_totals = np.indices((N + 1,) * L).reshape(L, -1).sum(axis=0)
    qubit_totals = np.indices((2,) * L).reshape(L, -1).sum(axis=0)
    qubit_hist = np.bincount(qubit_totals, minlength=N + 1)
    valid = photon_totals[photon_totals <= N]
    return int(qubit_hist[N - valid].sum())


def velocity_at_value(schedule, p: float, total_time: float) -> float:
    """dp/dt of a `RampSchedule` expressed as a function of the current value p.

    Signed form of the power-law derivative, exact for decreasing
    ramps: r |p-p0|^((r-1)/r) |pT-p0|^(1/r) sign(pT-p0) / T.
    At p = p0 the derivative is 0 for r > 1 and divergent (returned
    as signed inf) for r < 1.
    """
    p0, pT, r = schedule.start, schedule.stop, schedule.index
    if p0 == pT:
        return 0.0
    lo, hi = min(p0, pT), max(p0, pT)
    if not lo <= p <= hi:
        raise ValueError(f"p={p} outside ramp range [{lo}, {hi}]")
    sign = 1.0 if pT > p0 else -1.0
    if p == p0:
        if r > 1.0:
            return 0.0
        if r < 1.0:
            return sign * math.inf
    return (
        r
        * abs(p - p0) ** ((r - 1.0) / r)
        * abs(pT - p0) ** (1.0 / r)
        * sign
        / total_time
    )


PARAM_IDS = ("g", "J", "delta")


@dataclass(frozen=True)
class SweepRate:
    """Hamiltonian sweeping rate <dH/dt> decomposed at the gap."""

    total: float
    velocities: dict
    ratio_g_over_j: float | None
    ratio_g_over_j_trajectory: float | None


def sweep_rate_at_gap(plan, gap_params, partials: dict) -> SweepRate:
    """H'_gp = sum_p p'(p_gp) <dH/dp>_gp from ground-state partials.

    `partials` maps parameter ids to <dH/dp> at the gap: for this model
    I_J = -<hopping>, I_g = <coupling>, I_delta = <total photon number>.
    Also reports g'/J' both directly and through the trajectory identity
    g'/J' = (r_g/r_J) (g_gp - g0) / (J_gp - J0), which must agree whenever
    both parameters vary.
    """
    values = {"g": gap_params.g, "J": gap_params.J, "delta": gap_params.delta}
    velocities = {}
    total = 0.0
    for name in PARAM_IDS:
        sched = getattr(plan, name)
        v = velocity_at_value(sched, values[name], plan.total_time)
        velocities[name] = v
        if v != 0.0:
            if name not in partials:
                raise KeyError(f"missing <dH/d{name}> for varying parameter")
            total += v * partials[name]

    ratio = ratio_traj = None
    if plan.J.varies and velocities["J"] != 0.0 and plan.g.varies:
        ratio = velocities["g"] / velocities["J"]
        ratio_traj = (
            (plan.g.index / plan.J.index)
            * (values["g"] - plan.g.start)
            / (values["J"] - plan.J.start)
        )
    return SweepRate(total, velocities, ratio, ratio_traj)


# --- the P^T B P oracle of the dihedral blocks --------------------------------
# The blocks as built before they came from orbit representatives: every
# state's images, the isometry P onto each block, and P^T B P of the
# full-space operators.

def dihedral_images(table: BasisTable) -> np.ndarray:
    """(2L, dim) int32 table of every state's images under the dihedral
    group: row m holds T^m x and row L + m holds R T^m x for each state x,
    where T moves every site's content one site down, j + 1 -> j (the
    inverse of `build_translation`), and R mirrors j -> L-1-j."""
    L = table.shape.sites
    photons, qubits = site_arrays(table)
    shift = table.rank(keys_of(table, np.roll(photons, -1, axis=1),
                               np.roll(qubits, -1, axis=1)))
    mirror = table.rank(keys_of(table, photons[:, ::-1], qubits[:, ::-1]))
    shift, mirror = shift.astype(np.int32), mirror.astype(np.int32)
    images = np.empty((2 * L, table.dim), dtype=np.int32)
    images[0] = np.arange(table.dim)
    for m in range(1, L):
        images[m] = shift[images[m - 1]]
    images[L:] = mirror[images[:L]]
    return images


def block_isometries(table: BasisTable, blocks) -> list[sp.csr_matrix]:
    """Isometry P (dim x d) onto each block's states, columns by orbit.

    The images come from `dihedral_images`: row m is T^m x and row L + m
    is R T^m x. An orbit is labelled by its smallest index, the minimum of
    its states' columns. The orbit of label a gives the column
    (1 + p R) sum_m cos(k m) T^m a, and for a two-dimensional irrep also
    (1 + R) sum_m sin(k m) T^m a, unless R a lies in the translation orbit
    of a, where the two are parallel. Each column counts the table's
    entries in the labels' columns, weighted by one character per row and
    divided by the number of rows that reach each state; it vanishes
    unless k times the period of a is a multiple of 2 pi. Columns are
    normalised; a one-dimensional block's entries are +-1 / sqrt(orbit
    size). P^T B P restricts any B that commutes with the group.
    """
    images = dihedral_images(table)
    dim, sites = table.dim, table.shape.sites
    rep = images[:sites].min(axis=0)  # translation orbits
    label = images.min(axis=0)
    reps = np.flatnonzero(label == images[0])
    self_mirror = rep[images[sites, reps]] == reps
    reached = images[:, reps].ravel()
    count = np.bincount(reached, minlength=dim)  # rows reaching each state
    column = np.empty(dim, dtype=np.intp)
    column[reps] = np.arange(len(reps))
    column = column[label]  # each state's orbit

    def columns(block):
        q, L, width = block.q, block.sites, block.multiplicity
        angle = 2 * np.pi * ((q * np.arange(sites)) % L) / L
        coef = np.empty((dim, width))
        for k, (c, p) in enumerate([(np.cos(angle), block.parity),
                                    (np.sin(angle), 1)][:width]):
            chi = np.concatenate([c, p * c])
            coef[:, k] = np.bincount(reached, np.repeat(chi, len(reps)), dim) / count
        coef[np.abs(coef) < CANCELLED] = 0.0
        col = width * column[:, None] + np.arange(width)
        norm2 = np.bincount(col.ravel(), (coef * coef).ravel(), width * len(reps))
        nonzero = norm2 > 0
        if width == 2:  # where R a is a translate of a, one column
            nonzero[1::2] &= ~(self_mirror & nonzero[0::2])
        kept = (coef != 0) & nonzero[col]
        col = col[kept]
        return sp.csr_matrix(
            (coef[kept] / np.sqrt(norm2[col]),
             (np.cumsum(nonzero) - 1)[col],
             np.concatenate(([0], np.cumsum(kept.sum(axis=1))))),
            shape=(dim, int(nonzero.sum())),
        )

    return [columns(block) for block in blocks]


def restricted(block, isometry) -> sp.csr_matrix:
    """P^T B P of a symmetric block, symmetrised to the last bit."""
    m = (isometry.T @ block @ isometry).tocsr()
    m = ((m + m.T) * 0.5).tocsr()
    m.sort_indices()
    return m


def oracle_blocks(table: BasisTable, blocks) -> list[tuple]:
    """(P, number diagonal, qubit-up diagonal, coupling, hopping) of each
    block, restricted as P^T B P from the full-space operators."""
    full = (sparse(build_coupling(table)), sparse(build_hopping(table)))
    photons, qubits = site_arrays(table)
    out = []
    for p in block_isometries(table, blocks):
        csc = p.tocsc()
        first = csc.indices[csc.indptr[:-1]]  # a state of each column
        out.append((p, photons.sum(axis=1)[first].astype(float),
                    qubits.sum(axis=1)[first].astype(float),
                    *(restricted(b, p) for b in full)))
    return out
