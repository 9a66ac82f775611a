"""Sparse operators over the fixed-excitation sector.

Energy convention: inside a fixed-N sector the bare frequencies only add
the constant N*omega_z, so the Hamiltonian is assembled as

    H = Delta * sum_j n_j
        + g * sum_j (a_j^dag sig_j^- + sig_j^+ a_j)
        - J * sum_j (a_j^dag a_{j+1} + a_{j+1}^dag a_j),

with Delta = omega_c - omega_z. This reproduces the single-site doublet
energies E(n, +/-) = (n - 1/2) * Delta +/- chi(n) / 2 measured from the
empty-site level.

All Hermitian builders insert mirrored (row, col) / (col, row) entries
with identical values, so the assembled matrices equal their transpose
exactly, not merely to rounding.

The builders work on whole arrays of configurations: each one shifts the
configuration keys of every state it acts on and ranks the results with
`BasisTable.rank`. `dihedral_images` tabulates the image of every state
under each element of the dihedral group that the translation and the
mirror j -> L-1-j generate, and `block_isometries` sums each real
block's characters over that table into the isometry P onto the block
(`Block`: momentum and mirror parity; character-weighted orbit sums as
in Sandvik, AIP Conf. Proc. 1297, 135 (2010), sec. 4). `block_sectors`
builds `HamiltonianTemplates` on every block (operators P^T B P), and
`symmetric_sector` on the (0, +) one, k = 0 and mirror-even: 500 of the
5336 states at six sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .basis import BasisTable

DISSIPATION_CONVENTIONS = ("literal-sigma-z", "number-conserving")
CANCELLED = 1e-9  # an isometry entry below this is a cancelled orbit sum


@dataclass(frozen=True)
class LatticeParams:
    """Dimensionless couplings of the lattice, in units of the g reference."""

    g: float
    J: float = 0.0
    delta: float = 0.0


def matvec(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = m @ x for a CSR m, bit for bit; `out` has the dtype of m @ x.
    scipy's kernel under `@` without its dispatch, checks and new array,
    which cost more than the product at a few hundred states. The one use
    of the private `csr_matvec` (the tests compare it with `@`); it trusts
    the lengths it is given, so they are checked here."""
    rows, cols = m.shape
    if x.shape != (cols,) or out.shape != (rows,):
        raise ValueError(f"matvec of a {rows}x{cols} matrix needs x of shape ({cols},)"
                         f" and out of ({rows},), got {x.shape} and {out.shape}")
    out.fill(0)  # the kernel adds m @ x to out
    csr_matvec(rows, cols, m.indptr, m.indices, m.data, x, out)
    return out


def number_diagonal(table: BasisTable) -> np.ndarray:
    """Diagonal of sum_j a_j^dag a_j as a dense vector."""
    return table.photons.sum(axis=1).astype(float)


def qubit_up_diagonal(table: BasisTable) -> np.ndarray:
    """Diagonal of sum_j (sigma_jz + 1)/2 (number of excited qubits)."""
    return table.qubits.sum(axis=1).astype(float)


def build_coupling(table: BasisTable) -> sp.csr_matrix:
    """sum_j (a_j^dag sig_j^- + sig_j^+ a_j) = dH/dg."""
    states, sites = np.nonzero(table.qubits)
    n = table.photons[states, sites]
    flipped = table.rank(
        table.keys[states] + table.key_shift(sites, photons=1, qubits=-1)
    )
    return _mirrored(flipped, states, np.sqrt(n + 1), table.dim)


def build_hopping(table: BasisTable) -> sp.csr_matrix:
    """sum_j (a_j^dag a_{j+1} + a_{j+1}^dag a_j) with periodic boundary.

    The -J factor is applied at composition time. For L = 1 this is the
    zero operator (a periodic wrap onto the same site is unphysical);
    for L = 2 the sum over j = 1, 2 hits the single bond twice, giving
    matrix elements of 2 between one-photon-exchange configurations.
    """
    L = table.shape.sites
    if L == 1:
        return sp.csr_matrix((table.dim, table.dim))
    dst = np.arange(L)
    src = (dst + 1) % L
    states, bonds = np.nonzero(table.photons[:, src])
    moved = _photon_moved(table, states, src[bonds], dst[bonds])
    return _mirrored(*moved, table.dim)


def _photon_moved(table, states, src, dst):
    """Targets, sources and amplitudes of a_dst^dag a_src on `states`."""
    n_from = table.photons[states, src]
    n_to = table.photons[states, dst]
    targets = table.rank(table.keys[states] + table.key_shift(src, photons=-1)
                         + table.key_shift(dst, photons=1))
    return targets, states, np.sqrt(n_from) * np.sqrt(n_to + 1)


def _mirrored(rows, cols, vals, dim) -> sp.csr_matrix:
    """Symmetric matrix from one triangle's (row, col, value) entries."""
    m = sp.csr_matrix(
        (np.concatenate([vals, vals]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(dim, dim),
    )
    m.sum_duplicates()
    m.sort_indices()
    return m


def build_correlator(table: BasisTable, i: int, j: int) -> sp.csr_matrix:
    """a_i^dag a_j for 1-based sites i, j (sector-closed since i != j moves
    one photon and i == j is the site photon number)."""
    L = table.shape.sites
    if not (1 <= i <= L and 1 <= j <= L):
        raise ValueError(f"sites must be in 1..{L}, got ({i}, {j})")
    si, sj = i - 1, j - 1
    dim = table.dim
    if si == sj:
        return sp.diags(table.photons[:, si].astype(float), format="csr")
    states = np.flatnonzero(table.photons[:, sj])
    rows, cols, vals = _photon_moved(table, states, sj, si)
    m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    m.sort_indices()
    return m


def build_translation(table: BasisTable) -> sp.csr_matrix:
    """Permutation matrix T shifting every configuration by one site."""
    rows = table.rank(table.key_of(np.roll(table.photons, 1, axis=1),
                                   np.roll(table.qubits, 1, axis=1)))
    return sp.csr_matrix(
        (np.ones(table.dim), (rows, np.arange(table.dim))),
        shape=(table.dim, table.dim),
    )


def dihedral_images(table: BasisTable) -> np.ndarray:
    """(2L, dim) int32 table of every state's images under the dihedral
    group: row m holds T^m x and row L + m holds R T^m x for each state x,
    where T moves every site's content one site down, j + 1 -> j (the
    inverse of `build_translation`), and R mirrors j -> L-1-j."""
    L = table.shape.sites
    shift = table.rank(table.key_of(np.roll(table.photons, -1, axis=1),
                                    np.roll(table.qubits, -1, axis=1)))
    mirror = table.rank(table.key_of(table.photons[:, ::-1], table.qubits[:, ::-1]))
    shift, mirror = shift.astype(np.int32), mirror.astype(np.int32)
    images = np.empty((2 * L, table.dim), dtype=np.int32)
    images[0] = np.arange(table.dim)
    for m in range(1, L):
        images[m] = shift[images[m - 1]]
    images[L:] = mirror[images[:L]]
    return images


class Block(NamedTuple):
    """A real block of the dihedral group of a ring of `sites` sites.

    It holds the states of momentum +-2 pi q / L that are even (`parity` 1)
    or odd (-1) under the mirror (Sandvik, AIP Conf. Proc. 1297, 135
    (2010), sec. 4). At q = 0 and q = L/2 that is a one-dimensional irrep;
    for 0 < q < L/2 it is the cosine row of the two-dimensional irrep,
    whose levels each occur twice in the full spectrum (`multiplicity`).
    `Block()` is the fully symmetric sector, k = 0 and mirror-even.
    """

    q: int = 0
    parity: int = 1
    sites: int = 1

    @property
    def multiplicity(self) -> int:
        return 1 if (2 * self.q) % self.sites == 0 else 2


def dihedral_blocks(sites: int) -> list[Block]:
    """Every real block of the ring's dihedral group, (0, +) first."""
    return [Block(q, parity, sites) for q in range(sites // 2 + 1)
            for parity in ((1, -1) if (2 * q) % sites == 0 else (1,))]


def symmetric_isometry(translation) -> sp.csr_matrix:
    """Isometry P (dim x d) onto the k = 0 states of the permutation matrix
    `translation`: P P^T is the average over its powers. An orbit is
    labelled by its smallest index, spread along the permutation until it
    settles; column c is the normalised sum over the c-th orbit by label."""
    m = sp.csr_matrix(translation, copy=True)
    m.sum_duplicates()
    dim = m.shape[0]
    if (m.shape != (dim, dim) or m.nnz != dim or np.any(m.data != 1)
            or not np.array_equal(np.sort(m.indices), np.arange(dim))):
        raise ValueError("translation matrix is not a permutation")
    label = np.arange(dim)
    while not np.array_equal(label, spread := np.minimum(label, label[m.indices])):
        label = spread
    _, column, size = np.unique(label, return_inverse=True, return_counts=True)
    return sp.csr_matrix((1.0 / np.sqrt(size[column]), column, np.arange(dim + 1)),
                         shape=(dim, len(size)))


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


def _restricted(block, isometry) -> sp.csr_matrix:
    """P^T B P of a symmetric block, symmetrised to the last bit."""
    m = (isometry.T @ block @ isometry).tocsr()
    m = ((m + m.T) * 0.5).tocsr()
    m.sort_indices()
    return m


class HamiltonianTemplates:
    """Structural blocks sharing one sparsity pattern for fast H(t) assembly.

    The detuning diagonal, coupling and hopping blocks are expanded once
    onto one pattern, that of |coupling| + |hopping| + 1, so the full
    diagonal is stored; `assemble` then only scales and sums aligned data
    vectors, which makes per-step Hamiltonians and dH/dp expectations
    essentially free.

    With an `isometry` P (see `block_isometries`) the templates act on its
    column space, the symmetry `block` it names: every operator is P^T B P
    and `translation` is None (on the full basis it is T). The diagonals
    are constant on orbits, so they restrict by taking each column's
    value. `parts`, the `structural_parts` of `table`, saves rebuilding
    them for each block.

    The shared matrix returned by `assemble` is reused between calls;
    callers that need to keep a Hamiltonian must copy it.
    """

    def __init__(self, table: BasisTable, isometry=None, block=None, parts=None):
        self.isometry, self.block = isometry, block
        self.sites = table.shape.sites
        (self.number_diag, self.qubit_up_diag, self.coupling,
         self.hopping) = parts or structural_parts(table)
        if isometry is None:
            self.translation = build_translation(table)
        else:
            row = np.repeat(np.arange(table.dim), np.diff(isometry.indptr))
            for name in ("number_diag", "qubit_up_diag"):
                restricted = np.empty(isometry.shape[1])
                restricted[isometry.indices] = getattr(self, name)[row]
                setattr(self, name, restricted)
            self.coupling = _restricted(self.coupling, isometry)
            self.hopping = _restricted(self.hopping, isometry)
            self.translation = None
        self.dim = len(self.number_diag)

        shared = (abs(self.coupling) + abs(self.hopping)
                  + sp.identity(self.dim, format="csr")).tocsr()
        shared.sort_indices()
        shared.data[:] = 0.0
        self._shared = shared

        def keys(m):  # row * dim + col of each stored entry, in storage order
            coo = m.tocoo()
            return coo.row.astype(np.int64) * self.dim + coo.col

        union = keys(shared)

        def aligned(part):
            vec = np.zeros(union.size)
            vec[np.searchsorted(union, keys(part))] = part.data
            return vec

        self.data_coupling = aligned(self.coupling)
        self.data_hopping = aligned(self.hopping)
        self.diag_positions = np.searchsorted(
            union, np.arange(self.dim, dtype=np.int64) * (self.dim + 1))
        self.data_number = np.zeros(union.size)
        self.data_number[self.diag_positions] = self.number_diag
        self._scratch = np.empty(union.size)

    def dissipative_rates(self, kappa: float, gamma: float,
                          convention: str = "literal-sigma-z") -> np.ndarray:
        """Real diagonal D such that the non-Hermitian Hamiltonian is H - i*D.

        literal-sigma-z:    D = (kappa/2) sum_j n_j + (gamma/2) sum_j sigma_jz
        number-conserving:  D = (kappa/2) sum_j n_j + (gamma/2) sum_j (sigma_jz+1)/2

        The literal form is the printed one; inside a fixed-N sector it
        differs from a pure decay by the constant +gamma*L/2, which uniformly
        inflates the norm. The number-conserving form is the no-jump
        effective decay.
        """
        if kappa < 0 or gamma < 0:
            raise ValueError("decay rates must be non-negative")
        if convention not in DISSIPATION_CONVENTIONS:
            raise ValueError(
                f"unknown convention {convention!r}, expected one of "
                f"{DISSIPATION_CONVENTIONS}"
            )
        d = (kappa / 2.0) * self.number_diag
        if convention == "literal-sigma-z":
            return d + (gamma / 2.0) * (2.0 * self.qubit_up_diag - self.sites)
        return d + (gamma / 2.0) * self.qubit_up_diag

    def data_for(self, g: float, J: float, delta: float, out=None) -> np.ndarray:
        """H data on the shared pattern, delta * number + g * coupling
        - J * hopping, written into `out` (a new array when None). Bitwise
        the same as that expression, without its full-length temporaries."""
        if out is None:
            out = np.empty(self.data_number.size)
        scratch = self._scratch
        np.multiply(self.data_number, delta, out=out)
        out += np.multiply(self.data_coupling, g, out=scratch)
        out -= np.multiply(self.data_hopping, J, out=scratch)
        return out

    def assemble(self, g: float, J: float, delta: float) -> sp.csr_matrix:
        """Hamiltonian at the given couplings, backed by the shared pattern."""
        self.data_for(g, J, delta, out=self._shared.data)
        return self._shared

    def assemble_copy(self, g: float, J: float, delta: float) -> sp.csr_matrix:
        return self.assemble(g, J, delta).copy()


def structural_parts(table: BasisTable) -> tuple:
    """Number and qubit-up diagonals, coupling and hopping on the full basis."""
    return (number_diagonal(table), qubit_up_diagonal(table),
            build_coupling(table), build_hopping(table))


def block_sectors(table: BasisTable, blocks=None) -> list[HamiltonianTemplates]:
    """Templates on each nonempty block of `blocks`, in order; by default
    every real block of the dihedral group (`dihedral_blocks`)."""
    if blocks is None:
        blocks = dihedral_blocks(table.shape.sites)
    isometries = block_isometries(table, blocks)
    parts = structural_parts(table)
    return [HamiltonianTemplates(table, p, block, parts)
            for block, p in zip(blocks, isometries) if p.shape[1]]


def symmetric_sector(table: BasisTable) -> HamiltonianTemplates:
    """Templates on the fully symmetric sector of `table`: k = 0 and even
    under the mirror, the (0, +) block."""
    return block_sectors(table, [Block(0, 1, table.shape.sites)])[0]
