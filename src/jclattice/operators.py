"""Sparse operators (`Csr`) over the fixed-excitation sector.

Energy convention: inside a fixed-N sector the bare frequencies only add
the constant N*omega_z, so the Hamiltonian is assembled as

    H = Delta * sum_j n_j
        + g * sum_j (a_j^dag sig_j^- + sig_j^+ a_j)
        - J * sum_j (a_j^dag a_{j+1} + a_{j+1}^dag a_j),

with Delta = omega_c - omega_z. This reproduces the single-site doublet
energies E(n, +/-) = (n - 1/2) * Delta +/- chi(n) / 2 measured from the
empty-site level.

The runs work in the real blocks (`Block`: momentum and mirror parity)
of the dihedral group that the translation and the mirror j -> L-1-j
generate. `DihedralOrbits` builds each block from one representative
per orbit of the configuration keys, so no run builds a full-space
operator. `block_sectors` builds `HamiltonianTemplates` on every block,
and `symmetric_sector` on the (0, +) one, k = 0 and mirror-even: 500 of
the 5336 states at six sites.

Each term of H is written once, on any int64 array of configuration keys:
`site_totals` gives the diagonals, and `coupling_moves` and `photon_moves`
(source index, target key, amplitude) moves. The full-space builders rank
the targets in the table, and their matrices equal their transpose exactly;
the blocks rank their canonical keys, and are symmetrised. Both refuse an
operator above `basis.DEFAULT_DIM_CAP` states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._compiled import sparsetools as _kernels
from .basis import BasisTable, rank_keys, require_dim

DISSIPATION_CONVENTIONS = ("literal-sigma-z", "number-conserving")
CANCELLED = 1e-9  # a column's Z^2 below this is a cancelled orbit sum


@dataclass(frozen=True)
class LatticeParams:
    """Dimensionless couplings of the lattice, in units of the g reference."""

    g: float
    J: float = 0.0
    delta: float = 0.0


class Csr:
    """A CSR matrix, run by scipy's compiled kernels in the order that
    `scipy.sparse.csr_matrix` runs them, so each result has the same bits.
    The package reads any object with `data`, `indices`, `indptr` and
    `shape` as CSR. Copies share the index arrays, never written once built."""

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)

    @classmethod
    def from_coo(cls, data, rows, cols, shape) -> Csr:
        """Entries data[n] at (rows[n], cols[n]); repeated positions are summed."""
        index = np.int32 if max(len(data), *shape) < 2**31 else np.int64
        m = cls(np.empty_like(data), np.empty(len(data), index),
                np.empty(shape[0] + 1, index), shape)
        _kernels.coo_tocsr(*shape, len(data), np.asarray(rows, index),
                           np.asarray(cols, index), data, m.indptr, m.indices, m.data)
        structure = (m.indptr, m.indices)
        if not _kernels.csr_has_canonical_format(shape[0], *structure):
            if not _kernels.csr_has_sorted_indices(shape[0], *structure):
                _kernels.csr_sort_indices(shape[0], *structure, m.data)
            _kernels.csr_sum_duplicates(*shape, *structure, m.data)
            m.indices, m.data = m.indices[:m.nnz], m.data[:m.nnz]
        return m

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def rows(self) -> np.ndarray:  # the row of each stored entry
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @property
    def T(self) -> Csr:
        """The transpose: coo_tocsr runs the counting sort of csr_tocsc."""
        return Csr.from_coo(self.data, self.indices, self.rows(), self.shape[::-1])

    def __add__(self, other) -> Csr:
        """The sum; entries that add up to 0 are dropped."""
        size = self.nnz + other.nnz
        s = Csr(np.empty(size, np.result_type(self.data, other.data)),
                np.empty(size, self.indices.dtype), np.empty_like(self.indptr), self.shape)
        _kernels.csr_plus_csr(*self.shape, self.indptr, self.indices, self.data, other.indptr,
                              other.indices, other.data, s.indptr, s.indices, s.data)
        s.indices, s.data = s.indices[:s.nnz], s.data[:s.nnz]
        return s

    def __matmul__(self, x) -> np.ndarray:
        """self @ x for a dense 1-D or 2-D x, complex if either is."""
        x = np.asarray(x)
        out = np.zeros((self.shape[0], *x.shape[1:]), np.result_type(self.data, x))
        if x.ndim == 1:
            return matvec(self, x, out)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"a {self.shape} matrix cannot multiply shape {x.shape}")
        _kernels.csr_matvecs(*self.shape, x.shape[1], self.indptr, self.indices, self.data,
                             x.ravel(), out.ravel())
        return out

    def copy(self) -> Csr:
        return Csr(self.data.copy(), self.indices, self.indptr, self.shape)

    def astype(self, dtype) -> Csr:
        return Csr(self.data.astype(dtype), self.indices, self.indptr, self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, self.data.dtype)
        _kernels.csr_todense(*self.shape, self.indptr, self.indices, self.data, out)
        return out

    def submatrix(self, keep) -> Csr:
        """self[keep][:, keep] for a boolean mask, sorted rows kept in order."""
        rows, new, n = self.rows(), np.cumsum(keep) - 1, int(np.count_nonzero(keep))
        kept = keep[rows] & keep[self.indices]
        return Csr.from_coo(self.data[kept], new[rows[kept]], new[self.indices[kept]], (n, n))


def matvec(m, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = m @ x for a CSR m, bit for bit; `out` has the dtype of m @ x.
    The kernel of `Csr.__matmul__` without its checks and new array, which
    cost more than the product at a few hundred states. It trusts the
    lengths it is given, so they are checked here."""
    rows, cols = m.shape
    if x.shape != (cols,) or out.shape != (rows,):
        raise ValueError(f"matvec of a {rows}x{cols} matrix needs x of shape ({cols},)"
                         f" and out of ({rows},), got {x.shape} and {out.shape}")
    out.fill(0)  # the kernel adds m @ x to out
    _kernels.csr_matvec(rows, cols, m.indptr, m.indices, m.data, x, out)
    return out


def _sites(table: BasisTable, keys) -> list[tuple]:
    """(photons, qubits) of every site of `keys`, each site decoded once."""
    return [table.occupation(keys, j) for j in range(table.shape.sites)]


def _joined(moves) -> tuple:
    """One (source, target key, amplitude) triple from a list of them."""
    empty = (np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros(0))
    return tuple(map(np.concatenate, zip(empty, *moves)))


def site_totals(table: BasisTable, keys) -> tuple[np.ndarray, np.ndarray]:
    """Photon number and qubit-up count of each of `keys`: the diagonals of
    sum_j a_j^dag a_j and sum_j (sigma_jz + 1)/2."""
    photons, qubits = np.zeros(len(keys)), np.zeros(len(keys))
    for n, up in _sites(table, keys):
        photons += n
        qubits += up
    return photons, qubits


def coupling_moves(table: BasisTable, keys) -> tuple:
    """sum_j (a_j^dag sig_j^- + sig_j^+ a_j) = dH/dg on `keys`."""
    moves = []
    for j, (n, up) in enumerate(_sites(table, keys)):
        idx = np.flatnonzero(up)  # a_j^dag sig_j^-
        moves.append((idx, keys[idx] + table.key_shift(j, 1, -1), np.sqrt(n[idx] + 1)))
        idx = np.flatnonzero((n > 0) & ~up)  # sig_j^+ a_j
        moves.append((idx, keys[idx] + table.key_shift(j, -1, 1), np.sqrt(n[idx])))
    return _joined(moves)


def photon_moves(table: BasisTable, keys, pairs, scale: float = 1.0) -> tuple:
    """scale * sum of a_dst^dag a_src over the (dst, src) `pairs`, on `keys`."""
    photons = [n for n, _ in _sites(table, keys)]
    moves = []
    for dst, src in pairs:
        idx = np.flatnonzero(photons[src])
        n_src = photons[src][idx]
        if dst == src:
            moves.append((idx, keys[idx], scale * n_src))
            continue
        moves.append((idx, keys[idx] + table.key_shift(dst, 1) - table.key_shift(src, 1),
                      scale * (np.sqrt(n_src) * np.sqrt(photons[dst][idx] + 1))))
    return _joined(moves)


def hopping_pairs(sites: int) -> list[tuple]:
    """The (dst, src) pairs of sum_j (a_j^dag a_{j+1} + a_{j+1}^dag a_j) with
    periodic boundary: both directions of every bond. For L = 1 there are
    none (a periodic wrap onto the same site is unphysical); for L = 2 the
    sum over j = 1, 2 hits the single bond twice, giving matrix elements of
    2 between one-photon-exchange configurations."""
    bonds = [(j, (j + 1) % sites) for j in range(sites)] if sites > 1 else []
    return bonds + [(b, a) for a, b in bonds]


def _on_full_basis(table: BasisTable, moves, *args) -> Csr:
    """The full-basis matrix of the term that `moves(table, keys, *args)`
    gives; a basis above the cap is refused before any move is built."""
    require_dim(table.dim, "the full basis")
    source, target, amplitude = moves(table, table.keys, *args)
    return Csr.from_coo(amplitude, table.rank(target), source, (table.dim, table.dim))


def build_coupling(table: BasisTable) -> Csr:
    """sum_j (a_j^dag sig_j^- + sig_j^+ a_j) = dH/dg."""
    return _on_full_basis(table, coupling_moves)


def build_hopping(table: BasisTable) -> Csr:
    """sum_j (a_j^dag a_{j+1} + a_{j+1}^dag a_j) with periodic boundary
    (`hopping_pairs`). The -J factor is applied at composition time."""
    return _on_full_basis(table, photon_moves, hopping_pairs(table.shape.sites))


def build_correlator(table: BasisTable, i: int, j: int) -> Csr:
    """a_i^dag a_j for 1-based sites i, j (sector-closed since i != j moves
    one photon and i == j is the site photon number)."""
    L = table.shape.sites
    if not (1 <= i <= L and 1 <= j <= L):
        raise ValueError(f"sites must be in 1..{L}, got ({i}, {j})")
    return _on_full_basis(table, photon_moves, [(i - 1, j - 1)])


def build_translation(table: BasisTable) -> Csr:
    """Permutation matrix T shifting every configuration by one site."""
    require_dim(table.dim, "the full basis")
    rows = table.rank(table.rolled(table.keys, 1))
    return Csr.from_coo(np.ones(table.dim), rows, np.arange(table.dim),
                        (table.dim, table.dim))


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


def symmetric_isometry(translation) -> Csr:
    """Isometry P (dim x d) onto the k = 0 states of the permutation matrix
    `translation`: P P^T is the average over its powers. An orbit is
    labelled by its smallest index, spread along the permutation until it
    settles; column c is the normalised sum over the c-th orbit by label."""
    m = Csr.from_coo(np.asarray(translation.data), Csr.rows(translation),
                     translation.indices, translation.shape)  # any CSR, summed
    dim = m.shape[0]
    if (m.shape != (dim, dim) or m.nnz != dim or np.any(m.data != 1)
            or not np.array_equal(np.sort(m.indices), np.arange(dim))):
        raise ValueError("translation matrix is not a permutation")
    label = np.arange(dim)
    while not np.array_equal(label, spread := np.minimum(label, label[m.indices])):
        label = spread
    _, column, size = np.unique(label, return_inverse=True, return_counts=True)
    return Csr(1.0 / np.sqrt(size[column]), column.astype(np.int32),
               np.arange(dim + 1, dtype=np.int32), (dim, len(size)))


class DihedralOrbits:
    """The dihedral group on a table's keys, and blocks built from one
    representative per orbit (Sandvik, AIP Conf. Proc. 1297, 135 (2010),
    sec. 4; Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).

    Element e = m is T^m and e = L + m is R T^m: T moves each site's content
    one site down (j + 1 -> j), rotating the key's digits, and R mirrors
    j -> L-1-j, reversing them; (e o u) x = e (u x). A key's canonical key
    is the smallest of its 2L images, a representative is its own, and its
    stabiliser is the set of images equal to it. A block's column for
    representative a and row t is sum_e chi_t(e) |e a> / Z_a,t, where
    Z_a,t^2 = sum over Stab(a) of K_tt and K_t't(u) = sum_e chi_t'(e o u)
    chi_t(e). For a B that commutes with the group, the element between the
    columns (b, t') and (a, t) is sum_y B_ya sum_{u: u y = b} K_t't(u^-1)
    / (Z_b,t' Z_a,t), over B's targets y from a, with b their canonical key.
    """

    def __init__(self, table: BasisTable):
        self.table = table
        L = self.sites = table.shape.sites
        r, m = np.divmod(np.arange(2 * L), L)
        # R^r T^m o R^s T^n = R^(r + s) T^((-1)^s m + n)
        self.compose = (r[:, None] ^ r) * L + ((1 - 2 * r) * m[:, None] + m) % L
        self.inverse = np.argmax(self.compose == 0, axis=1)
        self.canonical = self._canonical(table.keys)[0]
        self.reps = table.keys[self.canonical == table.keys]
        self.stabiliser = np.empty((len(self.reps), 2 * L), dtype=bool)
        for e, image in self.images(self.reps):
            self.stabiliser[:, e] = image == self.reps
        self.orbit_size = 2 * L // np.count_nonzero(self.stabiliser, axis=1)

    def images(self, keys):
        """(e, e x) for each element e, over the keys x."""
        L = self.sites
        for flip, image in ((0, keys), (1, self.table.mirrored(keys))):
            for m in range(L):  # T^m R = R T^-m
                yield (L + (-m) % L if flip else m), image
                image = self.table.rolled(image, -1)

    def _canonical(self, keys):
        """Canonical keys of `keys`, and for each an element that reaches it."""
        canon, first = keys.copy(), np.zeros(len(keys), dtype=np.intp)
        less = np.empty(len(keys), dtype=bool)
        for e, image in self.images(keys):
            np.less(image, canon, out=less)
            np.copyto(canon, image, where=less)
            np.copyto(first, e, where=less)
        return canon, first

    def _located(self, moves):
        """(source, target representative, an element to it, amplitude) of
        the (source, target key, amplitude) moves from the representatives."""
        source, targets, amplitude = moves
        canon, first = self._canonical(targets)
        return source, rank_keys(self.reps, canon), first, amplitude

    @cached_property
    def _coupling(self):
        return self._located(coupling_moves(self.table, self.reps))

    @cached_property
    def _hopping(self):
        return self._located(photon_moves(self.table, self.reps, hopping_pairs(self.sites)))

    def columns(self, block):
        """(K, index, Z) of `block`: index[a, t] is the column of (a, t), by
        representative, then by row, or -1. The rows chi are cos(2 pi q m /
        sites) on T^m, times the parity on R T^m, and a sine row for a
        two-dimensional irrep. A column with Z^2 at rounding is dropped, as
        is the sine one where R a is a translate of a and the cosine is kept."""
        L = self.sites
        if (block.q * L) % block.sites:
            raise ValueError(f"{block} does not fit a ring of {L} sites: "
                             f"q L / sites = {block.q * L}/{block.sites}")
        angle = 2 * np.pi * ((block.q * np.arange(L)) % block.sites) / block.sites
        cos, sin = np.cos(angle), np.sin(angle)
        chi = np.array([np.concatenate([cos, block.parity * cos]),
                        np.concatenate([sin, sin])][:block.multiplicity])
        kernel = np.einsum("aeu,be->abu", chi[:, self.compose], chi)
        z2 = self.stabiliser @ kernel[np.arange(len(chi)), np.arange(len(chi))].T
        kept = z2 > CANCELLED
        if len(chi) == 2:
            kept[:, 1] &= ~(kept[:, 0] & self.stabiliser[:, L:].any(axis=1))
        index = np.full(kept.shape, -1)
        index[kept] = np.arange(np.count_nonzero(kept))
        require_dim(np.count_nonzero(kept), f"block {tuple(block)}")
        return kernel, index, np.sqrt(np.where(kept, z2, 1.0))

    def restrict(self, columns, located) -> Csr:
        """The block (`columns`) of an operator that commutes with the
        group, from its `_located` moves on the representatives, symmetrised
        to the last bit: (m + m^T) / 2."""
        source, target, first, amplitude = located
        kernel, index, norm = columns
        weight = kernel[:, :, self.inverse[first]]  # s = 1
        fixed = np.flatnonzero(self.orbit_size[target] < 2 * self.sites)
        for s in range(1, 2 * self.sites):
            hit = fixed[self.stabiliser[target[fixed], s]]
            weight[:, :, hit] += kernel[:, :, self.inverse[self.compose[s, first[hit]]]]
        weight[np.abs(weight) < CANCELLED] = 0.0  # a cancelled character sum
        rows = np.broadcast_to(index[target].T[:, None], weight.shape)
        cols = np.broadcast_to(index[source].T[None, :], weight.shape)
        vals = amplitude * weight / (norm[target].T[:, None] * norm[source].T[None, :])
        ok = (rows >= 0) & (cols >= 0)
        dim = np.count_nonzero(index >= 0)
        m = Csr.from_coo(vals[ok], rows[ok], cols[ok], (dim, dim))
        m = m + m.T  # both canonical, so the sum is too
        m.data *= 0.5
        return m

    def correlator(self, block, i: int, j: int) -> Csr:
        """The block of the group average (1/2L) sum_e a_e(i)^dag a_e(j),
        for 1-based sites i, j. Between group-invariant states, those of
        the (0, +) block, its matrix elements are those of a_i^dag a_j."""
        L = self.sites
        if not (1 <= i <= L and 1 <= j <= L):
            raise ValueError(f"sites must be in 1..{L}, got ({i}, {j})")
        pairs = [((i - 1 + m) % L, (j - 1 + m) % L) for m in range(L)]
        return self.restrict(self.columns(block), self._located(photon_moves(
            self.table, self.reps, pairs + [(L - 1 - a, L - 1 - b) for a, b in pairs],
            1 / (2 * L))))

    def templates(self, block, columns=None) -> HamiltonianTemplates:
        """Templates on `block` (whose `columns` may be given). Diagonals
        take each representative's value; the (0, +) block also carries
        its isometry onto the full basis, one entry 1 / sqrt(orbit size)
        per state."""
        columns = self.columns(block) if columns is None else columns
        rep = self.reps[np.nonzero(columns[1] >= 0)[0]]  # per column
        isometry = None
        if block.q == 0 and block.parity == 1:
            column, dim = rank_keys(self.reps, self.canonical), self.table.dim
            isometry = Csr(1.0 / np.sqrt(self.orbit_size[column]), column.astype(np.int32),
                           np.arange(dim + 1, dtype=np.int32), (dim, len(self.reps)))
        parts = (*site_totals(self.table, rep), self.restrict(columns, self._coupling),
                 self.restrict(columns, self._hopping))
        return HamiltonianTemplates(self.table, parts, block, isometry)


class HamiltonianTemplates:
    """Structural blocks sharing one sparsity pattern for fast H(t) assembly.

    The detuning diagonal, coupling and hopping blocks are expanded once
    onto one pattern, that of |coupling| + |hopping| + 1, so the full
    diagonal is stored; `assemble` then only scales and sums aligned data
    vectors, which makes per-step Hamiltonians and dH/dp expectations
    essentially free.

    Without `parts` they act on the full basis of `table`, with its
    translation T. Given `parts` (number and qubit-up diagonals, coupling
    and hopping) they act on the symmetry `block` these are restricted to
    (`DihedralOrbits.templates`), and `translation` is None; on the (0, +)
    block `isometry` is P, the map from it onto the full basis.
    """

    def __init__(self, table: BasisTable, parts=None, block=None, isometry=None):
        self.block, self.isometry = block, isometry
        self.sites = table.shape.sites
        self.translation = None
        if parts is None:
            require_dim(table.dim, "the full basis")
            parts = (*site_totals(table, table.keys), build_coupling(table),
                     build_hopping(table))
            self.translation = build_translation(table)
        self.number_diag, self.qubit_up_diag, self.coupling, self.hopping = parts
        self.dim = len(self.number_diag)

        # parts tagged by bits 1, 2 and 4: each is canonical, with no stored 0, so
        # its k-th entry is the k-th entry of the pattern that carries its bit
        def tagged(m, bit):
            return Csr(np.full(m.nnz, float(bit)), m.indices, m.indptr, m.shape)

        eye = np.arange(self.dim)
        self._pattern = (tagged(self.coupling, 1) + tagged(self.hopping, 2)
                         + Csr.from_coo(np.full(self.dim, 4.0), eye, eye, (self.dim, self.dim)))
        tags = self._pattern.data.astype(np.int8)

        def aligned(part, bit):
            vec = np.zeros(tags.size)
            vec[tags & bit > 0] = part.data
            return vec

        self.data_coupling = aligned(self.coupling, 1)
        self.data_hopping = aligned(self.hopping, 2)
        self.diag_positions = np.flatnonzero(tags & 4)
        self.data_number = aligned(self.number_diag, 4)
        self._scratch = np.empty(tags.size)

    def dissipative_rates(self, kappa: float, gamma: float,
                          convention: str = "literal-sigma-z") -> np.ndarray:
        """Real diagonal D such that the non-Hermitian Hamiltonian is H - i*D.

        literal-sigma-z:    D = (kappa/2) sum_j n_j + (gamma/2) sum_j sigma_jz
        number-conserving:  D = (kappa/2) sum_j n_j + (gamma/2) sum_j (sigma_jz+1)/2

        The number-conserving form is the no-jump effective decay. The
        literal form is the printed one: with n_up = sum_j (sigma_jz+1)/2
        it is D = (kappa/2) sum_j n_j + gamma n_up - gamma L/2. That is the
        no-jump decay with the qubits at rate 2 gamma (the number-conserving
        form with 2 gamma), less the constant gamma L/2, which uniformly
        inflates the norm. Against the number-conserving form at the same
        gamma, the difference (gamma/2) n_up - gamma L/2 is not a constant.
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

    def assemble(self, g: float, J: float, delta: float) -> Csr:
        """Hamiltonian at the given couplings on the shared pattern, in a
        matrix whose data is the caller's own (`Csr.copy`)."""
        h = self._pattern.copy()
        self.data_for(g, J, delta, out=h.data)
        return h

    assemble_copy = assemble


def block_sectors(table: BasisTable) -> list[HamiltonianTemplates]:
    """Templates on every nonempty real block of the dihedral group
    (`dihedral_blocks`), in order, all from one `DihedralOrbits` table."""
    orbits = DihedralOrbits(table)
    built = [(block, orbits.columns(block))
             for block in dihedral_blocks(table.shape.sites)]
    return [orbits.templates(block, columns) for block, columns in built
            if columns[1].max() >= 0]


def symmetric_sector(table: BasisTable) -> HamiltonianTemplates:
    """Templates on the fully symmetric sector of `table`: k = 0 and even
    under the mirror, the (0, +) block."""
    return DihedralOrbits(table).templates(Block(0, 1, table.shape.sites))
