"""Fixed-excitation basis for finite Jaynes-Cummings lattices.

Each lattice site carries a cavity photon count n >= 0 and a qubit flag
s in {0, 1} (0 = down, 1 = up). Only configurations with exactly N total
excitations, sum_j (n_j + s_j) = N, belong to the sector; the Hamiltonian
conserves this number, so the sector is closed under all operators built
on top of it. For N = L = 6 the sector holds 5336 states instead of the
(2N+1)^L = 4826809 states of the truncated product space.

The table stores configurations as integer arrays (photons, qubits) and
ranks them by a mixed-radix int64 key, so operator builders map whole
arrays of configurations to ordinals with one binary search instead of
a per-state dictionary lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Default safety cap: admits L = N = 8 (157,184 states), refuses L = N = 9
# (864,146). Why this bound and not another is unverified.
DEFAULT_DIM_CAP = 200_000


class SectorError(ValueError):
    """Configuration does not belong to the fixed-excitation sector."""


class ResourceLimitError(RuntimeError):
    """Requested enumeration exceeds the configured size cap."""


@dataclass(frozen=True)
class LatticeShape:
    """Lattice geometry: `sites` unit cells holding `excitations` polaritons.

    The regime of interest is unit filling (excitations == sites),
    but any non-negative excitation number is accepted.
    """

    sites: int
    excitations: int

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError(f"need at least one site, got {self.sites}")
        if self.excitations < 0:
            raise ValueError(f"negative excitation count: {self.excitations}")


def sector_dimension(shape: LatticeShape) -> int:
    """Closed-form sector size: sum_k C(L,k) * C(L+N-k-1, N-k).

    k counts qubits in the up state; the remaining N-k excitations are
    photons distributed over L sites with repetition.
    """
    L, N = shape.sites, shape.excitations
    return sum(
        math.comb(L, k) * math.comb(L + N - k - 1, N - k)
        for k in range(min(L, N) + 1)
    )


class BasisTable:
    """Ordered enumeration of all fixed-N configurations, ranked by array keys.

    Site j carries the digit s_j (N+1) + n_j, and a configuration's int64
    key reads its digits left to right in radix 2N+2. The table is ordered
    lexicographically over sites with per-site key (qubit, photons): qubit
    down sorts before up, photon number ascending. That is ascending key
    order, so `rank` maps any array of keys to ordinals by binary search.
    This puts (1, down) before (0, up) in the one-excitation doublet and
    is byte-stable across runs.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, shape: LatticeShape, photons: np.ndarray, qubits: np.ndarray):
        L, N = shape.sites, shape.excitations
        self.shape = shape
        self._weights = (2 * N + 2) ** np.arange(L - 1, -1, -1, dtype=np.int64)
        # Read-only arrays used by the operator builders.
        self.photons = photons
        self.qubits = qubits
        self.keys = self.key_of(photons, qubits)
        for arr in (self._weights, self.keys, self.photons, self.qubits):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.keys)

    def key_of(self, photons, qubits) -> np.ndarray:
        """Keys of configurations given as (..., L) photon and qubit arrays."""
        return (qubits * (self.shape.excitations + 1) + photons) @ self._weights

    def key_shift(self, sites, photons=0, qubits=0) -> np.ndarray:
        """Key change from adding `photons` and `qubits` on `sites`."""
        return (qubits * (self.shape.excitations + 1) + photons) * self._weights[sites]

    def rank(self, keys) -> np.ndarray:
        """Ordinals of the configurations with the given keys."""
        idx = np.searchsorted(self.keys, keys)
        found = self.keys[np.minimum(idx, self.dim - 1)] == keys
        if not np.all(found):
            raise SectorError("configuration key outside the table")
        return idx

    def __repr__(self):
        return (
            f"BasisTable(L={self.shape.sites}, N={self.shape.excitations}, "
            f"dim={self.dim})"
        )


def enumerate_basis(shape: LatticeShape) -> BasisTable:
    """Enumerate every configuration with exactly N total excitations.

    Raises ResourceLimitError when the predicted dimension exceeds
    DEFAULT_DIM_CAP (dense `eigh` only runs below spectrum.DENSE_CUTOFF) or
    when the configuration keys would overflow int64.
    """
    predicted = sector_dimension(shape)
    if predicted > DEFAULT_DIM_CAP:
        raise ResourceLimitError(
            f"sector dimension {predicted} exceeds cap {DEFAULT_DIM_CAP}"
        )
    L, N = shape.sites, shape.excitations
    if (2 * N + 2) ** L > np.iinfo(np.int64).max:
        raise ResourceLimitError(
            f"configuration keys in radix {2 * N + 2} overflow int64 at L={L}"
        )
    digit = np.arange(2 * N + 2)
    cost = digit // (N + 1) + digit % (N + 1)  # excitations of each digit
    digits = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([N])
    for site in range(L):
        # row-major nonzero keeps prefixes in order and digits ascending
        fits = cost <= remaining[:, None] if site < L - 1 \
            else cost == remaining[:, None]
        row, d = np.nonzero(fits)
        digits = np.column_stack([digits[row], d])
        remaining = remaining[row] - cost[d]
    if len(digits) != predicted:
        raise AssertionError(
            f"enumeration produced {len(digits)} states, expected {predicted}"
        )
    return BasisTable(shape, digits % (N + 1), digits // (N + 1))


def write_basis_text(table: BasisTable, path) -> None:
    """Export the basis, one configuration per line: `n_1 s_1 n_2 s_2 ...`."""
    shape = table.shape
    pairs = np.stack([table.photons, table.qubits], axis=2).reshape(table.dim, -1)
    line = " ".join(["%d"] * pairs.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# L={shape.sites} N={shape.excitations} dim={table.dim}\n")
        fh.writelines(line % tuple(row) for row in pairs.tolist())
