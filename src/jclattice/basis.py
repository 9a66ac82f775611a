"""Fixed-excitation basis for finite Jaynes-Cummings lattices.

Each lattice site carries a cavity photon count n >= 0 and a qubit flag
s in {0, 1} (0 = down, 1 = up). Only configurations with exactly N total
excitations, sum_j (n_j + s_j) = N, belong to the sector; the Hamiltonian
conserves this number, so the sector is closed under all operators built
on top of it. For N = L = 6 the sector holds 5336 states instead of the
(2N+1)^L = 4826809 states of the truncated product space.

The table stores configurations as sorted mixed-radix int64 keys, built
site by site, and ranks them by binary search, so operator builders map
whole arrays of configurations to ordinals without a per-state lookup.
This module is the one place that encodes and decodes keys: `occupation`
reads a site, `key_shift` changes one, and `rolled` and `mirrored` move
every site's content; the operators and states work on keys alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest operator a run builds, a symmetry block or the full basis: admits
# the L = N = 9 symmetric sector (48,334 states), refuses the full L = N = 9
# basis (864,146) and the L = N = 10 sector (about 240,000).
DEFAULT_DIM_CAP = 200_000
# Enumeration peaks at 58-65 bytes per key (L = N = 7-10): 512 MiB admits
# L = N = 10 (4,780,008 keys) and refuses L = N = 11 (26,572,086).
ENUMERATION_BYTE_CAP = 1 << 29
ENUMERATION_BYTES_PER_KEY = 64


class SectorError(ValueError):
    """Configuration does not belong to the fixed-excitation sector."""


class ResourceLimitError(RuntimeError):
    """Requested enumeration exceeds the configured size cap."""


def require_dim(dim: int, what: str) -> None:
    """ResourceLimitError when an operator on `dim` states exceeds
    DEFAULT_DIM_CAP (read at call time, so tests can lower it)."""
    if dim > DEFAULT_DIM_CAP:
        raise ResourceLimitError(f"{what} has {dim} states, above the cap "
                                 f"{DEFAULT_DIM_CAP}")


def rank_keys(sorted_keys: np.ndarray, keys) -> np.ndarray:
    """Positions of `keys` in the ascending array `sorted_keys`; SectorError
    if any is missing."""
    idx = np.searchsorted(sorted_keys, keys)
    found = sorted_keys.take(idx, mode="clip") == keys
    if not np.all(found):
        raise SectorError("configuration key outside the table")
    return idx


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
    is byte-stable across runs. Every array is read-only.
    """

    def __init__(self, shape: LatticeShape, keys: np.ndarray):
        L, N = shape.sites, shape.excitations
        self.shape = shape
        self.radix = 2 * N + 2
        self._weights = self.radix ** np.arange(L - 1, -1, -1, dtype=np.int64)
        self.keys = keys
        for arr in (self._weights, self.keys):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.keys)

    def key_shift(self, sites, photons=0, qubits=0) -> np.ndarray:
        """Key change from adding `photons` and `qubits` on `sites`."""
        return (qubits * (self.shape.excitations + 1) + photons) * self._weights[sites]

    def digit(self, keys, site: int) -> np.ndarray:
        """Digit s (N+1) + n of `site` in each of `keys`."""
        return keys // self._weights[site] % self.radix

    def occupation(self, keys, site: int) -> tuple[np.ndarray, np.ndarray]:
        """Photon numbers and qubit flags (True = up) of `site` in each of `keys`."""
        digit = self.digit(keys, site)
        up = digit > self.shape.excitations
        return digit - (self.shape.excitations + 1) * up, up

    def rolled(self, keys, shift: int) -> np.ndarray:
        """Keys with the content of every site j moved to j + shift mod L."""
        L, shift = self.shape.sites, shift % self.shape.sites
        high, low = np.divmod(keys, self.radix ** shift)
        return low * self.radix ** (L - shift) + high

    def mirrored(self, keys) -> np.ndarray:
        """Keys with the content of every site j moved to L-1-j."""
        return sum(self.digit(keys, j) * self.radix ** j for j in range(self.shape.sites))

    def rank(self, keys) -> np.ndarray:
        """Ordinals of the configurations with the given keys."""
        return rank_keys(self.keys, keys)

    def __repr__(self):
        return (
            f"BasisTable(L={self.shape.sites}, N={self.shape.excitations}, "
            f"dim={self.dim})"
        )


def enumerate_basis(shape: LatticeShape) -> BasisTable:
    """Enumerate every configuration with exactly N total excitations.

    Builds the sorted keys site by site, appending one digit to every
    prefix that still fits. Raises ResourceLimitError when that would take
    more than ENUMERATION_BYTE_CAP bytes or the keys would overflow int64.
    """
    predicted = sector_dimension(shape)
    if predicted * ENUMERATION_BYTES_PER_KEY > ENUMERATION_BYTE_CAP:
        raise ResourceLimitError(f"enumerating {predicted} configurations needs about "
                                 f"{predicted * ENUMERATION_BYTES_PER_KEY} bytes, above "
                                 f"the cap {ENUMERATION_BYTE_CAP}")
    L, N = shape.sites, shape.excitations
    if (2 * N + 2) ** L > np.iinfo(np.int64).max:
        raise ResourceLimitError(
            f"configuration keys in radix {2 * N + 2} overflow int64 at L={L}"
        )
    digit = np.arange(2 * N + 2)
    cost = digit // (N + 1) + digit % (N + 1)  # excitations of each digit
    keys = np.zeros(1, dtype=np.int64)
    remaining = np.array([N])
    for site in range(L):
        # row-major nonzero keeps prefixes in order and digits ascending
        fits = cost <= remaining[:, None] if site < L - 1 \
            else cost == remaining[:, None]
        row, d = np.nonzero(fits)
        keys = keys[row] * (2 * N + 2) + d
        remaining = remaining[row] - cost[d]
    if len(keys) != predicted:
        raise AssertionError(
            f"enumeration produced {len(keys)} states, expected {predicted}"
        )
    return BasisTable(shape, keys)


def write_basis_text(table: BasisTable, path) -> None:
    """Export the basis, one configuration per line: `n_1 s_1 n_2 s_2 ...`."""
    shape = table.shape
    pairs = np.stack([column for j in range(shape.sites)
                      for column in table.occupation(table.keys, j)], axis=1)
    line = " ".join(["%d"] * pairs.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# L={shape.sites} N={shape.excitations} dim={table.dim}\n")
        fh.writelines(line % tuple(row) for row in pairs.tolist())
