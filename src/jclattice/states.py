"""Analytic limiting ground states and initialization pulse sequences.

The deep-Mott state is a product of single-site lower polaritons
|1,-> = sin(theta/2)|1,down> - cos(theta/2)|0,up>; the deep-superfluid
state condenses all N excitations into the k = 0 photon mode. Both are
expanded onto the fixed-N basis at unit filling, site by site from the keys.

Pulse simulations work in small dedicated spaces, not the fixed-N sector:
the Mott pulse drives one JC site between its ground state and |1,->
(three-level truncation to quantify |1,+> leakage), and the superfluid
pulse alternates qubit flips with qubit-mode swaps on the coupled
(auxiliary qubit) x (k = 0 mode) ladder in the rotating frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisTable


@dataclass(frozen=True)
class PolaritonDoublet:
    """Single-site polariton pair |n,+->, mixing angle and energies."""

    n: int
    delta: float
    g: float
    theta: float
    chi: float

    @property
    def energy_minus(self) -> float:
        return (self.n - 0.5) * self.delta - self.chi / 2.0

    @property
    def energy_plus(self) -> float:
        return (self.n - 0.5) * self.delta + self.chi / 2.0

    @property
    def lower_amplitudes(self):
        """(photon-rich, qubit-rich) components of |n,->."""
        return (math.sin(self.theta / 2.0), -math.cos(self.theta / 2.0))


def polariton_doublet(n: int, delta: float, g: float) -> PolaritonDoublet:
    if n < 1:
        raise ValueError("doublets exist for n >= 1")
    if g <= 0:
        raise ValueError("doublets require g > 0")
    chi = math.sqrt(delta**2 + 4.0 * n * g**2)
    theta = 2.0 * math.asin(math.sqrt((1.0 - delta / chi) / 2.0))
    return PolaritonDoublet(n, delta, g, theta, chi)


def mi_ground_state(table: BasisTable, delta: float, g: float) -> np.ndarray:
    """Product of |1,-> over all sites, expanded on the fixed-N basis.

    Exact ground state at J = 0; requires unit filling.
    """
    shape = table.shape
    if shape.excitations != shape.sites:
        raise ValueError(
            f"Mott product state needs N = L, got N={shape.excitations}, "
            f"L={shape.sites}"
        )
    amp_photon, amp_qubit = polariton_doublet(1, delta, g).lower_amplitudes
    psi = np.ones(table.dim)
    for j in range(shape.sites):  # each site (1, down) or (0, up)
        photons, qubit = table.occupation(table.keys, j)
        psi *= np.where(photons + qubit != 1, 0.0,
                        np.where(qubit, amp_qubit, amp_photon))
    return psi


def sf_ground_state(table: BasisTable) -> np.ndarray:
    """All N excitations condensed in the k = 0 photon mode (g = 0 limit).

    Amplitudes sqrt(N!/prod n_j!) N^(-N/2) on all-qubit-down photon
    configurations; the multinomial identity makes the norm exactly 1.
    """
    shape = table.shape
    if shape.excitations != shape.sites:
        raise ValueError(
            f"condensate construction needs N = L, got N={shape.excitations}, "
            f"L={shape.sites}"
        )
    N = shape.excitations
    factorial = np.array([math.factorial(n) for n in range(N + 1)], dtype=float)
    denominator, all_down = np.ones(table.dim), np.ones(table.dim, dtype=bool)
    for j in range(shape.sites):
        photons, qubit = table.occupation(table.keys, j)
        denominator *= factorial[photons]
        all_down &= ~qubit
    amp = np.sqrt(math.factorial(N) / denominator)
    return np.where(all_down, amp * N ** (-N / 2.0), 0.0)


@dataclass
class MiPulseResult:
    fidelity: float
    duration: float
    leakage_upper: float


def simulate_mi_pulse(delta: float, g: float, eps: float) -> MiPulseResult:
    """Rabi flip |g0> -> |1,-> on one JC site under a resonant drive.

    Evolves the driven three-level model {|g0>, |1,->, |1,+>} with drive
    eps e^{i w_L t} sigma^- + h.c. at w_L = E(1,-), for the pi-pulse
    duration tau = pi / (2 |eps cos(theta/2)|). In the
    frame rotating at the drive frequency this Hamiltonian is static, so
    the propagator is an exact matrix exponential; the |1,+> admixture
    (detuned by chi(1)) quantifies the (eps/g)^2 leakage that enforces
    |eps| << g. State overlaps are frame-independent.
    """
    if eps == 0:
        raise ValueError("zero drive amplitude never completes the flip")
    doublet = polariton_doublet(1, delta, g)
    cos_half = math.cos(doublet.theta / 2.0)
    sin_half = math.sin(doublet.theta / 2.0)
    tau = math.pi / (2.0 * abs(eps * cos_half))

    # rotating frame at w_L = E(1,-): |1,-> sits at zero, |1,+> at chi(1)
    h = np.zeros((3, 3))
    h[2, 2] = doublet.energy_plus - doublet.energy_minus
    # <g0| sigma^- |1,-> = -cos(theta/2), <g0| sigma^- |1,+> = sin(theta/2)
    h[0, 1] = h[1, 0] = eps * -cos_half
    h[0, 2] = h[2, 0] = eps * sin_half

    w, v = np.linalg.eigh(h)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi = v @ (np.exp(-1j * w * tau) * (v.T @ psi0))

    return MiPulseResult(
        fidelity=float(abs(psi[1]) ** 2),
        duration=tau,
        leakage_upper=float(abs(psi[2]) ** 2),
    )


@dataclass
class PulseSegment:
    step: int
    kind: str  # "C" (qubit flip) or "Q" (qubit-mode swap)
    duration: float
    cumulative_fidelity: float


@dataclass
class SfPulseResult:
    fidelity: float
    duration: float
    segments: list


def simulate_sf_pulse(n_excitations: int, eps: float, g_d: float) -> SfPulseResult:
    """Climb |0,down> -> |N,down> on the (k = 0 mode) x (auxiliary qubit) ladder.

    Alternates C_l (drive eps for tau = pi/(2|eps|), flipping the qubit) and
    Q_l (coupling sqrt(N) g_d for tau = pi/(2 sqrt(N l) |g_d|), swapping the
    excitation into the mode) for l = 1..N, in the rotating frame where both
    terms are static. Each segment is applied as an exact matrix exponential;
    `cumulative_fidelity` tracks the expected ladder state after the segment.
    """
    N = n_excitations
    if N < 1:
        raise ValueError("need at least one excitation")
    if eps == 0 or g_d == 0:
        raise ValueError("pulse amplitudes must be nonzero")

    dim = 2 * (N + 1)  # |m, q> with mode level m and qubit q

    def idx(m, q):
        return 2 * m + q

    h_c = np.zeros((dim, dim))
    for m in range(N + 1):
        h_c[idx(m, 0), idx(m, 1)] = eps
        h_c[idx(m, 1), idx(m, 0)] = eps

    h_q = np.zeros((dim, dim))
    for m in range(N):
        # sqrt(N) g_d a^dag sigma^-: |m, up> -> |m+1, down>, element sqrt(N(m+1)) g_d
        amp = math.sqrt(N * (m + 1)) * g_d
        h_q[idx(m + 1, 0), idx(m, 1)] = amp
        h_q[idx(m, 1), idx(m + 1, 0)] = amp

    def apply_exact(h, tau, vec):
        w, v = np.linalg.eigh(h)
        return v @ (np.exp(-1j * w * tau) * (v.conj().T @ vec))

    psi = np.zeros(dim, dtype=complex)
    psi[idx(0, 0)] = 1.0
    segments = []
    total = 0.0
    for l in range(1, N + 1):
        tau_c = math.pi / (2.0 * abs(eps))
        psi = apply_exact(h_c, tau_c, psi)
        total += tau_c
        segments.append(PulseSegment(
            l, "C", tau_c, float(abs(psi[idx(l - 1, 1)]) ** 2)
        ))
        tau_q = math.pi / (2.0 * math.sqrt(N * l) * abs(g_d))
        psi = apply_exact(h_q, tau_q, psi)
        total += tau_q
        segments.append(PulseSegment(
            l, "Q", tau_q, float(abs(psi[idx(l, 0)]) ** 2)
        ))

    return SfPulseResult(
        fidelity=float(abs(psi[idx(N, 0)]) ** 2),
        duration=total,
        segments=segments,
    )
