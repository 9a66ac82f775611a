"""Time-dependent Schrodinger propagation along a ramp plan.

`evolve` is the one integrator body, for Hermitian runs (decay=None) and
dissipative ones (H - i*D, never renormalized mid-flight) alike: the
fourth-order commutator-free Magnus scheme CF4:2 (Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011)). Per step it applies two exponentials
of H at weighted sums of the parameters at the two Gauss points (H is
linear in g, J and Delta), each by a Krylov iteration that stops on its
a-posteriori residual estimate. Without decay the step matrix is
Hermitian and the iteration is the Lanczos three-term recurrence (Park &
Light, J. Chem. Phys. 85, 5870 (1986)), whose real tridiagonal is
exponentiated through its eigendecomposition; with decay it is Arnoldi
with full modified Gram-Schmidt and a dense `expm` of its Hessenberg
matrix. Both use the bare CSR kernel `operators.matvec` into preallocated
vectors and in-place BLAS-1 updates.

`tol` bounds the error in the final state through its Richardson estimate:
for a fourth-order scheme the error of psi_2n is about ||psi_2n - psi_n|| / 15
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4). From `initial_steps`
the step count doubles until the safety-scaled estimate
||psi_2n - psi_n|| / RICHARDSON_SCALE <= tol * max(1, ||psi_2n||), then psi_2n
is returned; each exponential gets tol over their number in a run.
For an index r < 1, dH/dt diverges at t = 0, so steps are uniform in v
with t/T = v^q, q = 1/r_min, which keeps fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._compiled import blas, lapack
from .operators import HamiltonianTemplates, matvec
from .ramp import RampPlan

DEFAULT_TOL = 1e-8
DEFAULT_STEPS = 256
# 2^4 - 1 = 15 for a fourth-order scheme, halved for safety: at n = 1,024 on
# the T = 15pi ramp the /15 estimate ran 14% under the true error
RICHARDSON_SCALE = 7.5
MAX_REFINEMENTS = 6
MAX_KRYLOV = 24
NORM_BLOWUP_FACTOR = 1e6
GAUSS_NODES = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
# weights of H at the two Gauss points in a step's first exponential
CF4_WEIGHTS = np.array([3 + 2 * math.sqrt(3), 3 - 2 * math.sqrt(3)]) / 12
dznrm2, zaxpy, zdotc, zdscal, dstev = (blas.dznrm2, blas.zaxpy, blas.zdotc, blas.zdscal,
                                       lapack.dstev)


class PropagationError(RuntimeError):
    pass


class StepSizeUnderflow(PropagationError):
    """Refinement exhausted without meeting the tolerance."""


class NormBlowUp(PropagationError):
    """State norm exploded (non-Hermitian misuse)."""


@dataclass
class EvolutionResult:
    final_state: np.ndarray
    norm_drift: float
    step_count: int
    states: list = field(default_factory=list)  # psi at each checkpoint time
    error_estimate: float = 0.0  # ||psi_2n - psi_n|| / RICHARDSON_SCALE, accepted run


def fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """F = |<psi|phi>|^2 against a normalized target.

    psi may carry a non-unit norm (dissipative runs use the raw final
    amplitudes), in which case F scales with |c|^2 under psi -> c psi.
    """
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return float(abs(np.vdot(psi, phi)) ** 2)


def evolve(
    templates: HamiltonianTemplates,
    plan: RampPlan,
    psi0: np.ndarray,
    decay: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    initial_steps: int = DEFAULT_STEPS,
    checkpoints: int = 0,
) -> EvolutionResult:
    """Integrate i dpsi/dt = (H(t) - i D) psi from t = 0 to plan.total_time,
    to a state error within tol * max(1, ||psi||) by the scaled Richardson
    estimate ||psi_2n - psi_n|| / RICHARDSON_SCALE (the module docstring).

    `decay` is the real diagonal D (`templates.dissipative_rates`), None for
    H alone. With `checkpoints` = n >= 2 the run's segments end at n times,
    t = 0, t = T and evenly between, and `states` holds psi at each. The
    step count doubles at most MAX_REFINEMENTS times. A psi0 whose norm is
    zero or not finite raises ValueError.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (templates.dim,):
        raise ValueError(
            f"state has shape {psi0.shape}, basis dimension is {templates.dim}"
        )
    norm0 = np.linalg.norm(psi0)
    if not 0 < norm0 < math.inf:
        raise ValueError(f"psi0 has norm {norm0}: need a finite, nonzero state")
    steps = int(initial_steps)
    if steps < 1:
        raise ValueError(f"step count must be positive, got {initial_steps}")
    if checkpoints == 1:
        raise ValueError("checkpoints = 1 would record only t = 0; use 0 or >= 2")
    decay = np.zeros(templates.dim) if decay is None else decay
    blowup = NORM_BLOWUP_FACTOR * norm0 if decay.any() else None
    indices = [s.index for s in (plan.g, plan.J, plan.delta) if s.varies]
    q = max(1.0, 1.0 / min(indices, default=1.0))
    step = _cf4_stepper(templates, plan, decay, q)
    marks = np.linspace(0.0, 1.0, checkpoints)
    nodes = np.union1d([0.0, 1.0], marks) ** (1.0 / q)  # segment ends in v
    previous = None
    for _ in range(MAX_REFINEMENTS + 1):
        # about `steps` steps in all, at least one per segment
        counts = np.maximum(1, np.diff(np.rint(steps * nodes).astype(int)))
        exp_tol = tol / (2 * counts.sum())
        psi, saved = psi0, [psi0]
        try:
            for k, n in enumerate(counts):
                h = (nodes[k + 1] - nodes[k]) / n
                for j in range(n):
                    psi = step(psi, nodes[k] + j * h, h, exp_tol)
                    if blowup is not None and np.linalg.norm(psi) > blowup:
                        raise NormBlowUp(f"norm exceeded {blowup:.3g}")
                saved.append(psi)
        except StepSizeUnderflow:
            psi = None  # a step too long for the Krylov space: refine
        if psi is not None and previous is not None:
            estimate = float(np.linalg.norm(psi - previous)) / RICHARDSON_SCALE
            nrm = np.linalg.norm(psi)
            if estimate <= tol * max(1.0, nrm):
                # without checkpoints, saved holds only t = 0 and t = T
                return EvolutionResult(psi, float(abs(nrm / norm0 - 1.0)),
                                       int(counts.sum()), saved[:checkpoints], estimate)
        previous = psi
        steps *= 2
    raise StepSizeUnderflow(f"tolerance {tol} not met after {MAX_REFINEMENTS} "
                            f"refinements (final step count {steps // 2})")


def evolve_dissipative(
    templates: HamiltonianTemplates,
    plan: RampPlan,
    psi0: np.ndarray,
    kappa: float,
    gamma: float,
    convention: str = "literal-sigma-z",
    tol: float = DEFAULT_TOL,
    initial_steps: int = DEFAULT_STEPS,
    checkpoints: int = 0,
) -> EvolutionResult:
    """`evolve` with D = templates.dissipative_rates(kappa, gamma, convention)."""
    decay = templates.dissipative_rates(kappa, gamma, convention)
    return evolve(templates, plan, psi0, decay, tol, initial_steps, checkpoints)


def _cf4_stepper(templates, plan, decay, q):
    """CF4:2 step psi(v0) -> psi(v0 + h) in v, where t/T = v^q, on the
    integrator's own complex matrix on the templates' shared pattern. Without
    decay every step matrix is Hermitian, which `_expmv` is told once."""
    matrix = templates.assemble(0.0, 0.0, 0.0).astype(complex)
    data = np.empty(matrix.nnz)  # real: writing it into matrix.data is one cast
    minus_i_decay = -1j * decay
    hermitian = not decay.any()
    basis = np.empty((MAX_KRYLOV + 1, templates.dim), dtype=complex)

    def step(psi, v0, h, exp_tol):
        v = v0 + h * GAUSS_NODES
        points = np.array([[p.g, p.J, p.delta, 1.0]
                           for p in map(plan.params_at_fraction, v**q)])
        points *= (h * plan.total_time * q * v ** (q - 1.0))[:, None]  # dt/dv
        for weights in (CF4_WEIGHTS, CF4_WEIGHTS[::-1]):
            g, J, delta, dt = weights @ points
            matrix.data[:] = templates.data_for(g, J, delta, out=data)
            if not hermitian:
                matrix.data[templates.diag_positions] += dt * minus_i_decay
            psi = _expmv(matrix, psi, exp_tol, basis, hermitian)
        return psi

    return step


def _expmv(a, psi, tol, basis, hermitian):
    """exp(-i a) psi in a Krylov space, to within tol * max(1, ||psi||) by
    the residual estimate ||psi|| h_{m+1,m} |[exp(-i H_m) e_1]_m|. The dense
    exponential waits until the estimate's Taylor leading term,
    ||psi|| h_{2,1} ... h_{m+1,m} / (m-1)!, meets the tolerance. Raises
    StepSizeUnderflow when MAX_KRYLOV vectors do not reach it.

    a v_j goes by `operators.matvec` into basis[j + 1], which modified
    Gram-Schmidt turns into v_{j+1} in place by BLAS-1 calls: against
    v_{j-1} and v_j only for a `hermitian` a (<v_k, a v_j> = 0 for
    k < j - 1: the Lanczos three-term recurrence), against every earlier
    vector otherwise (Arnoldi). For a hermitian a, H_m is the real
    symmetric tridiagonal of Re <v_j, a v_j> and the norms h_{j+1,j} (the
    recomputed <v_{j-1}, a v_j> only orthogonalises: near an invariant
    start it carries alpha_{j-1} times the rounding left along v_{j-1}),
    and exp(-i H_m) e_1 = S exp(-i Theta) S^T e_1 from its
    eigendecomposition by LAPACK dstev; otherwise `expm` takes the complex
    Hessenberg H_m. The result is summed by axpy, not gemv, whose rounding
    changes with the BLAS thread count."""
    beta = dznrm2(psi)
    bound = tol * max(1.0, beta)
    if hermitian:
        band = np.empty((2, MAX_KRYLOV))  # diagonal, off-diagonal of H_m
    else:
        hess = np.zeros((MAX_KRYLOV + 1, MAX_KRYLOV), dtype=complex)
    np.multiply(psi, 1.0 / beta, out=basis[0])
    lead = beta
    for j in range(MAX_KRYLOV):
        w = matvec(a, basis[j], basis[j + 1])
        for k in range(max(j - 1, 0) if hermitian else 0, j + 1):
            c = zdotc(basis[k], w)
            zaxpy(basis[k], w, a=-c)
            if not hermitian:
                hess[k, j] = c
        h_next = dznrm2(w)
        if hermitian:
            band[0, j], band[1, j] = c.real, h_next
        else:
            hess[j + 1, j] = h_next
        lead *= h_next / max(j, 1)
        if lead <= bound:
            if not hermitian:
                from scipy.linalg import expm  # here, so only dissipative runs load it
                f = expm(-1j * hess[: j + 1, : j + 1])[:, 0]
            elif j:
                theta, s, _ = dstev(band[0, : j + 1], band[1, :j])
                f = s @ (np.exp(-1j * theta) * s[0])
            else:
                f = np.exp(-1j * band[0, :1])
            if beta * h_next * abs(f[j]) <= bound:
                f *= beta
                out = np.multiply(basis[0], f[0])
                for k in range(1, j + 1):
                    zaxpy(basis[k], out, a=f[k])
                return out
        zdscal(1.0 / h_next, w, overwrite_x=True)
    raise StepSizeUnderflow(f"{MAX_KRYLOV} Krylov vectors missed {tol:.3g}")
