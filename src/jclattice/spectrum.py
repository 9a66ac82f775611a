"""Eigenpairs, block-labelled spectra and gap scans.

The eigensolver is iterative Lanczos (scipy ARPACK) above a dense-fallback
cutoff and full `eigh` below it; the dense path doubles as the oracle in
tests. ARPACK applies a CSR matrix through the bare kernel
`operators.matvec`. The cutoff sits near the measured single-thread
crossover: `eigsh(k=2)` overtakes `eigh` between 155 and 190 states (at
192-208 states it is 1.4-2.1 times faster, 3-4.5 ms against 5-6.5 ms),
and at the 500 states of the six-site symmetric sector about ten times.
The Lanczos start vector comes from a fixed seed: a naively chosen
deterministic vector such as all-ones can be *exactly* orthogonal
to the ground state (it is, for the Mott product state), which stalls
Krylov convergence in exact arithmetic. Repeated solves along a
trajectory pass the previous ground vector as `v0` instead.

Symmetric states are the range of P P^T, where the isometry P
(`operators.symmetric_isometry`) holds one normalised orbit sum per
column. The runs use templates on the fully symmetric sector
(`operators.symmetric_sector`: k = 0 and mirror-even), whose matrices
are used as they are. The minimal gap along a ramping trajectory
(`gap_scan`) is the separation of the two lowest levels of that sector,
the two a ramp can reach. `symmetric_pair` also takes a full-space H
with its translation T and solves its k = 0 sector, P P^T = (1/L) sum_m T^m.
Levels over all sectors merge those of every real block of the dihedral
group (`operators.block_sectors`), each labelled by its block
(`block_levels`); the gap over all sectors adds the lowest level of the
other blocks to the symmetric pair, which holds the ground state for
J >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import (HamiltonianTemplates, LatticeParams, matvec,
                        symmetric_isometry)
from .ramp import RampPlan, trajectory_point

DENSE_CUTOFF = 200
DEGENERACY_TOL = 1e-9  # units of g; far below physical gaps, above solver noise
_LANCZOS_SEED = 20260811


class DegeneracyError(RuntimeError):
    """Lowest eigenvalues too close to separate reliably."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed; carries iteration diagnostics."""


@dataclass
class EigenPair:
    energy: float
    vector: np.ndarray


@dataclass
class GapReport:
    """Minimal symmetric-sector gap along a trajectory."""

    s: float
    params: LatticeParams
    gap: float
    curve: list = field(default_factory=list)  # (s, params, gap_sym[, gap_any]) rows


def start_vector(dim: int) -> np.ndarray:
    return np.random.default_rng(_LANCZOS_SEED).standard_normal(dim)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(v))
    if np.iscomplexobj(v):
        phase = v[lead] / abs(v[lead])
        return v / phase
    return v if v[lead] > 0 else -v


def _lowest_eigh(h, k: int, v0=None):
    dim = h.shape[0]
    k = min(k, dim)
    if dim <= DENSE_CUTOFF or k >= dim - 1:
        w, v = np.linalg.eigh(h.toarray() if sp.issparse(h) else np.asarray(h))
        return w[:k], v[:, :k]
    if v0 is None:
        v0 = start_vector(dim)
    op = h
    if sp.issparse(h) and h.format == "csr":  # the bare kernel, not `@`
        op = spla.LinearOperator(h.shape, dtype=h.dtype, matvec=lambda x: matvec(
            h, x, np.empty(dim, np.result_type(h.dtype, x.dtype))))
    try:
        w, v = spla.eigsh(op, k=k, which="SA", v0=v0, tol=1e-12)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK converged {len(exc.eigenvalues)}/{k} eigenvalues "
            f"(dim={dim})"
        ) from exc
    if w.max() > 0:
        # a zero row (a photon-free state at g = 0) is a level 0 that only v0
        # puts in the Krylov space: solve the rest, add each zero row once
        live = np.asarray(abs(h).sum(axis=1)).ravel() > 0
        if not live.all():
            w, v_live = _lowest_eigh(h[live][:, live], k)
            zero = np.flatnonzero(~live)[:k]
            v = np.zeros((dim, len(w) + len(zero)), v_live.dtype)
            v[live, :len(w)] = v_live
            v[zero, len(w) + np.arange(len(zero))] = 1
            w = np.concatenate([w, np.zeros(len(zero))])
    order = np.argsort(w, kind="stable")[:k]
    return w[order], v[:, order]


def ground_state(h, v0=None) -> EigenPair:
    """Lowest eigenpair with deterministic sign (largest amplitude positive).

    Raises DegeneracyError when the two lowest eigenvalues are closer than
    DEGENERACY_TOL. `v0`, a nearby ground vector, warm-starts the
    iterative solve.
    """
    w, v = _lowest_eigh(h, 2, v0)
    if len(w) > 1 and w[1] - w[0] < DEGENERACY_TOL:
        raise DegeneracyError(
            f"ground state degenerate within {DEGENERACY_TOL}: "
            f"E0={w[0]!r}, E1={w[1]!r}"
        )
    return EigenPair(float(w[0]), _fix_sign(v[:, 0]))


def block_levels(blocks, p, count: int, warm: list) -> list[tuple]:
    """The lowest `count` levels at parameters `p` over all `blocks`
    (templates from `operators.block_sectors`), ascending, each as
    (energy, block that holds it).

    A block of multiplicity m gives its lowest ceil(count / m) levels, each
    listed m times, as in the full spectrum. Equal levels keep the order
    of `blocks`. `warm` holds one start vector (or None) per block; each
    solve starts from its block's and leaves its lowest vector there.
    """
    levels = []
    for k, tpl in enumerate(blocks):
        width = tpl.block.multiplicity
        w, v = _lowest_eigh(tpl.assemble(p.g, p.J, p.delta), -(-count // width),
                            warm[k])
        warm[k] = v[:, 0]
        levels += [(float(e), k) for e in w for _ in range(width)]
    levels.sort()
    return [(e, blocks[k].block) for e, k in levels[:count]]


def symmetric_pair(h, translation=None, v0=None):
    """(E0, E1, ground vector) of the two lowest symmetric states.

    Without a `translation`, `h` acts on a symmetric sector already and
    these are its two lowest eigenpairs. Given the translation T of a
    full-space `h`, they are those of P^T h P, its k = 0 sector; the
    vector is mapped back to the space of `h`. `v0` (a previous result)
    warm-starts the solve.
    """
    p = None
    if translation is not None:
        p = symmetric_isometry(translation)
        h = p.T @ h @ p
        v0 = None if v0 is None else p.T @ v0
    if h.shape[0] < 2:
        raise ValueError("the symmetric sector holds one state: no symmetric gap")
    w, v = _lowest_eigh(h, 2, v0)
    vec = v[:, 0] if p is None else p @ v[:, 0]
    return float(w[0]), float(w[1]), vec


def gap_scan(
    templates: HamiltonianTemplates,
    plan: RampPlan,
    resolution: int = 33,
    refine_tol: float = 1e-4,
    blocks=None,
) -> GapReport:
    """Locate the minimal symmetric gap along the plan's trajectory.

    `templates` act on a symmetric sector (`operators.symmetric_sector`);
    the gap is that of its two lowest levels. Coarse scan over
    `resolution` equispaced s points, then golden-section refinement of s
    to `refine_tol` > 0. Flat scans report the leftmost minimum. Raises
    DegeneracyError when any sampled gap drops below 10x DEGENERACY_TOL
    (suspected level crossing). With `blocks`, the templates of every
    other dihedral block (`operators.block_sectors`), each coarse row also
    holds the gap over all sectors, from the symmetric pair and the lowest
    level of the other blocks (`block_levels`): enough for J >= 0, where
    the ground state is symmetric, so a plan that reaches J < 0 is
    refused. Each solve starts from the previous point's in its block.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    if templates.translation is not None:
        raise ValueError("gap_scan needs templates on a symmetric sector")
    if min(plan.J.start, plan.J.stop) < 0:
        raise ValueError("gap_scan needs J >= 0: below it the ground state "
                         "can leave the symmetric sector")
    previous, warm = None, [None] * len(blocks or ())

    def gap_at(s: float):
        nonlocal previous
        p = trajectory_point(plan, s)
        h = templates.assemble(p.g, p.J, p.delta)
        e0, e1, previous = symmetric_pair(h, v0=previous)
        gap = e1 - e0
        if gap < 10 * DEGENERACY_TOL:
            raise DegeneracyError(
                f"symmetric gap {gap!r} at s={s} suggests a level crossing"
            )
        return gap, p, (e0, e1)

    svals = np.linspace(0.0, 1.0, resolution)
    curve = []
    gaps = np.empty(resolution)
    for i, s in enumerate(svals):
        gap, p, pair = gap_at(s)
        gaps[i] = gap
        row = [float(s), p, gap]
        if blocks is not None:
            levels = sorted([*pair] + [e for e, b in block_levels(blocks, p, 1, warm)
                                       for _ in range(b.multiplicity)])
            row.append(levels[1] - levels[0])
        curve.append(tuple(row))

    # flat within solver noise (eigsh tol 1e-12): leftmost-minimum tie-break
    flat = np.ptp(gaps) <= 1e-9 * max(1.0, float(np.abs(gaps).max()))
    i_min = 0 if flat else int(np.argmin(gaps))  # argmin is leftmost on ties
    if i_min in (0, resolution - 1):
        s_gp, gap_gp = float(svals[i_min]), float(gaps[i_min])
    else:
        s_gp, gap_gp = _golden_section(
            lambda s: gap_at(s)[0],
            float(svals[i_min - 1]), float(svals[i_min + 1]), refine_tol,
        )
    return GapReport(s_gp, trajectory_point(plan, s_gp), gap_gp, curve)


def _golden_section(f, a: float, b: float, tol: float):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    s = (a + b) / 2.0
    return s, f(s)
