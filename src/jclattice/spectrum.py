"""Eigenpairs, block-labelled spectra and gap scans.

The eigensolver is iterative Lanczos (scipy ARPACK) above a dense-fallback
cutoff and full `eigh` below it; the dense path doubles as the oracle in
tests. The cutoff sits near the measured single-thread crossover: at 200
states `eigh` and `eigsh(k=2)` cost the same, at 899 `eigsh` is about ten
times faster. The Lanczos start vector comes from a fixed seed: a naively
chosen deterministic vector such as all-ones can be *exactly* orthogonal
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
(`block_levels`); the gap over all sectors asks each block other than
the symmetric one for its lowest level only (`_any_gap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import HamiltonianTemplates, LatticeParams, symmetric_isometry
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
    try:
        w, v = spla.eigsh(h, k=k, which="SA", v0=v0, tol=1e-12)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK converged {len(exc.eigenvalues)}/{k} eigenvalues "
            f"(dim={dim})"
        ) from exc
    order = np.argsort(w)
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


def block_levels(blocks, p, count: int) -> list[tuple]:
    """The lowest `count` levels at parameters `p` over all `blocks`
    (templates from `operators.block_sectors`), ascending, each as
    (energy, block that holds it).

    A block of multiplicity m gives its lowest ceil(count / m) levels, each
    listed m times, as in the full spectrum. Equal levels keep the order
    of `blocks`.
    """
    levels = []
    for k, tpl in enumerate(blocks):
        width = tpl.block.multiplicity
        w, _ = _lowest_eigh(tpl.assemble(p.g, p.J, p.delta), -(-count // width))
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
    holds the lowest gap over all sectors (`_any_gap`). Each solve is
    warm-started from the previous point's in its block.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    if templates.translation is not None:
        raise ValueError("gap_scan needs templates on a symmetric sector")
    warm = [None] * (1 + len(blocks or ()))

    def gap_at(s: float):
        p = trajectory_point(plan, s)
        h = templates.assemble(p.g, p.J, p.delta)
        e0, e1, warm[0] = symmetric_pair(h, v0=warm[0])
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
            row.append(_any_gap(blocks, p, pair, warm))
        curve.append(tuple(row))

    i_min = int(np.argmin(gaps))  # argmin is leftmost on ties
    # flat within solver noise (eigsh tol 1e-12): leftmost-minimum tie-break
    flat = np.ptp(gaps) <= 1e-9 * max(1.0, float(np.abs(gaps).max()))
    if flat:
        i_min = 0
    if flat or i_min == 0 or i_min == resolution - 1:
        s_gp, gap_gp = float(svals[i_min]), float(gaps[i_min])
    else:
        s_gp, gap_gp = _golden_section(
            lambda s: gap_at(s)[0],
            float(svals[i_min - 1]), float(svals[i_min + 1]), refine_tol,
        )
    report = GapReport(s_gp, trajectory_point(plan, s_gp), gap_gp, curve)
    return report


def _any_gap(blocks, p, symmetric, warm) -> float:
    """Gap between the two lowest levels over all blocks at parameters `p`.

    `symmetric` holds the two lowest levels of the symmetric block; each
    other block gives its lowest, counted twice for a two-dimensional irrep,
    from a start at its previous vector (`warm[1:]`). Only when a
    one-dimensional block holds the overall ground state (possible for
    J < 0) is its second level needed: that block is solved again for two.
    """
    levels, lowest = list(symmetric), []
    for k, tpl in enumerate(blocks, start=1):
        h = tpl.assemble(p.g, p.J, p.delta)
        w, v = _lowest_eigh(h, 1, warm[k])
        warm[k] = v[:, 0]
        lowest.append((float(w[0]), k, h))
        levels += [float(w[0])] * tpl.block.multiplicity
    e, k, h = min(lowest, default=(np.inf, 0, None))
    if e < symmetric[0] and blocks[k - 1].block.multiplicity == 1:
        levels += [float(w) for w in _lowest_eigh(h, 2, warm[k])[0][1:]]
    levels.sort()
    return levels[1] - levels[0]


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
