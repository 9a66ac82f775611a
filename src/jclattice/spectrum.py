"""Eigenpairs, block-labelled spectra and gap scans.

Every eigensolve runs the Lanczos recurrence (`_lanczos`) above a
dense-fallback cutoff and full `eigh` below it; the dense path doubles as
the oracle in tests. The recurrence applies any CSR matrix (`operators.Csr`
or scipy's) by the bare kernel `operators.matvec`. The cutoff is
conservative: on one BLAS thread a cold two-level solve to `VECTOR_TOL`
beats `eigh` at 114-155 states (0.9-1.3 ms against 1.5-1.8 ms), and at
the 500 states of the six-site symmetric sector takes 2.0 ms, not 29.7.
The Lanczos start vector (`start_vector`) hashes each index from a fixed
seed (splitmix64): a naively chosen deterministic vector such as all-ones
can be *exactly* orthogonal to the ground state (it is, for the Mott
product state), which stalls Krylov convergence in exact arithmetic. A
solve that restarts from an invariant Krylov space hashes from another
seed. Repeated solves along a trajectory pass the previous ground vector
as `v0` instead.

The runs use templates on the fully symmetric sector
(`operators.symmetric_sector`: k = 0 and mirror-even, built from orbit
representatives), whose matrices are used as they are. The minimal gap
along a ramping trajectory (`gap_scan`) is the separation of the two
lowest levels of that sector, the two a ramp can reach; its curve holds
that pair at each coarse point. `symmetric_pair`
also takes a full-space H with its translation T and solves its k = 0
sector, P^T H P, where the isometry P from `operators.symmetric_isometry`
holds one normalised translation-orbit sum per column:
P P^T = (1/L) sum_m T^m.

Levels over all sectors merge those of every real block of the dihedral
group (`operators.block_sectors`), each labelled by its block
(`block_levels`), each block walking the trajectory alone, warm-started
from its own previous lowest vector. The gap over all sectors
(`sweeps.run_gap_scan`) adds the lowest level of the other blocks to the
symmetric pair of `gap_scan`, which holds the ground state for J >= 0.
There each other block's warm-started solve stops once its lowest level
is shown above the symmetric E1 of that point (`block_levels` with
`bounds`), since it then cannot set the minimum.

Each solve stops once every wanted Ritz pair (theta, x) has a residual
||r|| = ||H x - theta x|| <= max(tol |theta|, m eps ||T_m||), read as
beta_m |s_mi| off the m x m tridiagonal matrix T_m; the second term is
the rounding floor, which a level at 0 needs. The error of theta is then
at most ||r||^2 / delta (Kato-Temple; Parlett, The Symmetric Eigenvalue
Problem, ch. 10), and that of x about ||r|| / delta, where delta is the
distance to the next level. So the tolerance follows from what a solve
reports:

- `VECTOR_TOL` (1e-12), the default, for solves whose vector is used:
  `ground_state` (ramp targets, checkpoints, rho1, the final fidelity).
  `block_levels` keeps it when it asks a block for several levels
  (`spectrum`): how many copies of a level degenerate within one block
  the recurrence returns depends on its rounding;
- `LEVEL_TOL` (1e-8), for solves that report only levels:
  `symmetric_pair`, whose vector only warm-starts the next point, and
  `block_levels` asking each block for its lowest level (the gap scan's
  `E_gap_any`). On both L = 6 gap trajectories this bounds each level's
  error by ||r||^2 / delta < 1e-13, and the levels agree with dense
  `eigh` to 1e-13.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._compiled import blas, lapack
from .operators import (Csr, HamiltonianTemplates, LatticeParams, matvec,
                        symmetric_isometry)
from .ramp import RampPlan, trajectory_point

DENSE_CUTOFF = 200
DEGENERACY_TOL = 1e-9  # units of g; far below physical gaps, above solver noise
VECTOR_TOL = 1e-12  # Lanczos tol of a solve whose vector is used
LEVEL_TOL = 1e-8  # Lanczos tol of a solve that reports only levels
LANCZOS_MAX_STEPS = 300  # steps of one solve
_LANCZOS_SEED = 20260811
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's state increment
_EPS = np.finfo(float).eps
daxpy, ddot, dnrm2, dscal = blas.daxpy, blas.ddot, blas.dnrm2, blas.dscal
dstebz, dstein = lapack.dstebz, lapack.dstein


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
    curve: list = field(default_factory=list)  # (s, params, E0, E1) rows


def start_vector(dim: int, seed: int) -> np.ndarray:
    """The first `dim` outputs of splitmix64 from `seed`, mapped to
    [-0.5, 0.5): a fixed vector with no pattern that a Hamiltonian's
    symmetries could make orthogonal to its ground state, computed in
    wrapping uint64 arithmetic without a random generator."""
    z = np.uint64(seed) + np.arange(1, dim + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return v if v[np.argmax(np.abs(v))] > 0 else -v


def _lowest_eigh(h, k: int, v0=None, tol: float = VECTOR_TOL, bound=None):
    """The lowest k eigenpairs of a symmetric CSR `h`, ascending. With a
    `bound`, a Lanczos solve may stop once its lowest level is shown above
    it (see `_lanczos`), and then returns no level, only its Ritz vector."""
    dim = h.shape[0]
    k = min(k, dim)
    if dim <= DENSE_CUTOFF or k >= dim - 1:
        w, v = np.linalg.eigh(h.toarray() if hasattr(h, "toarray") else np.asarray(h))
        return w[:k], v[:, :k]
    h = Csr(h.data, h.indices, h.indptr, h.shape)  # any CSR matrix
    # a cold start's first Ritz values can clear the bound while its Krylov
    # space barely holds a level below it (one 0.46 below, at J = 0.5 of the
    # six-site MI -> SF trajectory), and a zero row (such as a photon-free
    # state's at g = 0) is a level 0 that only v0 puts there: neither stops
    # early
    if v0 is None or bound is not None and bound >= 0 and not _live_rows(h).all():
        bound = None
    w, v = _lanczos(h, k, start_vector(dim, _LANCZOS_SEED) if v0 is None else v0,
                    tol, bound)
    if not len(w):  # above the bound
        return w, v
    if w.max() > 0:
        # solve the rest, add each zero row once
        live = _live_rows(h)
        if not live.all():
            w, v_live = _lowest_eigh(h.submatrix(live), k, tol=tol)
            zero = np.flatnonzero(~live)[:k]
            v = np.zeros((dim, len(w) + len(zero)), v_live.dtype)
            v[live, :len(w)] = v_live
            v[zero, len(w) + np.arange(len(zero))] = 1
            w = np.concatenate([w, np.zeros(len(zero))])
    order = np.argsort(w, kind="stable")[:k]
    return w[order], v[:, order]


def _live_rows(h: Csr) -> np.ndarray:  # rows that hold a nonzero entry
    return np.bincount(h.rows(), np.abs(h.data), h.shape[0]) > 0


def _lanczos(h, k: int, v0, tol: float, bound=None):
    """Lowest k eigenpairs of a real symmetric CSR `h` by the Lanczos
    recurrence.

    Each step writes h q_j by `operators.matvec` into row j + 1, which the
    three-term recurrence turns into q_{j+1}. For k = 1 nothing more is
    done: lost orthogonality only adds ghost copies of converged levels,
    never moves the lowest (Paige, Linear Algebra Appl. 34, 235 (1980)).
    For k > 1 each new row is also orthogonalised against all earlier
    ones, since a ghost of the lowest level would pose as the second.
    From step 8, every 4th step, the lowest k eigenpairs
    (theta_i, s_i) of the tridiagonal T_m (`_lowest_ritz`) give the
    residuals ||h x_i - theta_i x_i|| = beta_m |s_mi|, and the solve stops
    once each is at most max(tol |theta_i|, m eps ||T_m||), the second term
    being the rounding floor that a level at 0 meets.

    Given a `bound`, a solve also stops at a check step once
    theta_1 - beta_m |s_m1| > bound: some level lies within the residual of
    theta_1 (Parlett, The Symmetric Eigenvalue Problem, ch. 4), and that
    it is the lowest is what the tolerance stop assumes too, and it holds
    only for a v0 near the lowest vector (see `_lowest_eigh`). The solve
    then returns no level, only the Ritz vector of theta_1, which can still
    warm-start a solve nearby.

    A row that vanishes marks an invariant Krylov space, whose Ritz pairs
    are exact (beta_m = 0). For k = 1 it holds the lowest level that v0
    reaches, and the solve stops there. For k > 1 it holds only one copy of
    each level, so a fresh row orthogonal to all others starts a new block
    of T_m, and from then on the solve stops only once that block's own
    lowest Ritz value has also converged (at a check step, or exactly when
    the block closes in turn): the space orthogonal to the earlier blocks
    then holds nothing lower that the fresh row reaches. A space that
    fills all `dim` dimensions is final. Raises ConvergenceError after
    LANCZOS_MAX_STEPS steps.
    """
    dim = h.shape[0]
    rows = np.empty((LANCZOS_MAX_STEPS + 1, dim))
    alpha, beta = np.empty(LANCZOS_MAX_STEPS), np.empty(LANCZOS_MAX_STEPS)
    np.multiply(v0, 1.0 / dnrm2(v0), out=rows[0])
    scale = 0.0  # running estimate of ||T||
    fresh = 0  # first row of the block of T_m that is still growing
    for j in range(LANCZOS_MAX_STEPS):
        q, w = rows[j], matvec(h, rows[j], rows[j + 1])
        alpha[j] = a = ddot(q, w)
        daxpy(q, w, a=-a)
        if j:
            daxpy(rows[j - 1], w, a=-beta[j - 1])
        if k > 1:
            w -= (rows[:j + 1] @ w) @ rows[:j + 1]
        beta[j] = b = dnrm2(w)
        m = j + 1
        scale = max(scale, abs(a) + b + (beta[j - 1] if j else 0.0))
        floor = _EPS * m * scale
        invariant = b <= floor
        if invariant:
            beta[j] = b = 0.0
        # the first invariant space of a solve for several levels is never final
        if (k == 1 or fresh or m == dim) if invariant else (m >= 8 and m % 4 == 0):
            theta, s = _lowest_ritz(alpha[:m], beta[:m], k)
            tails = list(zip(theta, s[:, -1]))
            if fresh:  # and the lowest Ritz pair of the growing block
                t, sf = _lowest_ritz(alpha[fresh:m], beta[fresh:m], 1)
                tails += zip(t, sf[:, -1])
            done = len(theta) == k and all(b * abs(e) <= max(tol * abs(t), floor)
                                           for t, e in tails)
            if done or bound is not None and theta[0] - b * abs(s[0, -1]) > bound:
                x = s @ rows[:m]
                x /= np.linalg.norm(x, axis=1)[:, None]
                return theta if done else theta[:0], x.T
        if invariant:
            fresh = m
            w[:] = start_vector(dim, _LANCZOS_SEED + m)
            for _ in range(2):
                w -= (rows[:m] @ w) @ rows[:m]
            b = dnrm2(w)
        dscal(1.0 / b, w)
    raise ConvergenceError(
        f"Lanczos missed tol={tol:g} for the lowest {k} levels in "
        f"{LANCZOS_MAX_STEPS} steps (dim={dim})")


def _lowest_ritz(alpha, beta, k):
    """The lowest min(k, m) eigenvalues of the m x m tridiagonal T with
    diagonal `alpha` and off-diagonal `beta[:m - 1]`, grouped by the
    unreduced blocks of T (bisection, LAPACK dstebz), and their unit
    eigenvectors as rows (inverse iteration, LAPACK dstein), each on the
    block that holds its eigenvalue. Raises ConvergenceError when dstein
    does not converge."""
    m = len(alpha)
    # the wrappers want an off-diagonal entry even at m = 1, where none is read
    off = beta[:max(m - 1, 1)]
    found, theta, block, split, _ = dstebz(alpha, off, 2, 0.0, 0.0, 1, min(k, m),
                                           0.0, b"B")
    s, info = dstein(alpha, off, theta[:found], block, split)
    if info:
        raise ConvergenceError(f"dstein: {info} of {found} Ritz vectors did not "
                               f"converge (m={m})")
    return theta[:found], s.T


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


def block_levels(blocks, points, count: int, bounds=None) -> list[list[tuple]]:
    """The lowest `count` levels over all `blocks` (templates from
    `operators.block_sectors`) at each of the parameters `points`: one
    ascending list per point, each level as (energy, block that holds it).

    Each block walks the points in order, every solve starting from its
    previous lowest vector. A block of multiplicity m gives its lowest
    ceil(count / m) levels, each listed m times, as in the full spectrum;
    one asked for one level is solved to `LEVEL_TOL`, one asked for several
    to `VECTOR_TOL`. Levels within DEGENERACY_TOL of the lowest of them are
    one level: their energies stay ascending, and their blocks keep the
    order of `blocks`, not that of the solvers' rounding.

    With `bounds`, one per point, a block's warm-started solve may stop once
    its lowest level there is shown above that point's bound, and the block
    then gives no level at that point. The bounds are fixed in advance, not
    the levels of other blocks, so no block's walk depends on another's.
    """
    levels = [[] for _ in points]
    bounds = [None] * len(points) if bounds is None else bounds
    for k, tpl in enumerate(blocks):
        width, v0 = tpl.block.multiplicity, None
        wanted = -(-count // width)
        for at, p, bound in zip(levels, points, bounds):
            w, v = _lowest_eigh(tpl.assemble(p.g, p.J, p.delta), wanted, v0,
                                LEVEL_TOL if wanted == 1 else VECTOR_TOL, bound)
            v0 = v[:, 0]
            at += [(float(e), k) for e in w for _ in range(width)]
    merged = []
    for at in levels:
        at.sort()
        lowest, grouped = -np.inf, []
        for e, k in at:
            if e - lowest >= DEGENERACY_TOL:
                lowest = e
            grouped.append((lowest, k))
        grouped.sort()
        merged.append([(e, blocks[k].block) for (e, _), (_, k) in zip(at[:count], grouped)])
    return merged


def symmetric_pair(h, translation=None, v0=None):
    """(E0, E1, ground vector) of the two lowest symmetric states.

    Without a `translation`, `h` acts on a symmetric sector already and
    these are its two lowest eigenpairs. Given the translation T of a
    full-space `h`, they are those of P^T h P, its k = 0 sector; the
    vector is mapped back to the space of `h`. `v0` (a previous result)
    warm-starts the solve. The solve stops at `LEVEL_TOL`: the vector is
    meant for warm starts, not as a state.
    """
    p = None
    if translation is not None:
        p, rows = symmetric_isometry(translation), Csr.rows(h)  # P: one entry a row
        h = Csr.from_coo(h.data * p.data[rows] * p.data[h.indices], p.indices[rows],
                         p.indices[h.indices], (p.shape[1],) * 2)
        v0 = None if v0 is None else p.T @ v0
    if h.shape[0] < 2:
        raise ValueError("the symmetric sector holds one state: no symmetric gap")
    w, v = _lowest_eigh(h, 2, v0, LEVEL_TOL)
    vec = v[:, 0] if p is None else p @ v[:, 0]
    return float(w[0]), float(w[1]), vec


def gap_scan(
    templates: HamiltonianTemplates,
    plan: RampPlan,
    resolution: int = 33,
    refine_tol: float = 1e-4,
) -> GapReport:
    """Locate the minimal symmetric gap along the plan's trajectory.

    `templates` act on the (0, +) block (`operators.symmetric_sector`);
    the gap is that of its two lowest levels (`symmetric_pair`), each
    solve starting from the previous point's vector. Coarse scan over
    `resolution` equispaced s points, each a curve row (s, params, E0,
    E1), then golden-section refinement of s to `refine_tol` > 0. Flat
    scans report the leftmost minimum. Raises DegeneracyError when any
    sampled gap drops below 10x DEGENERACY_TOL (suspected level crossing).
    A plan that reaches J < 0, where the ground state can leave the
    symmetric sector, is refused.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    if templates.block is None or (templates.block.q, templates.block.parity) != (0, 1):
        raise ValueError("gap_scan needs templates on the (0, +) block")
    if min(plan.J.start, plan.J.stop) < 0:
        raise ValueError("gap_scan needs J >= 0: below it the ground state "
                         "can leave the symmetric sector")
    previous = None

    def pair_at(s: float):
        nonlocal previous
        p = trajectory_point(plan, s)
        h = templates.assemble(p.g, p.J, p.delta)
        e0, e1, previous = symmetric_pair(h, v0=previous)
        gap = e1 - e0
        if gap < 10 * DEGENERACY_TOL:
            raise DegeneracyError(
                f"symmetric gap {gap!r} at s={s} suggests a level crossing"
            )
        return float(s), p, e0, e1

    def gap_at(s: float) -> float:
        _, _, e0, e1 = pair_at(s)
        return e1 - e0

    svals = np.linspace(0.0, 1.0, resolution)
    curve = [pair_at(s) for s in svals]
    gaps = np.array([e1 - e0 for _, _, e0, e1 in curve])

    # flat within solver noise (LEVEL_TOL bounds each level's error by
    # ||r||^2 / delta, under 1e-13 at L = 6): leftmost-minimum tie-break
    flat = np.ptp(gaps) <= 1e-9 * max(1.0, float(np.abs(gaps).max()))
    i_min = 0 if flat else int(np.argmin(gaps))  # argmin is leftmost on ties
    if i_min in (0, resolution - 1):
        s_gp, gap_gp = float(svals[i_min]), float(gaps[i_min])
    else:
        s_gp, gap_gp = _golden_section(
            gap_at, float(svals[i_min - 1]), float(svals[i_min + 1]), refine_tol,
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
