"""The symmetric-sector fast path against the full-space path it replaces.

The sector holds the states invariant under translations and the mirror
(k = 0, mirror-even). The per-state loops below are the operator builders
as they were before array ranking; they stay here as an oracle only. The
deflation oracle is the earlier symmetric-gap method: the lowest
eigenvalues of P0 H P0 + c (1 - P0), with P0 summed from powers of T and,
for the sector, averaged with the mirror R.
"""

import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from jclattice import basis, sweeps
from jclattice.basis import (
    LatticeShape,
    ResourceLimitError,
    SectorError,
    enumerate_basis,
)
from jclattice.cli import main
from jclattice.config import GridSpec, RunConfig, load_config
from jclattice.operators import (
    Block,
    DihedralOrbits,
    HamiltonianTemplates,
    block_sectors,
    build_correlator,
    build_coupling,
    build_hopping,
    build_translation,
    dihedral_blocks,
    symmetric_isometry,
    symmetric_sector,
)
from jclattice.propagate import evolve, evolve_dissipative, fidelity
from jclattice.ramp import RampPlan, RampSchedule, trajectory_point
from jclattice.spectrum import (
    _LANCZOS_SEED,
    _lowest_eigh,
    block_levels,
    gap_scan,
    ground_state,
    start_vector,
    symmetric_pair,
)
from jclattice.states import mi_ground_state, sf_ground_state
from jclattice.sweeps import _journal, _load_progress, run_phase_diagram, run_rho1_map

from conftest import (basis_states, block_isometries, index_of, oracle_blocks,
                      restricted, sparse, translate_config)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHAPES = [LatticeShape(L, L) for L in range(2, 7)]
POINTS = [(1.0, 0.05, 0.0), (1.0, 0.2, -0.5), (0.7, 0.35, 0.6)]
_CACHE = {}


def pair(shape):
    """(table, full-space templates, symmetric-sector templates), cached."""
    if shape not in _CACHE:
        table = enumerate_basis(shape)
        _CACHE[shape] = (table, HamiltonianTemplates(table), symmetric_sector(table))
    return _CACHE[shape]


# --- loop-built oracle -----------------------------------------------------

def _loop_index(table):
    return {c: i for i, c in enumerate(basis_states(table))}


def loop_coupling(table):
    index = _loop_index(table)
    rows, cols, vals = [], [], []
    for i, config in enumerate(basis_states(table)):
        for j, (n, s) in enumerate(config):
            if s != 1:
                continue
            flipped = list(config)
            flipped[j] = (n + 1, 0)
            k = index[tuple(flipped)]
            amp = np.sqrt(n + 1)
            rows += [k, i]
            cols += [i, k]
            vals += [amp, amp]
    return rows, cols, vals


def loop_hopping(table):
    index = _loop_index(table)
    L = table.shape.sites
    rows, cols, vals = [], [], []
    for i, config in enumerate(basis_states(table)):
        for j in range(L if L > 1 else 0):
            jp = (j + 1) % L
            n_from, s_from = config[jp]
            if n_from == 0:
                continue
            n_to, s_to = config[j]
            moved = list(config)
            moved[jp] = (n_from - 1, s_from)
            moved[j] = (n_to + 1, s_to)
            k = index[tuple(moved)]
            amp = np.sqrt(n_from) * np.sqrt(n_to + 1)
            rows += [k, i]
            cols += [i, k]
            vals += [amp, amp]
    return rows, cols, vals


def loop_correlator(table, i, j):
    index = _loop_index(table)
    si, sj = i - 1, j - 1
    rows, cols, vals = [], [], []
    for b, config in enumerate(basis_states(table)):
        n_from, s_from = config[sj]
        if n_from == 0:
            continue
        n_to, s_to = config[si]
        moved = list(config)
        moved[sj] = (n_from - 1, s_from)
        moved[si] = (n_to + 1, s_to)
        rows.append(index[tuple(moved)])
        cols.append(b)
        vals.append(np.sqrt(n_from) * np.sqrt(n_to + 1))
    return rows, cols, vals


def loop_translation(table):
    index = _loop_index(table)
    rows = [index[translate_config(c, 1)] for c in basis_states(table)]
    return rows, list(range(table.dim)), [1.0] * table.dim


def loop_reflection(table):
    index = _loop_index(table)
    rows = [index[tuple(reversed(c))] for c in basis_states(table)]
    return rows, list(range(table.dim)), [1.0] * table.dim


def loop_mi(table, delta, g):
    from jclattice.states import polariton_doublet

    amp_photon, amp_qubit = polariton_doublet(1, delta, g).lower_amplitudes
    psi = np.zeros(table.dim)
    for i, config in enumerate(basis_states(table)):
        amp = 1.0
        for n, s in config:
            if (n, s) == (1, 0):
                amp *= amp_photon
            elif (n, s) == (0, 1):
                amp *= amp_qubit
            else:
                amp = 0.0
                break
        psi[i] = amp
    return psi


def loop_sf(table):
    N = table.shape.excitations
    psi = np.zeros(table.dim)
    for i, config in enumerate(basis_states(table)):
        if any(s for _, s in config):
            continue
        denom = 1
        for n, _ in config:
            denom *= math.factorial(n)
        psi[i] = math.sqrt(math.factorial(N) / denom) * N ** (-N / 2.0)
    return psi


def as_csr(entries, dim):
    m = sp.csr_matrix((np.asarray(entries[2], float), entries[:2]),
                      shape=(dim, dim))
    m.sum_duplicates()
    m.sort_indices()
    return m


def assert_same(a, b):
    a, b = a.tocsr(), b.tocsr()
    a.sort_indices()
    b.sort_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("L,N", [(1, 2), (2, 1), (2, 3), (3, 3), (4, 2),
                                 (4, 4), (5, 3)])
def test_rank_built_operators_equal_loop_built(L, N):
    table = enumerate_basis(LatticeShape(L, N))
    dim = table.dim
    assert_same(sparse(build_coupling(table)), as_csr(loop_coupling(table), dim))
    assert_same(sparse(build_hopping(table)), as_csr(loop_hopping(table), dim))
    assert_same(sparse(build_translation(table)), as_csr(loop_translation(table), dim))
    for i, j in [(1, L), (L, 1), (1, 1 + L // 2)]:
        if i != j:
            assert_same(sparse(build_correlator(table, i, j)),
                        as_csr(loop_correlator(table, i, j), dim))
    if L == N:
        assert np.array_equal(mi_ground_state(table, 0.3, 1.0),
                              loop_mi(table, 0.3, 1.0))
        assert np.allclose(sf_ground_state(table), loop_sf(table),
                           rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("L,N", [(1, 2), (2, 1), (2, 3), (3, 3), (4, 2),
                                 (4, 4), (5, 3)])
def test_orbit_images_equal_loop_built(L, N):
    table = enumerate_basis(LatticeShape(L, N))
    orbits = DihedralOrbits(table)
    images = {e: table.rank(image) for e, image in orbits.images(table.keys)}
    assert sorted(images) == list(range(2 * L))
    # element 1 undoes the one-site shift, element L is the mirror
    assert np.array_equal(images[1][loop_translation(table)[0]], np.arange(table.dim))
    assert np.array_equal(images[L], loop_reflection(table)[0])
    # the elements compose as (e o u) x = e (u x)
    for e in range(2 * L):
        assert np.array_equal(images[e][images[orbits.inverse[e]]], np.arange(table.dim))
        for u in range(2 * L):
            assert np.array_equal(images[orbits.compose[e, u]], images[e][images[u]])
    # canonical keys, representatives and orbit sizes from the loop-built orbits
    states = basis_states(table)
    orbit = [{translate_config(c, m) for m in range(L)}
             | {tuple(reversed(translate_config(c, m))) for m in range(L)} for c in states]
    smallest = [min(_loop_index(table)[c] for c in o) for o in orbit]
    assert np.array_equal(orbits.canonical, table.keys[smallest])
    reps = np.unique(smallest)
    assert np.array_equal(orbits.reps, table.keys[reps])
    sizes = [len(orbit[a]) for a in reps]
    assert np.array_equal(2 * L // orbits.stabiliser.sum(axis=1), sizes)


def test_rank_rejects_configurations_outside_the_table():
    table = enumerate_basis(LatticeShape(2, 1))
    with pytest.raises(SectorError):
        index_of(table, ((2, -1), (0, 0)))
    with pytest.raises(SectorError):
        table.rank(np.array([table.keys[-1] + 1]))


def test_configuration_keys_refuse_int64_overflow():
    # radix 4 over 40 sites needs 80 bits; the sector itself is tiny
    with pytest.raises(ResourceLimitError):
        enumerate_basis(LatticeShape(40, 1))


# --- isometry ---------------------------------------------------------------

def loop_projector(v, translation, sites):
    acc, w = v.copy(), v
    for _ in range(sites - 1):
        w = translation @ w
        acc = acc + w
    return acc / sites


@pytest.mark.parametrize("shape", SHAPES[:4], ids=str)
def test_isometry_spans_the_symmetric_projector(shape):
    table = enumerate_basis(shape)
    t = build_translation(table)
    p = sparse(symmetric_isometry(t))
    gram = (p.T @ p).toarray()
    assert np.allclose(gram, np.eye(p.shape[1]), atol=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(3):
        v = rng.standard_normal(table.dim)
        assert np.allclose(p @ (p.T @ v), loop_projector(v, t, shape.sites),
                           atol=1e-14)
    # a relabelled basis has the same orbits
    perm = rng.permutation(table.dim)
    q = sp.csr_matrix((np.ones(table.dim), (perm, np.arange(table.dim))))
    p2 = sparse(symmetric_isometry((q @ sparse(t) @ q.T).tocsr()))
    assert p2.shape == p.shape
    assert np.allclose((p2 @ p2.T).toarray(), (q @ p @ p.T @ q.T).toarray())


def test_isometry_refuses_a_non_permutation():
    with pytest.raises(ValueError):
        symmetric_isometry(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 1.0]])))


@pytest.mark.parametrize("shape", SHAPES[:4], ids=str)
def test_dihedral_isometry_spans_the_group_average(shape):
    table = enumerate_basis(shape)
    t, r = sparse(build_translation(table)), as_csr(loop_reflection(table), table.dim)
    p = sparse(symmetric_sector(table).isometry)
    assert np.allclose((p.T @ p).toarray(), np.eye(p.shape[1]), atol=1e-15)
    average = sp.csr_matrix((table.dim, table.dim))
    power = sp.identity(table.dim, format="csr")
    for _ in range(shape.sites):
        average = average + power + power @ r
        power = (t @ power).tocsr()
    average = average.toarray() / (2 * shape.sites)
    assert np.allclose((p @ p.T).toarray(), average, atol=1e-15)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_blocks_commute_with_the_mirror_exactly(shape):
    table, full, _ = pair(shape)
    r = as_csr(loop_reflection(table), table.dim)
    for block in (sparse(full.coupling), sparse(full.hopping), sp.diags(full.number_diag)):
        block = sp.csr_matrix(block)
        assert_same((r @ block).tocsr(), (block @ r).tocsr())


def test_symmetric_sector_dimensions():
    assert pair(LatticeShape(6, 6))[2].dim == 500
    table = enumerate_basis(LatticeShape(7, 7))
    assert symmetric_sector(table).isometry.shape == (28814, 2122)


# --- dihedral blocks ---------------------------------------------------------

def loop_orbits(table):
    """Translation orbits, each as the state indices a, T a, T^2 a, ..."""
    index, seen, orbits = _loop_index(table), set(), []
    for config in basis_states(table):
        if config not in seen:
            orbit = [config]
            while translate_config(orbit[-1], 1) != config:
                orbit.append(translate_config(orbit[-1], 1))
            seen.update(orbit)
            orbits.append([index[c] for c in orbit])
    return orbits


def momentum_levels(table, h):
    """Eigenvalues of h, merged from dense eigh of each complex momentum
    block (Bloch sums over translation orbits, from loops)."""
    L, levels = table.shape.sites, []
    orbits = loop_orbits(table)
    for q in range(L):
        rows, cols, vals = [], [], []
        for c, orbit in enumerate(o for o in orbits if (q * len(o)) % L == 0):
            n = len(orbit)
            rows += orbit
            cols += [c] * n
            vals += [np.exp(2j * np.pi * q * m / L) / math.sqrt(n) for m in range(n)]
        p = sp.csr_matrix((vals, (rows, cols)), shape=(table.dim, c + 1))
        levels += list(np.linalg.eigvalsh((p.conj().T @ h @ p).toarray()))
    return np.sort(levels)


GENERIC = (0.83, 0.27, -0.31)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_blocks_are_isometries_onto_invariant_subspaces(shape):
    table, full, _ = pair(shape)
    h = sparse(full.assemble_copy(*GENERIC))
    blocks = block_sectors(table)
    assert sum(b.block.multiplicity * b.dim for b in blocks) == table.dim
    assert blocks[0].block == Block(0, 1, shape.sites)
    for b, p in zip(blocks, block_isometries(table, [b.block for b in blocks])):
        assert abs(p.T @ p - sp.identity(b.dim)).max() <= 1e-12
        hp = h @ p
        assert abs(hp - p @ (p.T @ hp)).max() <= 1e-12
        assert abs(sparse(b.assemble_copy(*GENERIC)) - p.T @ hp).max() <= 1e-12


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_merged_block_spectra_equal_the_full_spectrum(shape):
    table, full, _ = pair(shape)
    h = sparse(full.assemble_copy(*GENERIC))
    merged = np.sort([w for b in block_sectors(table) for w in
                      np.linalg.eigvalsh(b.assemble_copy(*GENERIC).toarray())
                      for _ in range(b.block.multiplicity)])
    if shape.sites <= 5:
        reference = np.linalg.eigvalsh(h.toarray())
    else:  # dense eigh of all 5336 states takes about 20 s
        merged, reference = merged[:10], momentum_levels(table, h)[:10]
    assert np.abs(merged - reference).max() <= 1e-10


@pytest.mark.parametrize("shape", [LatticeShape(1, 0), LatticeShape(1, 2),
                                   LatticeShape(2, 0), LatticeShape(3, 0)]
                         + SHAPES, ids=str)
def test_block_dimensions_follow_the_character_formula(shape):
    # a one-dimensional irrep's block has (1/2L) sum_g chi(g) fix(g) states,
    # over g = T^m and R T^m; a two-dimensional irrep's cosine row has
    # (1/L) sum_m cos(2 pi q m / L) fix(T^m); fix(g) is counted by loops
    table, L = pair(shape)[0], shape.sites
    states = basis_states(table)
    fix_t = [sum(translate_config(c, m) == c for c in states) for m in range(L)]
    fix_rt = [sum(tuple(reversed(translate_config(c, m))) == c for c in states)
              for m in range(L)]
    orbits = DihedralOrbits(table)
    for block in dihedral_blocks(L):
        columns = np.count_nonzero(orbits.columns(block)[1] >= 0)
        cos = [math.cos(2 * math.pi * block.q * m / L) for m in range(L)]
        if block.multiplicity == 1:
            dim = sum(c * (t + block.parity * r)
                      for c, t, r in zip(cos, fix_t, fix_rt)) / (2 * L)
        else:
            dim = sum(c * t for c, t in zip(cos, fix_t)) / L
        assert abs(dim - round(dim)) < 1e-9
        assert columns == round(dim), block


def loop_symmetric_isometry(table):
    """The fully symmetric isometry as first built: columns by the smallest
    index in each dihedral orbit, entries 1 / sqrt(orbit size)."""
    index = _loop_index(table)
    label = np.arange(table.dim)
    for orbit in loop_orbits(table):
        mirrored = [index[tuple(reversed(basis_states(table)[i]))] for i in orbit]
        label[orbit + mirrored] = min(orbit + mirrored)
    _, column, sizes = np.unique(label, return_inverse=True, return_counts=True)
    return sp.csr_matrix((1.0 / np.sqrt(sizes[column]), (np.arange(table.dim), column)),
                         shape=(table.dim, len(sizes)))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_symmetric_block_is_the_symmetric_sector_bit_for_bit(shape):
    table, _, sector = pair(shape)
    for p in (block_sectors(table)[0].isometry, loop_symmetric_isometry(table),
              block_isometries(table, [Block()])[0]):
        for name in ("shape", "indptr", "indices", "data"):
            a, b = getattr(p, name), getattr(sector.isometry, name)
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


ORACLE_SHAPES = [(1, 0), (2, 0), (3, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 1),
                 (3, 3), (4, 2), (4, 4), (4, 6), (5, 3), (5, 5), (6, 2), (6, 4),
                 (6, 6)]


@pytest.mark.parametrize("L,N", ORACLE_SHAPES)
def test_representative_blocks_equal_the_restricted_full_space_operators(L, N):
    table = enumerate_basis(LatticeShape(L, N))
    blocks = dihedral_blocks(L)
    oracle = [(block, parts) for block, parts in
              zip(blocks, oracle_blocks(table, blocks)) if parts[0].shape[1]]
    built = block_sectors(table)
    assert [tpl.block for tpl in built] == [block for block, _ in oracle]
    for tpl, (block, (p, number, qubits, coupling, hopping)) in zip(built, oracle):
        assert tpl.dim == p.shape[1]
        assert np.array_equal(tpl.number_diag, number)
        assert np.array_equal(tpl.qubit_up_diag, qubits)
        for m, ref in ((sparse(tpl.coupling), coupling), (sparse(tpl.hopping), hopping)):
            assert (m != m.T).nnz == 0
            assert abs(m - ref).max() <= 1e-13
        if block[:2] == (0, 1):
            for name in ("shape", "indptr", "indices", "data"):
                assert np.array_equal(getattr(tpl.isometry, name), getattr(p, name))
        else:
            assert tpl.isometry is None


@pytest.mark.parametrize("L", [4, 5, 6, 7])
def test_group_averaged_correlator_is_the_symmetric_part_of_the_restricted_one(L):
    table = enumerate_basis(LatticeShape(L, L))
    orbits = DihedralOrbits(table)
    p = orbits.templates(Block()).isometry
    for i, j in [(1, 4), (1, 1), (2, 3)]:
        ref = restricted(sparse(build_correlator(table, i, j)), sparse(p))
        assert abs(sparse(orbits.correlator(Block(), i, j)) - ref).max() <= 1e-14


def test_a_block_that_does_not_fit_the_ring_is_refused():
    # q L / sites = 6/4 names no momentum of a six-site ring
    orbits = DihedralOrbits(pair(LatticeShape(6, 6))[0])
    with pytest.raises(ValueError, match="does not fit"):
        orbits.templates(Block(1, 1, 4))
    half = orbits.templates(Block(2, 1, 12))
    same = orbits.templates(Block(1, 1, 6))
    assert (half.dim, same.dim) == (882, 882)
    assert_same(sparse(half.coupling), sparse(same.coupling))
    assert_same(sparse(half.hopping), sparse(same.hopping))


def test_no_run_builds_a_full_space_operator(tmp_path, monkeypatch):
    import sys

    import jclattice.operators as operators

    def refuse(*args, **kwargs):
        raise AssertionError("a run built a full-space operator")

    package = [module for name, module in sys.modules.items()
               if name == "jclattice" or name.startswith("jclattice.")]
    for name in ("build_coupling", "build_hopping", "build_correlator",
                 "build_translation"):
        original = getattr(operators, name)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    base = "L = 4\nN = 4\nT = 2pi\nJT = 0.3\nsteps = 64\ntol = 1e-4\n"
    runs = {
        "ramp": "",
        "rj-sweep": "rJ_values = 1, 2\n",
        "phase-diagram": "JT_min = 0.1\nJT_max = 0.3\nJT_points = 2\n"
                         "dT_min = 0\ndT_max = 0\ndT_points = 1\n",
        "rho1-map": "J_min = 0.1\nJ_max = 0.3\nJ_points = 2\n"
                    "d_min = 0\nd_max = 0\nd_points = 1\n",
        "gap-scan": "resolution = 16\n",
        "spectrum": "resolution = 16\ncount = 4\n",
    }
    for command, text in runs.items():
        path = tmp_path / f"{command}.cfg"
        path.write_text(base + text)
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert out.exists()


def test_gap_scan_refuses_a_plan_below_zero_hopping():
    # for J < 0 the gauge a_j, sigma_j -> (-1)^j a_j, (-1)^j sigma_j maps H
    # to H(-J) and shifts the momentum by pi N: with N = 5 the two lowest
    # levels lie in (2, -), below the symmetric block, whose pair then
    # bounds no gap over all sectors
    table = enumerate_basis(LatticeShape(4, 5))
    full = HamiltonianTemplates(table)
    sector = symmetric_sector(table)
    plan = RampPlan(RampSchedule(0.2, 0.2), RampSchedule(-0.25, -0.4),
                    RampSchedule(1.0, 1.0), 1.0)
    for s in np.linspace(0.0, 1.0, 4):
        p = trajectory_point(plan, float(s))
        w = np.linalg.eigvalsh(full.assemble_copy(p.g, p.J, p.delta).toarray())
        e0 = ground_state(sector.assemble_copy(p.g, p.J, p.delta)).energy
        assert e0 > w[1] + 1e-3
    for j in [(-0.25, -0.4), (-0.1, 0.5), (0.5, -0.1)]:
        plan = RampPlan(plan.g, RampSchedule(*j), plan.delta, plan.total_time)
        with pytest.raises(ValueError, match="symmetric sector"):
            gap_scan(sector, plan, resolution=16)


def test_gap_scan_refuses_every_block_but_the_symmetric_one():
    # the (0, -) block has a gap of its own (0.538 at J = 0.5, L = N = 4),
    # which is no symmetric gap
    table = enumerate_basis(LatticeShape(4, 4))
    plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.5),
                    RampSchedule(0.0, 0.0), 1.0)
    for tpl in block_sectors(table)[1:]:
        with pytest.raises(ValueError, match=r"\(0, \+\) block"):
            gap_scan(tpl, plan, resolution=16)
    gap_scan(DihedralOrbits(table).templates(Block()), plan, resolution=16)


# --- spectra ----------------------------------------------------------------

def deflation_oracle(h, translation, sites, dense: bool, reflection=None):
    """Two lowest eigenvalues of P0 H P0 + c (1 - P0); with the mirror,
    P0 is the dihedral average P0 (1 + R) / 2."""
    dim = h.shape[0]
    c = float(np.abs(h).sum(axis=1).max()) + 1.0

    def deflated(v):
        pv = loop_projector(v, translation, sites)
        if reflection is not None:
            pv = (pv + loop_projector(reflection @ v, translation, sites)) / 2
        return h @ pv + c * (v - pv)

    if dense:
        m = np.column_stack([deflated(col) for col in np.eye(dim)])
        return np.linalg.eigvalsh((m + m.T) / 2)[:2]
    op = spla.LinearOperator((dim, dim), matvec=deflated, dtype=float)
    w = spla.eigsh(op, k=2, which="SA", v0=start_vector(dim, _LANCZOS_SEED), tol=1e-12,
                   return_eigenvectors=False)
    return np.sort(w)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_sector_ground_energies_and_gaps_match_full_space(shape):
    table, full, sector = pair(shape)
    for g, J, delta in POINTS:
        h_full = full.assemble_copy(g, J, delta)
        h_sector = sector.assemble_copy(g, J, delta)
        e_full = ground_state(h_full).energy
        assert ground_state(h_sector).energy == pytest.approx(e_full, abs=1e-10)

        e0, e1, _ = symmetric_pair(h_sector)
        ref = deflation_oracle(sparse(h_full), full.translation, shape.sites,
                               dense=table.dim <= 1100,
                               reflection=as_csr(loop_reflection(table),
                                                 table.dim))
        assert e0 == pytest.approx(ref[0], abs=1e-10)
        assert e1 - e0 == pytest.approx(ref[1] - ref[0], abs=1e-10)
        # the full-space entry point projects onto k = 0, whose two lowest
        # levels are mirror-even here
        f0, f1, _ = symmetric_pair(h_full, full.translation)
        assert (f0, f1) == pytest.approx((e0, e1), abs=1e-10)


@pytest.mark.parametrize("config", ["gap_mi_sf.cfg", "gap_sf_mi.cfg"])
def test_symmetric_pair_on_the_gap_trajectories_equals_the_k0_pair(config):
    plan = load_config(CONFIGS / config).plan
    _, full, sector = pair(LatticeShape(6, 6))
    for s in np.linspace(0.0, 1.0, 33):
        p = trajectory_point(plan, float(s))
        e0, e1, _ = symmetric_pair(sector.assemble_copy(p.g, p.J, p.delta))
        k0 = symmetric_pair(full.assemble_copy(p.g, p.J, p.delta), full.translation)
        assert (e0, e1) == pytest.approx(k0[:2], abs=1e-10)


def test_sector_matrix_is_exactly_symmetric():
    # at L = 6, P^T B P alone is off by one ulp in a few entries
    _, _, sector = pair(LatticeShape(6, 6))
    h = sparse(sector.assemble_copy(1.0, 0.3, -0.2))
    assert (h != h.T).nnz == 0
    assert sector.translation is None  # no T is left to apply on a block


# --- ramps --------------------------------------------------------------

def mi_sf_plan(T, jt=0.5):
    return RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, jt),
                    RampSchedule(0.0, 0.0), T)


def ramp_pair(shape, T, rates=None):
    """(F, F_normalized) of one MI -> SF ramp on the full space and the sector."""
    table, full, sector = pair(shape)
    plan = mi_sf_plan(T)
    psi = mi_ground_state(table, 0.0, 1.0)
    end = plan.params_at_fraction(1.0)
    out = []
    for tpl, psi0 in ((full, psi), (sector, sector.isometry.T @ psi)):
        if rates is None:
            res = evolve(tpl, plan, psi0)
        else:
            res = evolve_dissipative(tpl, plan, psi0, *rates,
                                     convention="literal-sigma-z")
        target = ground_state(tpl.assemble_copy(end.g, end.J, end.delta)).vector
        raw = fidelity(res.final_state, target)
        out.append((raw, raw / np.linalg.norm(res.final_state) ** 2))
    return out


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_sector_ramp_fidelity_matches_full_space(shape):
    T = 4 * math.pi if shape.sites < 6 else math.pi
    (f_full, _), (f_sector, _) = ramp_pair(shape, T)
    assert f_sector == pytest.approx(f_full, abs=1e-8)
    (_, n_full), (_, n_sector) = ramp_pair(shape, T, rates=(0.05, 0.01))
    assert n_sector == pytest.approx(n_full, abs=1e-8)


def test_mott_state_projects_without_leakage():
    table, _, sector = pair(LatticeShape(6, 6))
    psi = mi_ground_state(table, 0.0, 1.0)
    back = sector.isometry @ (sector.isometry.T @ psi)
    assert np.linalg.norm(back - psi) < 1e-14


# --- rho1 ----------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_sector_rho1_matches_full_space(shape):
    table, full, _ = pair(shape)
    cfg = RunConfig()
    cfg.sites = cfg.excitations = shape.sites
    cfg.rho_i, cfg.rho_j = 1, 1 + shape.sites // 2
    cfg.j_grid = GridSpec(0.05, 0.35, 2)
    cfg.d_grid = GridSpec(-0.5, 0.5, 2)
    rows = run_rho1_map(cfg)
    corr = build_correlator(table, cfg.rho_i, cfg.rho_j)
    diag = build_correlator(table, cfg.rho_i, cfg.rho_i)
    for J, delta, rho in rows:
        v = ground_state(full.assemble_copy(1.0, J, delta)).vector
        assert rho == pytest.approx((v @ (corr @ v)) / (v @ (diag @ v)),
                                    abs=1e-10)


@pytest.mark.parametrize("shape", [*SHAPES, LatticeShape(7, 7), LatticeShape(4, 5),
                                   LatticeShape(5, 3), LatticeShape(6, 4)], ids=str)
def test_site_number_on_the_symmetric_block_is_the_total_over_sites(shape):
    # the rho1 map divides by <n_i> read off the number diagonal: on the
    # (0, +) block the group-averaged n_i is sum_j n_j / L
    orbits = DihedralOrbits(enumerate_basis(shape))
    block = Block(0, 1, shape.sites)
    number = orbits.templates(block).number_diag
    for i in range(1, shape.sites + 1):
        n_i = orbits.correlator(block, i, i).toarray()
        assert np.abs(n_i - np.diag(number / shape.sites)).max() <= 1e-15


# --- warm starts ----------------------------------------------------------

def test_warm_started_solves_match_cold_ones():
    _, full, sector = pair(LatticeShape(6, 6))
    previous = None
    for J in np.linspace(0.0, 0.5, 6):
        h = sector.assemble_copy(1.0, float(J), 0.0)
        cold = ground_state(h)
        warm = ground_state(h, v0=previous)
        assert warm.energy == pytest.approx(cold.energy, abs=1e-11)
        assert abs(np.dot(warm.vector, cold.vector)) == pytest.approx(1.0, abs=1e-11)
        previous = warm.vector

    # the gap over all sectors as the gap-scan driver merges it: the
    # symmetric pair, each other block walking the points from its own
    # previous vector
    report = gap_scan(sector, mi_sf_plan(1.0), resolution=16)
    points = [p for _, p, _, _ in report.curve]
    others = block_levels(block_sectors(pair(LatticeShape(6, 6))[0])[1:], points, 1)
    for (_, p, e0, e1), [(lowest, _)] in zip(report.curve, others):
        w, _ = _lowest_eigh(full.assemble_copy(p.g, p.J, p.delta), 2)
        assert min(e1, lowest) - e0 == pytest.approx(w[1] - w[0], abs=1e-10)


def test_warm_started_checkpoints_match_cold_solves(monkeypatch):
    table, _, sector = pair(LatticeShape(6, 6))
    plan = mi_sf_plan(2 * math.pi)
    psi0 = sector.isometry.T @ mi_ground_state(table, 0.0, 1.0)
    ctx = sweeps.SimContext(RunConfig(), sector, psi0, None)
    warm, _ = sweeps._run_plan(ctx, plan, checkpoints=9)
    monkeypatch.setattr(sweeps, "ground_state", lambda h, v0=None: ground_state(h))
    cold, _ = sweeps._run_plan(ctx, plan, checkpoints=9)
    for a, b in zip(warm, cold):
        assert a[5] == pytest.approx(b[5], abs=1e-11)


# --- refusals and journals ---------------------------------------------------

def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text("L = 2\nN = 2\nT = 2pi\nsteps = 64\ntol = 1e-4\n" + text)
    return str(path)


@pytest.mark.parametrize("command,text", [
    ("ramp", "J0 = 0\nJT = -0.2\n"),
    ("rj-sweep", "J0 = -0.1\nJT = 0.2\nrJ_values = 1, 2\n"),
    ("phase-diagram", "JT_min = -0.2\nJT_max = 0.2\nJT_points = 2\n"
                      "dT_min = 0\ndT_max = 0\ndT_points = 1\n"),
    ("rho1-map", "J_min = -0.3\nJ_max = 0.3\nJ_points = 2\n"
                 "d_min = 0\nd_max = 0\nd_points = 1\n"),
    ("gap-scan", "J0 = -0.1\nJT = 0.5\nresolution = 16\n"),
])
def test_negative_hopping_is_refused(tmp_path, capsys, command, text):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "symmetric sector" in err


def test_init_file_outside_the_sector_is_refused(tmp_path, capsys):
    table, _, sector = pair(LatticeShape(2, 2))
    localized = np.zeros(table.dim)
    localized[index_of(table, ((2, 0), (0, 0)))] = 1.0
    np.save(tmp_path / "loc.npy", localized)
    cfg = write_cfg(tmp_path, "JT = 0.4\ninit = file\ninit_file = "
                    + str(tmp_path / "loc.npy") + "\n")
    assert main(["ramp", "--config", cfg]) == 2
    assert "symmetric-sector weight" in capsys.readouterr().err

    # the same ramp from its symmetric part runs
    symmetric = sector.isometry @ (sector.isometry.T @ localized)
    np.save(tmp_path / "sym.npy", symmetric)
    cfg = write_cfg(tmp_path, "JT = 0.4\ninit = file\ninit_file = "
                    + str(tmp_path / "sym.npy") + "\n")
    assert main(["ramp", "--config", cfg]) == 0


def test_init_file_of_k0_amplitudes_is_refused(tmp_path, capsys):
    # at L = 3 the k = 0 sector (14 states) is larger than the symmetric one;
    # an init_file holds amplitudes on the full basis only
    table = enumerate_basis(LatticeShape(3, 3))
    k0 = symmetric_isometry(build_translation(table))
    sector = symmetric_sector(table).isometry
    assert (table.dim, k0.shape[1], sector.shape[1]) == (38, 14, 10)
    for name, p in (("k0", k0), ("sector", sector)):
        np.save(tmp_path / f"{name}.npy", p.T @ mi_ground_state(table, 0.0, 1.0))
        path = tmp_path / "run.cfg"
        path.write_text("L = 3\nN = 3\nT = 2pi\nJT = 0.4\nsteps = 64\n"
                        f"tol = 1e-4\ninit = file\ninit_file = {tmp_path / name}.npy\n")
        assert main(["ramp", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"has {p.shape[1]} amplitudes, basis dim is 38" in err


def grid_cfg(tmp_path, name):
    cfg = RunConfig()
    cfg.sites = cfg.excitations = 2
    cfg.plan = RampPlan(RampSchedule(1.0, 1.0), RampSchedule(0.0, 0.4),
                        RampSchedule(0.0, 0.0), 2 * math.pi)
    cfg.steps, cfg.tol = 64, 1e-4
    cfg.jt_grid = GridSpec(0.0, 0.4, 2)
    cfg.dt_grid = GridSpec(0.0, 0.2, 2)
    cfg.out = str(tmp_path / name)
    return cfg


def test_resume_drops_a_torn_last_journal_line(tmp_path, capsys):
    cfg = grid_cfg(tmp_path, "full.csv")
    run_phase_diagram(cfg)
    full = (tmp_path / "full.csv").read_bytes()
    f0 = full.decode().splitlines()[1].split(",")[2]  # grid point 0

    cfg = grid_cfg(tmp_path, "res.csv")
    journal = tmp_path / "res.csv.progress"
    header = _journal(cfg, "phase-diagram").header
    first = f"{header}\n0,{f0}\n"
    journal.write_text(first + "1,")
    assert _load_progress(str(journal), header) == {0: float(f0)}
    assert journal.read_text() == first  # cut, so appends start clean
    assert capsys.readouterr().err == (f"warning: {journal}: dropped the torn "
                                       f"last journal line b'1,' (2 bytes)\n")
    _load_progress(str(journal), header)  # nothing torn, nothing said
    assert capsys.readouterr().err == ""

    journal.write_text(first + "1,")
    run_phase_diagram(cfg, resume=True)
    assert "dropped the torn last journal line" in capsys.readouterr().err
    assert (tmp_path / "res.csv").read_bytes() == full
    assert not journal.exists()


def test_resume_refuses_a_malformed_middle_journal_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "JT_min = 0\nJT_max = 0.4\nJT_points = 2\n"
                              "dT_min = 0\ndT_max = 0.2\ndT_points = 2\n")
    loaded = load_config(cfg)
    loaded.out = str(tmp_path / "g.csv")
    journal = tmp_path / "g.csv.progress"
    header = _journal(loaded, "phase-diagram").header
    journal.write_text(f"{header}\n0,0.5\nbogus\n2,0.25\n")
    code = main(["phase-diagram", "--config", cfg, "--resume",
                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "malformed journal line" in capsys.readouterr().err
