"""`operators.Csr` against `scipy.sparse`, and the kernels loaded without it.

`jclattice._compiled` loads scipy's extension modules straight from its
directory, so a run imports neither `scipy.sparse` nor `scipy.linalg`.
`Csr` calls their kernels in scipy's own order; these tests hold it to
scipy's results bit for bit.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp

from jclattice.operators import Csr

from conftest import sparse

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SLOW = ("scipy.sparse", "scipy.linalg", "scipy._lib._array_api")
# numpy.random pulls in secrets, hmac and _hashlib (OpenSSL); runs need none
UNUSED = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")


def run_python(script: str, *args) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(m, ref):
    assert isinstance(m, Csr) and m.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert_bits(getattr(m, name), getattr(ref, name))


def coo(seed, shape, n):
    """Unsorted entries with many repeated positions; rows 2 and 5 are empty."""
    rng = np.random.default_rng(seed)
    rows = rng.choice([r for r in range(shape[0]) if r not in (2, 5)], n)
    return rng.standard_normal(n), rows, rng.integers(0, shape[1], n)


@pytest.mark.parametrize("shape,n", [((8, 6), 60), ((9, 40), 500), ((6, 6), 0)])
def test_coo_input_is_scipys_csr(shape, n):
    data, rows, cols = coo(1, shape, n)
    m = Csr.from_coo(data, rows, cols, shape)
    ref = sp.csr_matrix((data, (rows, cols)), shape=shape)
    assert_same(m, ref)
    assert m.nnz == ref.nnz
    assert_bits(m.toarray(), ref.toarray())
    assert_same(m.copy(), ref.copy())
    assert_same(m.astype(complex), ref.astype(complex))


def test_transpose_and_sum_are_scipys():
    shape = (9, 40)
    a = Csr.from_coo(*coo(2, shape, 300), shape)
    b = Csr.from_coo(*coo(3, shape, 300), shape)
    assert_same(a.T, sparse(a).T.tocsr())
    assert_same(a + b, sparse(a) + sparse(b))
    # entries that cancel are dropped, as scipy drops them
    data, rows, cols = coo(2, shape, 300)
    minus = Csr.from_coo(-data[:150], rows[:150], cols[:150], shape)
    assert_same(a + minus, sparse(a) + sparse(minus))
    square = Csr.from_coo(*coo(4, (40, 40), 900), (40, 40))
    assert_same(square + square.T, sparse(square) + sparse(square).T)


def test_products_with_dense_arrays_are_scipys():
    shape = (9, 40)
    rng = np.random.default_rng(6)
    real = Csr.from_coo(*coo(5, shape, 300), shape)
    for m in (real, real.astype(complex)):
        ref = sparse(m)
        x = rng.standard_normal(40)
        block = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        for operand in (x, x + 1j * rng.standard_normal(40), x[:, None],
                        rng.standard_normal((40, 3)), block, np.asfortranarray(block)):
            assert_bits(m @ operand, ref @ operand)
    with pytest.raises(ValueError):
        real @ np.ones(9)


def test_zero_row_submatrix_is_scipys(sector66):
    # at g = 0 the photon-free state's row holds only stored zeros
    h = sector66.assemble(0.0, 0.1, 1.0)
    live = np.bincount(h.rows(), np.abs(h.data), h.shape[0]) > 0
    assert np.count_nonzero(~live) == 1
    assert_same(h.submatrix(live), sparse(h)[live][:, live])
    keep = np.random.default_rng(7).random(h.shape[0]) < 0.6
    assert_same(h.submatrix(keep), sparse(h)[keep][:, keep])


IDENTITY = textwrap.dedent("""
    import sys
    if sys.argv[1] == "scipy first":
        import scipy.linalg, scipy.sparse
    from jclattice import _compiled, operators, propagate, spectrum
    import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack
    import scipy.sparse._sparsetools as sparsetools
    assert _compiled.sparsetools is sparsetools
    assert operators._kernels is sparsetools
    for module, names in ((propagate, "dznrm2 zaxpy zdotc zdscal dstev"),
                          (spectrum, "daxpy ddot dnrm2 dscal dstebz dstein")):
        for name in names.split():
            exported = getattr(blas, name, None) or getattr(lapack, name)
            assert getattr(module, name) is exported, name
    import scipy.sparse as sp
    m = sp.csr_matrix(([2.0], ([0], [1])), shape=(2, 2))
    assert (m @ [1.0, 3.0]).tolist() == [6.0, 0.0]
""")


@pytest.mark.parametrize("order", ["jclattice first", "scipy first"])
def test_loaded_kernels_are_the_ones_scipy_exports(order):
    run_python(IDENTITY, order)


def test_runs_load_neither_scipy_sparse_nor_scipy_linalg(tmp_path):
    lattice = "L = 4\nN = 4\ng0 = 1\ngT = 1\nJ0 = 0\nJT = 0.5\nT = 2pi\n"
    configs = {
        "ramp": lattice + "init = mi\n",
        # six sites: its blocks, unlike those at four, are above DENSE_CUTOFF
        "gap-scan": "L = 6\nN = 6\ng0 = 1\ngT = 1\nJ0 = 0\nJT = 0.5\nT = 2pi\n"
                    "resolution = 16\n",
        "spectrum": lattice + "resolution = 16\ncount = 3\n",
        "rho1-map": "L = 4\nN = 4\ng0 = 1\nJ_min = 0\nJ_max = 0.4\nJ_points = 2\n"
                    "d_min = -1\nd_max = 1\nd_points = 2\nrho_i = 1\nrho_j = 3\n",
        "dissipative": lattice + "init = mi\ng_hz = 200e6\nkappa_hz = 200e3\n"
                       "gamma_hz = 2e3\n",
    }
    argv = {}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
        command = "ramp" if name == "dissipative" else name
        argv[name] = [command, "--config", str(tmp_path / f"{name}.cfg"),
                      "--out", str(tmp_path / f"{name}.csv")]
    # rho1-map twice: serially, then on a fork pool of two workers
    argv["rho1-map pooled"] = argv["rho1-map"] + ["--threads", "2"]
    dissipative = argv.pop("dissipative")
    run_python(textwrap.dedent(f"""
        import sys
        from jclattice.basis import LatticeShape, enumerate_basis
        from jclattice.cli import main
        from jclattice.operators import HamiltonianTemplates

        def loaded(names={SLOW!r}):
            return [name for name in names if name in sys.modules]

        for argv in {list(argv.values())!r}:
            assert main(argv) == 0, argv
        HamiltonianTemplates(enumerate_basis(LatticeShape(6, 6)))
        assert loaded() == [], loaded()
        assert loaded({UNUSED!r}) == [], loaded({UNUSED!r})
        assert main({dissipative!r}) == 0
        assert "scipy.linalg" in loaded(), loaded()
    """))
