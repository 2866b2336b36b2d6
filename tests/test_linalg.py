"""Linear algebra primitives against LAPACK ground truth and hand values."""

import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import mvcca
from mvcca.linalg import (
    NumericalError,
    dense_svd,
    inv_sqrt_psd,
    pca_apply,
    pca_fit,
    spgemm,
    sym_eig,
    truncated_svd,
)


def low_rank(n_rows, n_cols, rank):
    rng = np.random.default_rng(rank)
    return sp.csr_matrix(rng.standard_normal((n_rows, rank)) @ rng.standard_normal((rank, n_cols)))


# 100 x 100, singular values 3, 3, 3, 1, 1, 0.5 and then zeros.
REPEATED_100 = sp.diags([3.0, 3.0, 3.0, 1.0, 1.0, 0.5] + [0.0] * 94).tocsr()


def random_sparse(n_rows, n_cols, nnz_per_row, seed):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n_rows), nnz_per_row)
    cols = rng.integers(0, n_cols, n_rows * nnz_per_row)
    vals = rng.standard_normal(n_rows * nnz_per_row)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))


class TestSymEig:
    def test_identity(self):
        w, V = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(V @ V.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, V = sym_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(w, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 20))
        M = (A + A.T) / 2
        w, V = sym_eig(M)
        err = np.linalg.norm(V @ np.diag(w) @ V.T - M) / np.linalg.norm(M)
        assert err <= 1e-10

    def test_eigen_equation_and_order(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((15, 15))
        M = A @ A.T
        w, V = sym_eig(M)
        assert np.all(np.diff(w) <= 1e-12)
        for i in range(15):
            np.testing.assert_allclose(M @ V[:, i], w[i] * V[:, i], atol=1e-8 * abs(w[0]))

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 8))
        _, V = sym_eig(A @ A.T)
        peaks = V[np.argmax(np.abs(V), axis=0), np.arange(8)]
        assert np.all(peaks > 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            sym_eig(M)


class TestInvSqrtPsd:
    def test_diagonal(self):
        R = inv_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(R, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_multiplication_oracle(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 10))
        M = A @ A.T + 0.1 * np.eye(10)
        R = inv_sqrt_psd(M)
        np.testing.assert_allclose(R @ M @ R, np.eye(10), atol=1e-8)
        np.testing.assert_allclose(R, R.T, atol=1e-12)

    def test_not_psd_rejected(self):
        with pytest.raises(NumericalError):
            inv_sqrt_psd(np.diag([1.0, -0.5]))

    def test_floor_keeps_singular_matrix_finite(self):
        M = np.diag([1.0, 0.0])
        R = inv_sqrt_psd(M)
        assert np.all(np.isfinite(R))
        assert R[0, 0] == pytest.approx(1.0)


class TestDenseSvd:
    def test_diagonal(self):
        res = dense_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(res.s, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        a = np.array([1.0, 2.0, 2.0])
        b = np.array([3.0, 4.0])
        res = dense_svd(np.outer(a, b))
        np.testing.assert_allclose(res.s[0], np.linalg.norm(a) * np.linalg.norm(b), rtol=1e-12)
        np.testing.assert_allclose(res.s[1:], 0.0, atol=1e-12)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((30, 20))
        res = dense_svd(M)
        eig = np.sqrt(np.maximum(np.linalg.eigvalsh(M.T @ M)[::-1], 0.0))
        assert np.abs(res.s - eig).max() <= 1e-9

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((12, 17))
        res = dense_svd(M)
        np.testing.assert_allclose(res.U @ np.diag(res.s) @ res.V.T, M, atol=1e-10)
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(12), atol=1e-8)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(12), atol=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dense_svd(np.array([[1.0, np.inf]]))


class TestTruncatedSvd:
    def test_sparse_diagonal(self):
        A = sp.diags([5.0, 4.0, 3.0, 2.0, 1.0]).tocsr()
        res = truncated_svd(A, 2, seed=0)
        np.testing.assert_allclose(res.s, [5.0, 4.0], rtol=1e-10)

    def test_random_sparse_matches_dense(self):
        A = random_sparse(500, 500, 15, seed=6)
        res = truncated_svd(A, 5, seed=1)
        oracle = dense_svd(A.toarray())
        assert np.abs(res.s - oracle.s[:5]).max() / oracle.s[0] <= 1e-6

    def test_full_rank_matches_dense(self):
        A = sp.csr_matrix(np.random.default_rng(7).standard_normal((50, 50)))
        res = truncated_svd(A, 50, seed=2)
        oracle = dense_svd(A.toarray())
        assert np.abs(res.s - oracle.s).max() / oracle.s[0] <= 1e-6
        # Principal angles between the full left subspaces.
        sv = np.linalg.svd(res.U.T @ oracle.U, compute_uv=False)
        assert np.arccos(np.clip(sv.min(), -1.0, 1.0)) <= 1e-5

    def test_tall_subspace_agreement(self):
        A = random_sparse(120, 40, 6, seed=8)
        res = truncated_svd(A, 40, seed=3)
        oracle = dense_svd(A.toarray())
        assert np.abs(res.s - oracle.s).max() / oracle.s[0] <= 1e-6
        sv = np.linalg.svd(res.U.T @ oracle.U, compute_uv=False)
        assert np.arccos(np.clip(sv.min(), -1.0, 1.0)) <= 1e-5

    def test_residual_contract(self):
        # Two-sided: U comes from the SVD of A V, so |A v - s u| is met by
        # construction and only |A.T u - s v| shows whether V converged.
        A = random_sparse(300, 300, 10, seed=9)
        res = truncated_svd(A, 8, seed=4)
        resid = np.linalg.norm(A.T @ res.U - res.V * res.s, axis=0)
        assert np.all(resid <= 1e-6 * res.s[0])

    def test_lanczos_subspace_agreement(self):
        # r < cols - 1, so ARPACK runs; U and V are compared with the oracle.
        A = random_sparse(300, 200, 10, seed=14)
        res = truncated_svd(A, 6, seed=7)
        oracle = dense_svd(A.toarray())
        assert np.abs(res.s - oracle.s[:6]).max() / oracle.s[0] <= 1e-6
        for got, ref in ((res.U, oracle.U[:, :6]), (res.V, oracle.V[:, :6])):
            # Sine of the largest principal angle between the subspaces.
            assert np.linalg.norm(got - ref @ (ref.T @ got), 2) <= 1e-8

    def test_orthonormal_and_sorted(self):
        A = random_sparse(200, 150, 8, seed=10)
        res = truncated_svd(A, 6, seed=5)
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(6), atol=1e-8)
        assert np.all(np.diff(res.s) <= 0) and np.all(res.s >= 0)

    def test_deterministic(self):
        A = random_sparse(100, 100, 5, seed=11)
        a = truncated_svd(A, 4, seed=42)
        b = truncated_svd(A, 4, seed=42)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.s, b.s) and np.array_equal(a.V, b.V)

    def test_factored_operator_matches_formed_product(self):
        # Row- and column-stochastic factors, as in the NCCA score operator.
        Wx = abs(random_sparse(300, 300, 8, seed=12))
        Wx = sp.diags(1.0 / np.asarray(Wx.sum(axis=1)).ravel()) @ Wx
        Wy = abs(random_sparse(300, 300, 8, seed=13))
        Wy = Wy @ sp.diags(1.0 / np.asarray(Wy.sum(axis=0)).ravel())
        factored = truncated_svd((Wx, Wy), 4, seed=6, rtol=1e-12)
        formed = truncated_svd(spgemm(Wx, Wy), 4, seed=6, rtol=1e-12)
        np.testing.assert_allclose(factored.s, formed.s, rtol=0, atol=1e-10)
        np.testing.assert_allclose(factored.U, formed.U, rtol=0, atol=1e-10)
        np.testing.assert_allclose(factored.V, formed.V, rtol=0, atol=1e-10)

    def test_factor_shapes_must_chain(self):
        with pytest.raises(ValueError):
            truncated_svd((sp.eye(5).tocsr(), sp.eye(4).tocsr()), 2)

    def test_rank_out_of_range(self):
        A = sp.eye(5).tocsr()
        with pytest.raises(ValueError):
            truncated_svd(A, 0)
        with pytest.raises(ValueError):
            truncated_svd(A, 6)

    @pytest.mark.parametrize(
        "A",
        [
            sp.csr_matrix((8, 6)),  # zero matrix
            sp.csr_matrix(np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 2.0])),  # rank 1
            sp.csr_matrix(np.diag([3.0, 3.0, 3.0, 1.0, 1.0, 0.5])),  # repeated values
        ],
        ids=["zero", "rank1", "repeated"],
    )
    def test_degenerate_spectra(self, A):
        r = min(A.shape)
        res = truncated_svd(A, r, seed=3)
        oracle = dense_svd(A.toarray())
        scale = max(oracle.s[0], 1.0)
        assert np.abs(res.s - oracle.s[:r]).max() <= 1e-9 * scale

    @pytest.mark.parametrize(
        "A, r",
        [
            (low_rank(300, 200, 1), 3),
            (low_rank(300, 200, 2), 3),
            (REPEATED_100, 3),
            (REPEATED_100, 5),
        ],
        ids=["rank1", "rank2", "repeated-r3", "repeated-r5"],
    )
    def test_degenerate_spectra_lanczos(self, A, r):
        # Shapes where r < cols - 1, so ARPACK runs rather than the dense fallback.
        res = truncated_svd(A, r, seed=3)
        oracle = dense_svd(A.toarray())
        assert np.abs(res.s - oracle.s[:r]).max() <= 1e-9 * max(oracle.s[0], 1.0)
        np.testing.assert_allclose(res.U.T @ res.U, np.eye(r), rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(r), rtol=0, atol=1e-12)
        resid = np.linalg.norm(A.T @ res.U - res.V * res.s, axis=0)
        assert np.all(resid <= 1e-6 * res.s[0])
        # Past the rank or inside a repeated value, ARPACK draws restart
        # vectors; an unseeded draw picks one of two outcomes at random, so
        # several calls are compared.
        for _ in range(5):
            again = truncated_svd(A, r, seed=3)
            assert np.array_equal(again.U, res.U)
            assert np.array_equal(again.s, res.s)
            assert np.array_equal(again.V, res.V)

    def test_zero_operator_lanczos(self):
        with pytest.raises(NumericalError):
            truncated_svd(sp.csr_matrix((300, 200)), 3)


class TestImportFootprint:
    def test_scipy_loaded_only_by_sparse_paths(self, tmp_path):
        # Importing scipy.sparse costs about 0.15 s per process,
        # scipy.sparse.linalg another 0.1 s and scipy.spatial 0.09 s more.
        # Imports, CCA, PLCCA, model files, and searches and NCCA projections
        # on screened views (a reference of at most 512 points, as these 500
        # spiral points, is always screened) must pay none; an NCCA fit needs
        # scipy.sparse, only truncated_svd its linalg, and only a kd-tree
        # scipy.spatial.
        train = mvcca.gen_spiral_pair(500, seed=1)
        ncca_path = tmp_path / "ncca.nccm"
        mvcca.save_model(ncca_path, mvcca.ncca_fit(train.X, train.Y, mvcca.NccaConfig(L=2)))
        script = f"""
import sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")[:3]

import mvcca
import mvcca.cli
assert not scipy_modules(), ("import", scipy_modules())

data = mvcca.gen_gaussian_pair(200, [0.9, 0.5], seed=0)
fitted = [
    mvcca.cca_fit(data.X, data.Y, 1),
    mvcca.plcca_fit(data.X, data.Y, 1, mvcca.AffinityConfig(k=10)),
]
for i, model in enumerate(fitted):
    path = {str(tmp_path)!r} + f"/model{{i}}.nccm"
    mvcca.save_model(path, model)
    fitted[i] = mvcca.load_model(path)
cca, pl = fitted
mvcca.cca_project(cca, 1, data.X[:5])
mvcca.cca_project(cca, 2, data.Y[:5])
mvcca.plcca_project_x(pl, data.X[:5])
mvcca.plcca_project_y(pl, data.Y[:5])
ncca = mvcca.load_model({str(ncca_path)!r})
spiral = mvcca.gen_spiral_pair(50, seed=2)
mvcca.ncca_project_x(ncca, spiral.X)
mvcca.ncca_project_y(ncca, spiral.Y)
wide = mvcca.gen_gaussian_pair(1000, [0.5] * 10, seed=3)
mvcca.plcca_fit(wide.X, wide.Y, 1)
assert mvcca.neighbors.KnnReference(wide.X).tree is None
assert not scipy_modules(), ("CCA, PLCCA, model files or NCCA projection", scipy_modules())

mvcca.ncca_fit(spiral.X, spiral.Y, mvcca.NccaConfig(L=2, svd="dense"))
mvcca.affinity.affinity_rows(spiral.X[:5], spiral.X, mvcca.AffinityConfig(k=10))
assert "scipy.sparse" in sys.modules, "an NCCA fit did not load scipy.sparse"
assert "scipy.sparse.linalg" not in sys.modules, "loaded before truncated_svd"
mvcca.ncca_fit(spiral.X, spiral.Y, mvcca.NccaConfig(L=2))
assert "scipy.sparse.linalg" in sys.modules, "truncated_svd did not load it"
assert "scipy.spatial" not in sys.modules, "loaded without a kd-tree"
assert mvcca.neighbors.KnnReference(mvcca.gen_spiral_pair(2000, seed=4).X).tree is not None
assert "scipy.spatial" in sys.modules, "a kd-tree did not load it"
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestSpgemm:
    def test_identity(self):
        B = random_sparse(40, 30, 4, seed=12)
        C = spgemm(sp.eye(40).tocsr(), B)
        assert (C != B).nnz == 0

    def test_hand_computed(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        B = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spgemm(A, B).toarray(), [[0.0, 1.0], [2.0, 0.0]])

    def test_dense_oracle(self):
        A = random_sparse(100, 100, 7, seed=13)
        B = random_sparse(100, 100, 7, seed=14)
        np.testing.assert_allclose(spgemm(A, B).toarray(), A.toarray() @ B.toarray(), atol=1e-12)

    def test_sorted_unique_indices(self):
        A = random_sparse(50, 50, 5, seed=15)
        C = spgemm(A, A)
        for i in range(50):
            cols = C.indices[C.indptr[i] : C.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spgemm(sp.eye(3).tocsr(), sp.eye(4).tocsr())


class TestPca:
    def test_line_in_2d(self):
        t = np.linspace(-1, 1, 50)
        X = np.column_stack([t, 2 * t]) + np.array([1.0, -0.5])
        mean, basis = pca_fit(X, 1)
        P = pca_apply(mean, basis, X)
        recon = P @ basis.T + mean
        assert np.abs(recon - X).max() <= 1e-10

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((30, 4))
        mean, basis = pca_fit(X, 4)
        recon = pca_apply(mean, basis, X) @ basis.T + mean
        assert np.abs(recon - X).max() <= 1e-10

    def test_anisotropic_variance_retained(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((10000, 3)) * np.sqrt([9.0, 1.0, 0.01])
        mean, basis = pca_fit(X, 1)
        P = pca_apply(mean, basis, X)
        retained = P.var() / X.var(axis=0).sum()
        assert retained >= 0.88  # population ratio 9/10.01, minus sampling slack

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(18)
        mean, basis = pca_fit(rng.standard_normal((40, 6)), 3)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)

    def test_apply_mean_replicated(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((20, 3))
        mean, basis = pca_fit(X, 2)
        np.testing.assert_allclose(pca_apply(mean, basis, np.tile(mean, (5, 1))), 0.0, atol=1e-12)

    def test_apply_identity_basis(self):
        X = np.arange(12.0).reshape(4, 3)
        np.testing.assert_allclose(pca_apply(np.zeros(3), np.eye(3), X), X)

    def test_d_out_of_range(self):
        X = np.random.default_rng(20).standard_normal((10, 3))
        with pytest.raises(ValueError):
            pca_fit(X, 0)
        with pytest.raises(ValueError):
            pca_fit(X, 4)

    def test_apply_dimension_mismatch(self):
        mean, basis = pca_fit(np.random.default_rng(21).standard_normal((10, 3)), 2)
        with pytest.raises(ValueError):
            pca_apply(mean, basis, np.zeros((5, 4)))

    def test_apply_mean_mismatch_names_the_mean(self):
        mean, basis = pca_fit(np.random.default_rng(22).standard_normal((10, 3)), 2)
        with pytest.raises(ValueError, match="mean has 1 entries, basis expects 3"):
            pca_apply(mean[:1], basis, np.zeros((5, 3)))
