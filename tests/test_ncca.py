"""Nonparametric CCA: score matrix, fit, Nystrom projections, diagnostics."""

import warnings

import numpy as np
import pytest

import mvcca.affinity
import mvcca.ncca
from mvcca.affinity import (
    AffinityConfig,
    affinity_rows,
    gaussian_affinity,
    normalize_left_stochastic,
    normalize_right_stochastic,
)
from mvcca.dataio import gen_identical_views, gen_spiral_pair, load_model, save_model
from mvcca.linalg import dense_svd
from mvcca.metrics import pearson
from mvcca.ncca import (
    ConstantComponentWarning,
    NccaConfig,
    build_score_matrix,
    ncca_fit,
    ncca_project_train,
    ncca_project_x,
    ncca_project_y,
)


def make_config(L=1, k=15, svd="randomized", **kwargs):
    return NccaConfig(
        L=L,
        affinity_x=AffinityConfig(k=k),
        affinity_y=AffinityConfig(k=k),
        svd=svd,
        **kwargs,
    )


def quiet_fit(X, Y, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantComponentWarning)
        return ncca_fit(X, Y, config)


def sign_align(A, B):
    signs = np.sign(np.sum(A * B, axis=0))
    signs[signs == 0] = 1.0
    return A * signs


@pytest.fixture(scope="module")
def spiral_model():
    train = gen_spiral_pair(400, seed=0)
    model = quiet_fit(train.X, train.Y, make_config(L=2))
    return train, model


class TestScoreMatrix:
    def test_single_point(self):
        cfg = NccaConfig(L=1, affinity_x=AffinityConfig(sigma=1.0, k=1),
                         affinity_y=AffinityConfig(sigma=1.0, k=1))
        S, Wy = build_score_matrix(np.zeros((1, 2)), np.zeros((1, 3)), cfg)
        np.testing.assert_allclose(S.toarray(), [[1.0]])
        np.testing.assert_allclose(Wy.toarray(), [[1.0]])

    def test_entries_nonnegative_and_nnz_bound(self):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((150, 3)), rng.standard_normal((150, 2))
        cfg = make_config(k=10)
        S, _ = build_score_matrix(X, Y, cfg)
        assert np.all(S.data >= 0)
        assert S.nnz <= 150 * 10 * 10

    def test_permutation_relabels_consistently(self):
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((80, 2)), rng.standard_normal((80, 2))
        cfg = NccaConfig(L=1, affinity_x=AffinityConfig(sigma=0.8, k=9),
                         affinity_y=AffinityConfig(sigma=0.8, k=9))
        S, _ = build_score_matrix(X, Y, cfg)
        perm = rng.permutation(80)
        S_perm, _ = build_score_matrix(X[perm], Y[perm], cfg)
        np.testing.assert_allclose(S_perm.toarray(), S.toarray()[np.ix_(perm, perm)], atol=1e-14)

    def test_matches_dense_factor_product(self):
        from mvcca.affinity import (
            gaussian_affinity,
            normalize_left_stochastic,
            normalize_right_stochastic,
        )

        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((60, 2)), rng.standard_normal((60, 2))
        cfg = NccaConfig(L=1, affinity_x=AffinityConfig(sigma=0.9, k=8),
                         affinity_y=AffinityConfig(sigma=0.7, k=8))
        S, Wy = build_score_matrix(X, Y, cfg)
        Wx_d = normalize_right_stochastic(gaussian_affinity(X, cfg.affinity_x)).toarray()
        Wy_d = normalize_left_stochastic(gaussian_affinity(Y, cfg.affinity_y)).toarray()
        np.testing.assert_allclose(S.toarray(), Wx_d @ Wy_d, atol=1e-14)
        np.testing.assert_allclose(Wy.toarray(), Wy_d)


class TestFit:
    def test_train_projections_orthonormal(self, spiral_model):
        train, model = spiral_model
        n = len(train.X)
        F, G = ncca_project_train(model)
        np.testing.assert_allclose(model.F.T @ model.F / n, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(model.G.T @ model.G / n, np.eye(3), atol=1e-6)
        assert F.shape == (n, 2) and G.shape == (n, 2)

    def test_svd_residual_identity(self, spiral_model):
        train, model = spiral_model
        n = len(train.X)
        S, _ = build_score_matrix(model.train_x, model.train_y, model.config)
        resid = S @ (model.G / np.sqrt(n)) - (model.F / np.sqrt(n)) * model.sigmas
        assert np.linalg.norm(resid, axis=0).max() <= 1e-6 * model.sigmas[0]

    def test_output_columns_near_zero_mean_on_benchmark(self):
        # Retained columns are orthogonal to the near-constant leading
        # vector, so at the spiral benchmark configuration their empirical
        # means are close to zero.
        ds = gen_spiral_pair(1000, noise=0.01, turns=1.5, seed=0)
        model = quiet_fit(ds.X, ds.Y, make_config(L=1, k=15))
        F, G = ncca_project_train(model)
        assert np.abs(F.mean(axis=0)).max() <= 0.05
        assert np.abs(G.mean(axis=0)).max() <= 0.05

    def test_train_diag_identity(self, spiral_model):
        train, model = spiral_model
        n = len(train.X)
        S, _ = build_score_matrix(model.train_x, model.train_y, model.config)
        F, G = ncca_project_train(model)
        M = F.T @ (S @ G) / n
        np.testing.assert_allclose(np.diag(M), model.sigmas[1:], atol=1e-8)

    def test_identical_views_tight_bandwidth(self):
        # Tight bandwidths make the spectrum hug 1 (nearly isometric score
        # matrix), which is ill-posed for randomized truncation; the exact
        # dense backend is the reference here.
        ds = gen_identical_views(500, 5, seed=2)
        cfg = NccaConfig(L=2, affinity_x=AffinityConfig(k=15, fraction=0.1),
                         affinity_y=AffinityConfig(k=15, fraction=0.1), svd="dense")
        model = quiet_fit(ds.X, ds.Y, cfg)
        F, G = ncca_project_train(model)
        for i in range(2):
            assert abs(pearson(F[:, i], G[:, i])) >= 0.99

    def test_separated_clusters_identical_views(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.vstack([c + 0.3 * rng.standard_normal((50, 2)) for c in centers])
        cfg = NccaConfig(L=2, affinity_x=AffinityConfig(sigma=0.5, k=50),
                         affinity_y=AffinityConfig(sigma=0.5, k=50), svd="dense")
        model = quiet_fit(X, X.copy(), cfg)
        F, G = ncca_project_train(model)
        for i in range(2):
            assert abs(pearson(F[:, i], G[:, i])) >= 0.99

    def test_deterministic_for_fixed_seed(self):
        ds = gen_spiral_pair(200, seed=5)
        a = quiet_fit(ds.X, ds.Y, make_config(L=2, seed=3))
        b = quiet_fit(ds.X, ds.Y, make_config(L=2, seed=3))
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.sigmas, b.sigmas)
        assert np.array_equal(a.Hx, b.Hx)

    def test_nystrom_maps_are_factor_products(self):
        # Wx and Wy rebuilt with the public affinity functions: the stored
        # maps are exactly these products, with the same summation order.
        ds = gen_spiral_pair(300, seed=8)
        model = quiet_fit(ds.X, ds.Y, make_config(L=2))
        cfg = model.config
        Wx = normalize_right_stochastic(gaussian_affinity(model.train_x, cfg.affinity_x))
        Wy = normalize_left_stochastic(gaussian_affinity(model.train_y, cfg.affinity_y))
        assert np.array_equal(model.Hx, Wy @ model.G[:, 1:])
        assert np.array_equal(model.Hy, Wx.T @ model.F[:, 1:])

    def test_dense_backend_matches_randomized(self):
        ds = gen_spiral_pair(150, seed=6)
        mr = quiet_fit(ds.X, ds.Y, make_config(L=2, svd="randomized"))
        md = quiet_fit(ds.X, ds.Y, make_config(L=2, svd="dense"))
        np.testing.assert_allclose(mr.sigmas, md.sigmas, atol=1e-6)
        np.testing.assert_allclose(sign_align(mr.F, md.F), md.F, atol=1e-6)
        np.testing.assert_allclose(sign_align(mr.G, md.G), md.G, atol=1e-6)

    def test_pca_preprocessing(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((300, 2))
        X = np.hstack([base, 0.01 * rng.standard_normal((300, 8))])
        Y = np.hstack([base + 0.05 * rng.standard_normal((300, 2)),
                       0.01 * rng.standard_normal((300, 3))])
        cfg = make_config(L=1, pca_x=0.2, pca_y=2)
        model = quiet_fit(X, Y, cfg)
        assert model.train_x.shape[1] == 2  # 20% of 10
        assert model.train_y.shape[1] == 2
        assert model.pca_x is not None
        out = ncca_project_x(model, X[:3])
        assert out.shape == (3, 1)
        # True selects the default fraction
        auto = quiet_fit(X, Y, make_config(L=1, pca_x=True))
        assert auto.train_x.shape[1] == model.train_x.shape[1]

    def test_default_fit_never_forms_score_matrix(self, monkeypatch):
        import mvcca.ncca

        def no_spgemm(*args, **kwargs):
            raise AssertionError("the randomized path must not form S")

        monkeypatch.setattr(mvcca.ncca, "spgemm", no_spgemm)
        ds = gen_spiral_pair(200, seed=20)
        model = quiet_fit(ds.X, ds.Y, make_config(L=1, k=12))
        F, G = ncca_project_train(model)
        assert abs(pearson(F[:, 0], G[:, 0])) > 0.8
        with pytest.raises(AssertionError, match="must not form S"):
            quiet_fit(ds.X, ds.Y, make_config(L=1, k=12, svd="dense"))

    @pytest.mark.filterwarnings("ignore:leading left singular vector")
    def test_sigma1_warning_mechanism(self, monkeypatch):
        monkeypatch.setattr(mvcca.ncca, "_SIGMA1_TOLERANCE", 1e-9)
        ds = gen_spiral_pair(150, seed=8)
        with pytest.warns(ConstantComponentWarning, match="leading singular value"):
            ncca_fit(ds.X, ds.Y, make_config(L=1))

    def test_cv_warning_on_multimodal_density(self):
        rng = np.random.default_rng(9)
        centers = np.array([[0.0, 0.0], [50.0, 0.0]])
        X = np.vstack([c + 0.2 * rng.standard_normal((40, 2)) for c in centers])
        cfg = NccaConfig(L=1, affinity_x=AffinityConfig(sigma=0.4, k=10),
                         affinity_y=AffinityConfig(sigma=0.4, k=10), svd="dense")
        with pytest.warns(ConstantComponentWarning):
            ncca_fit(X, X.copy(), cfg)

    def test_errors(self):
        ds = gen_spiral_pair(30, seed=10)
        with pytest.raises(ValueError):
            ncca_fit(ds.X, ds.Y[:10], make_config())
        with pytest.raises(ValueError):
            ncca_fit(ds.X[:2], ds.Y[:2], make_config(L=1, k=2))
        with pytest.raises(ValueError):
            ncca_fit(ds.X, ds.Y, make_config(L=1, svd="magic"))
        with pytest.raises(ValueError):
            ncca_fit(ds.X, ds.Y, NccaConfig(L=0))


@pytest.fixture(scope="module")
def untruncated():
    n = 150
    ds = gen_spiral_pair(n, seed=11)
    cfg = NccaConfig(L=2, affinity_x=AffinityConfig(k=n), affinity_y=AffinityConfig(k=n))
    return ds, quiet_fit(ds.X, ds.Y, cfg)


class TestNystrom:
    def test_training_points_reproduce_train_projection_x(self, untruncated):
        ds, model = untruncated
        F, _ = ncca_project_train(model)
        np.testing.assert_allclose(ncca_project_x(model, ds.X), F, atol=1e-6)

    def test_training_points_reproduce_train_projection_y(self, untruncated):
        ds, model = untruncated
        _, G = ncca_project_train(model)
        np.testing.assert_allclose(ncca_project_y(model, ds.Y), G, atol=1e-6)

    def test_duplicate_query_identical_output(self, untruncated):
        ds, model = untruncated
        a = ncca_project_x(model, ds.X[5])
        b = ncca_project_x(model, ds.X[5].copy())
        np.testing.assert_array_equal(a, b)

    def test_single_vector_matches_batch(self, untruncated):
        ds, model = untruncated
        np.testing.assert_array_equal(
            ncca_project_x(model, ds.X[3]), ncca_project_x(model, ds.X[3:4])[0]
        )
        np.testing.assert_array_equal(
            ncca_project_y(model, ds.Y[3]), ncca_project_y(model, ds.Y[3:4])[0]
        )

    def test_heldout_spiral_correlation(self):
        train = gen_spiral_pair(400, seed=12)
        test = gen_spiral_pair(400, seed=13)
        model = quiet_fit(train.X, train.Y, make_config(L=1))
        fx = ncca_project_x(model, test.X)[:, 0]
        gy = ncca_project_y(model, test.Y)[:, 0]
        assert abs(pearson(fx, gy)) >= 0.8

    def test_dimension_mismatch(self, untruncated):
        _, model = untruncated
        with pytest.raises(ValueError):
            ncca_project_x(model, np.zeros(5))


class TestGatheredProjection:
    def test_matches_sparse_affinity_product(self, spiral_model):
        _, model = spiral_model
        test = gen_spiral_pair(300, seed=16)
        for project, queries, train, H, cfg in (
            (ncca_project_x, test.X, model.train_x, model.Hx, model.config.affinity_x),
            (ncca_project_y, test.Y, model.train_y, model.Hy, model.config.affinity_y),
        ):
            expected = (affinity_rows(queries, train, cfg) @ H) / model.sigmas[1:]
            err = np.abs(project(model, queries) - expected).max()
            assert err <= 1e-13 * np.abs(expected).max()

    def test_small_gather_blocks_bit_identical(self, spiral_model, monkeypatch):
        _, model = spiral_model
        test = gen_spiral_pair(100, seed=18)
        whole = ncca_project_x(model, test.X), ncca_project_y(model, test.Y)
        # Blocks of 4 query rows: k neighbors times L = 2 map columns times 4 rows.
        monkeypatch.setattr(mvcca.affinity, "_GATHER_BLOCK_ELEMS", model.config.affinity_x.k * 2 * 4)
        np.testing.assert_array_equal(ncca_project_x(model, test.X), whole[0])
        np.testing.assert_array_equal(ncca_project_y(model, test.Y), whole[1])

    def test_reference_prepared_once_per_view(self, built_references, tmp_path):
        ds = gen_spiral_pair(300, seed=17)
        model = quiet_fit(ds.X, ds.Y, make_config(L=1))
        save_model(tmp_path / "before.nccm", model)
        built_references.clear()  # the fit wraps its arrays on each search
        for _ in range(3):
            ncca_project_x(model, ds.X[:5])
            ncca_project_x(model, ds.X[0])
            ncca_project_y(model, ds.Y[:16])
        assert built_references == [300, 300]
        # The prepared references are not part of the saved model.
        save_model(tmp_path / "after.nccm", model)
        assert (tmp_path / "after.nccm").read_bytes() == (tmp_path / "before.nccm").read_bytes()
        loaded = load_model(tmp_path / "after.nccm")
        for _ in range(2):
            ncca_project_x(loaded, ds.X[:5])
            ncca_project_y(loaded, ds.Y[:5])
        assert built_references == [300, 300, 300, 300]

    def test_bulk_equals_its_slices(self):
        # On a 1/64 grid every squared distance is exact, so the distance
        # GEMM cannot round differently for different batch sizes (on
        # continuous data a one-point batch goes through a matrix-vector
        # product and agrees with the bulk only to rounding); what remains is
        # the gather, which must treat each query alone.
        def grid(a):
            return np.round(a * 64.0) / 64.0

        train = gen_spiral_pair(2000, seed=18)
        test = gen_spiral_pair(512, seed=19)
        model = quiet_fit(grid(train.X), grid(train.Y), make_config(L=2))
        for project, queries in ((ncca_project_x, grid(test.X)), (ncca_project_y, grid(test.Y))):
            bulk = project(model, queries)
            for size in (1, 16, 256):
                parts = [project(model, queries[a : a + size]) for a in range(0, 512, size)]
                np.testing.assert_array_equal(np.concatenate(parts), bulk)


class TestDenseOracleEquivalence:
    def test_pipeline_matches_dense_svd_oracle(self):
        # Same affinities, decomposition replaced by exact LAPACK SVD.
        n = 150
        ds = gen_spiral_pair(n, seed=15)
        cfg = make_config(L=2)
        model = quiet_fit(ds.X, ds.Y, cfg)
        S, _ = build_score_matrix(model.train_x, model.train_y, model.config)
        full = dense_svd(S.toarray())
        np.testing.assert_allclose(model.sigmas, full.s[:3], atol=1e-6)
        np.testing.assert_allclose(
            sign_align(model.F, np.sqrt(n) * full.U[:, :3]), np.sqrt(n) * full.U[:, :3], atol=1e-6
        )
