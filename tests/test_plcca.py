"""Partially linear CCA: kernel regression, fit, projections, optimal pairing."""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mvcca.affinity
import mvcca.plcca
from mvcca.affinity import AffinityConfig, affinity_weights
from mvcca.cca import cca_fit, cca_project
from mvcca.dataio import gen_gaussian_pair
from mvcca.linalg import NumericalError
from mvcca.metrics import pearson
from mvcca.neighbors import KnnReference, knn_search
from mvcca.plcca import (
    nw_regress,
    optimal_g,
    plcca_fit,
    plcca_linear_oracle,
    plcca_project_x,
    plcca_project_y,
)


def sign_align(A, B):
    signs = np.sign(np.sum(A * B, axis=0))
    signs[signs == 0] = 1.0
    return A * signs


class TestNwRegress:
    def test_single_training_point(self):
        train_Y = np.array([[1.0, 2.0]])
        train_X = np.array([[5.0, -1.0, 3.0]])
        out = nw_regress(train_Y, train_X, AffinityConfig(sigma=1.0, k=1),
                         np.array([[100.0, 100.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, np.tile(train_X, (2, 1)))

    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        train_Y = rng.standard_normal((40, 2))
        train_X = np.tile([2.5, -1.0], (40, 1))
        out = nw_regress(train_Y, train_X, AffinityConfig(sigma=0.5, k=10), train_Y)
        np.testing.assert_allclose(out, train_X, rtol=1e-12)

    def test_small_bandwidth_limit_recovers_target(self):
        rng = np.random.default_rng(1)
        train_Y = rng.standard_normal((50, 2))
        train_X = rng.standard_normal((50, 3))
        nn = knn_search(train_Y, train_Y, 2)
        min_pos = np.sqrt(nn.distances[:, 1].min())
        out = nw_regress(train_Y, train_X, AffinityConfig(sigma=1e-3 * min_pos, k=5), train_Y)
        np.testing.assert_allclose(out, train_X, atol=1e-6)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        train_Y = rng.standard_normal((60, 2))
        train_X = rng.standard_normal((60, 4))
        out = nw_regress(train_Y, train_X, AffinityConfig(sigma=0.7, k=12),
                         rng.standard_normal((80, 2)))
        assert np.all(out <= train_X.max(axis=0) + 1e-12)
        assert np.all(out >= train_X.min(axis=0) - 1e-12)

    def test_untruncated_matches_dense_formula(self):
        rng = np.random.default_rng(3)
        train_Y = rng.standard_normal((30, 2))
        train_X = rng.standard_normal((30, 3))
        q = rng.standard_normal((5, 2))
        sigma = 0.9
        out = nw_regress(train_Y, train_X, AffinityConfig(sigma=sigma, k=30), q)
        d2 = ((q[:, None, :] - train_Y[None, :, :]) ** 2).sum(-1)
        w = np.exp(-d2 / (2 * sigma * sigma))
        expected = (w / w.sum(axis=1)[:, None]) @ train_X
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_k_above_n_equals_k_n(self):
        # k is clamped to N before the neighbour search, which would refuse k > N.
        rng = np.random.default_rng(4)
        train_Y = rng.standard_normal((20, 2))
        train_X = rng.standard_normal((20, 3))
        q = rng.standard_normal((7, 2))
        at_n = nw_regress(train_Y, train_X, AffinityConfig(sigma=0.9, k=20), q)
        above = nw_regress(train_Y, train_X, AffinityConfig(sigma=0.9, k=50), q)
        np.testing.assert_array_equal(above, at_n)

    def test_equals_einsum_over_affinity_weights(self):
        # One weight formula: the regression is the affinity weights' average of X rows.
        ds = gen_gaussian_pair(500, [0.8, 0.5, 0.2], seed=6)
        queries = gen_gaussian_pair(70, [0.8, 0.5, 0.2], seed=7).Y
        cfg = AffinityConfig(sigma=0.6, k=12)
        idx, w = affinity_weights(queries, ds.Y, cfg)
        np.testing.assert_array_equal(
            nw_regress(ds.Y, ds.X, cfg, queries), np.einsum("qk,qkd->qd", w, ds.X[idx])
        )

    @pytest.mark.parametrize("held_out", [False, True])
    def test_small_gather_blocks_bit_identical(self, monkeypatch, held_out):
        ds = gen_gaussian_pair(300, [0.8, 0.5, 0.2], seed=8)
        queries = gen_gaussian_pair(100, [0.8, 0.5, 0.2], seed=9).Y if held_out else ds.Y
        cfg = AffinityConfig(sigma=0.7, k=9)
        whole = nw_regress(ds.Y, ds.X, cfg, queries)
        # Blocks of 3 query rows: 9 neighbors times 3 columns times 3 rows.
        monkeypatch.setattr(mvcca.affinity, "_GATHER_BLOCK_ELEMS", 9 * 3 * 3)
        blocked = nw_regress(ds.Y, ds.X, cfg, queries)
        np.testing.assert_array_equal(blocked, whole)

    def test_gather_memory_bounded(self):
        # At D = 50 and k = 15 one gather block holds at most 8 MB, whatever N;
        # the output and the neighbour lists add 3.8 MB here.
        ds = gen_gaussian_pair(6000, np.linspace(0.9, 0.1, 50), seed=12)
        ref, cfg = KnnReference(ds.Y), AffinityConfig(k=15)
        tracemalloc.start()
        try:
            nw_regress(ref, ds.X, cfg, ds.Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_far_query_tiny_bandwidth_returns_nearest_row(self, fitted):
        ds, model = fitted
        far = np.array([[1e6, -3e5]])
        nearest = np.argmin(((model.train_Y - far) ** 2).sum(axis=1))
        tight = replace(model.y_affinity, sigma=1e-3)
        out = nw_regress(model.knn_y, ds.X, tight, far)
        np.testing.assert_array_equal(out, ds.X[nearest : nearest + 1])
        assert np.all(np.isfinite(plcca_project_y(replace(model, y_affinity=tight), far)))

    def test_single_query_vector(self):
        rng = np.random.default_rng(5)
        train_Y = rng.standard_normal((25, 2))
        train_X = rng.standard_normal((25, 3))
        cfg = AffinityConfig(sigma=0.8, k=6)
        single = nw_regress(train_Y, train_X, cfg, train_Y[3])
        batch = nw_regress(train_Y, train_X, cfg, train_Y[3:4])
        np.testing.assert_array_equal(single, batch[0])


class TestPlccaFit:
    def test_smooth_bijection_recovers_dependence(self):
        rng = np.random.default_rng(6)
        n = 5000
        X = rng.standard_normal((n, 2))
        Y = np.column_stack([X[:, 0] ** 3 + X[:, 0], X[:, 1]])
        model = plcca_fit(X, Y, 2, AffinityConfig(k=50, fraction=0.1))
        P = plcca_project_x(model, X)
        G = plcca_project_y(model, Y)
        for i in range(2):
            assert abs(pearson(P[:, i], G[:, i])) >= 0.95

    def test_independent_views_small_eigenvalues(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20000, 3))
        Y = rng.standard_normal((20000, 3))
        model = plcca_fit(X, Y, 3, AffinityConfig(k=200))
        assert np.all(model.D <= 0.05)

    def test_eigenvalues_sorted_positive(self):
        ds = gen_gaussian_pair(2000, [0.8, 0.4], seed=8)
        model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=100))
        assert np.all(np.diff(model.D) <= 0) and np.all(model.D > 0)

    def test_degenerate_view1_rejected(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal(500)
        X = np.column_stack([base, base])  # rank-1 view
        Y = rng.standard_normal((500, 2))
        with pytest.raises(NumericalError):
            plcca_fit(X, Y, 2, AffinityConfig(k=20))

    def test_constant_targets_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(NumericalError):
            plcca_fit(np.ones((100, 2)), rng.standard_normal((100, 2)), 1, AffinityConfig(k=10))

    def test_l_out_of_range(self):
        ds = gen_gaussian_pair(100, [0.5, 0.5], seed=11)
        with pytest.raises(ValueError):
            plcca_fit(ds.X, ds.Y, 3, AffinityConfig(k=10))

    def test_search_stage_covers_view_reduction(self, monkeypatch):
        # The two reported stages add up to the fit: the PCA before the
        # neighbour search is timed as part of it.
        reduce_view = mvcca.plcca._reduce_view

        def slow(*args):
            time.sleep(0.05)
            return reduce_view(*args)

        monkeypatch.setattr(mvcca.plcca, "_reduce_view", slow)
        ds = gen_gaussian_pair(200, [0.8, 0.4], seed=12)
        model = plcca_fit(ds.X, ds.Y, 1, AffinityConfig(k=10), pca_x=1)
        assert model.timings["search_seconds"] >= 0.05


class TestLinearOracle:
    def test_projections_match_cca(self):
        ds = gen_gaussian_pair(5000, [0.85, 0.55, 0.25], seed=12)
        oracle = plcca_linear_oracle(ds.X, ds.Y, 3)
        ref = cca_fit(ds.X, ds.Y, 3)
        Px = cca_project(oracle, 1, ds.X)
        Py = cca_project(oracle, 2, ds.Y)
        np.testing.assert_allclose(sign_align(Px, cca_project(ref, 1, ds.X)),
                                   cca_project(ref, 1, ds.X), atol=1e-6)
        np.testing.assert_allclose(sign_align(Py, cca_project(ref, 2, ds.Y)),
                                   cca_project(ref, 2, ds.Y), atol=1e-6)

    def test_eigenvalues_are_squared_correlations(self):
        ds = gen_gaussian_pair(3000, [0.7, 0.4], seed=13)
        oracle = plcca_linear_oracle(ds.X, ds.Y, 2)
        ref = cca_fit(ds.X, ds.Y, 2)
        np.testing.assert_allclose(oracle.correlations**2, ref.correlations**2, atol=1e-8)

    def test_identical_views_unit_eigenvalues(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((800, 3))
        oracle = plcca_linear_oracle(X, X.copy(), 3, ridge=0.0)
        np.testing.assert_allclose(oracle.correlations**2, 1.0, atol=1e-6)

    def test_negative_ridge_rejected(self):
        ds = gen_gaussian_pair(200, [0.5, 0.3], seed=17)
        with pytest.raises(ValueError, match="nonnegative"):
            plcca_linear_oracle(ds.X, ds.Y, 1, ridge=-1e-3)

    def test_independent_views_small_eigenvalues(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((20000, 2))
        Y = rng.standard_normal((20000, 2))
        oracle = plcca_linear_oracle(X, Y, 2)
        assert np.all(oracle.correlations**2 <= 0.01)

    def test_degenerate_direction_rejected(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((300, 2))
        Y = 1e-9 * rng.standard_normal((300, 2))  # essentially constant view
        with pytest.raises(NumericalError):
            plcca_linear_oracle(X, Y, 2, ridge=1e-6)


@pytest.fixture(scope="module")
def fitted():
    ds = gen_gaussian_pair(1500, [0.8, 0.5], seed=15)
    model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=60), ridge=0.0)
    return ds, model


class TestProjections:
    def test_mean_maps_to_zero(self, fitted):
        _, model = fitted
        P = plcca_project_x(model, np.tile(model.mean_x, (4, 1)))
        np.testing.assert_allclose(P, 0.0, atol=1e-12)

    def test_training_x_whitened(self, fitted):
        ds, model = fitted
        P = plcca_project_x(model, ds.X)
        np.testing.assert_allclose(P.T @ P / len(ds.X), np.eye(2), atol=1e-6)

    def test_training_y_whitened(self, fitted):
        ds, model = fitted
        G = plcca_project_y(model, ds.Y)
        np.testing.assert_allclose(G.T @ G / len(ds.Y), np.eye(2), atol=1e-6)

    def test_paired_components_positively_correlated(self, fitted):
        ds, model = fitted
        P = plcca_project_x(model, ds.X)
        G = sign_align(plcca_project_y(model, ds.Y), P)
        for i in range(2):
            assert pearson(P[:, i], G[:, i]) > 0

    def test_single_sample_matches_batch(self, fitted):
        ds, model = fitted
        np.testing.assert_array_equal(
            plcca_project_x(model, ds.X[0]), plcca_project_x(model, ds.X[:1])[0]
        )
        np.testing.assert_array_equal(
            plcca_project_y(model, ds.Y[0]), plcca_project_y(model, ds.Y[:1])[0]
        )

    def test_dimension_mismatch(self, fitted):
        _, model = fitted
        with pytest.raises(ValueError):
            plcca_project_x(model, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            plcca_project_y(model, np.zeros((3, 5)))

    def test_reference_prepared_once(self, built_references):
        ds = gen_gaussian_pair(400, [0.8, 0.5], seed=19)
        # The fit prepares view 2 once, for its own regression and for projection.
        model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=20))
        first = plcca_project_y(model, ds.Y[:16])
        for _ in range(3):
            np.testing.assert_array_equal(plcca_project_y(model, ds.Y[:16]), first)
            plcca_project_y(model, ds.Y[0])
            plcca_project_x(model, ds.X[:16])
        assert built_references == [400]

    def test_prepared_reference_regresses_bit_identically(self, fitted):
        ds, model = fitted
        prepared = KnnReference(model.train_Y)
        queries = ds.Y[:200] + 0.1
        np.testing.assert_array_equal(
            nw_regress(prepared, ds.X, model.y_affinity, queries),
            nw_regress(model.train_Y, ds.X, model.y_affinity, queries),
        )

    def test_view2_is_regression_of_map_bit_for_bit(self, fitted):
        # View 2 and nw_regress share one path: the regression of Hy, over sqrt(D).
        ds, model = fitted
        for queries in (ds.Y[:300] + 0.05, ds.Y[3], np.array([[40.0, -25.0]])):
            np.testing.assert_array_equal(
                plcca_project_y(model, queries),
                nw_regress(model.knn_y, model.Hy, model.y_affinity, queries) / np.sqrt(model.D),
            )

    def test_view2_equals_whitened_regression_of_x(self, fitted):
        # The fit folds whitener and U into the training X: the same projection.
        ds, model = fitted
        far = np.array([[40.0, -25.0], [1e3, 1e3], [-3e2, 5.0]])
        for queries in (ds.Y, far):
            idx, w = affinity_weights(queries, ds.Y, model.y_affinity)
            xhat = np.array([sum(wj * ds.X[j] for wj, j in zip(*row)) for row in zip(w, idx)])
            expected = (xhat - model.xhat_mean) @ model.whitener @ model.U / np.sqrt(model.D)
            got = plcca_project_y(model, queries)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("L", [1, 5])
    def test_view1_slices_equal_bulk_bit_for_bit(self, L):
        # The product with whitener @ U sums over the 50 coordinates in one
        # order whatever the number of rows or their alignment.
        ds = gen_gaussian_pair(2000, np.linspace(0.9, 0.1, 50), seed=23)
        model = plcca_fit(ds.X, ds.Y, L, AffinityConfig(k=15))
        queries = gen_gaussian_pair(512, np.linspace(0.9, 0.1, 50), seed=24).X
        bulk = plcca_project_x(model, queries)
        np.testing.assert_allclose(
            bulk, (queries - model.mean_x) @ model.whitener @ model.U, rtol=1e-12, atol=1e-12
        )
        for size in (1, 3, 16):
            sliced = np.vstack(
                [plcca_project_x(model, queries[i : i + size]) for i in range(0, 512, size)]
            )
            np.testing.assert_array_equal(sliced, bulk)
        np.testing.assert_array_equal(plcca_project_x(model, queries[5]), bulk[5])
        np.testing.assert_array_equal(plcca_project_x(model, np.asfortranarray(queries)), bulk)

    def test_view2_slices_equal_bulk_bit_for_bit(self):
        ds = gen_gaussian_pair(3000, np.linspace(0.9, 0.1, 20), seed=21)
        model = plcca_fit(ds.X, ds.Y, 5, AffinityConfig(k=15))
        queries = gen_gaussian_pair(512, np.linspace(0.9, 0.1, 20), seed=22).Y
        bulk = plcca_project_y(model, queries)
        for size in (1, 3, 16):
            sliced = np.vstack(
                [plcca_project_y(model, queries[i : i + size]) for i in range(0, 512, size)]
            )
            np.testing.assert_array_equal(sliced, bulk)

    def test_pca_reduced_rows_equal_bulk_bit_for_bit(self):
        # The PCA reduction is a row-by-row product too, so neither view's
        # projection depends on the number of rows it is given.
        ds = gen_gaussian_pair(3000, np.linspace(0.9, 0.1, 10), seed=25)
        model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=15), pca_x=4, pca_y=3)
        test = gen_gaussian_pair(512, np.linspace(0.9, 0.1, 10), seed=26)
        for project, queries in ((plcca_project_x, test.X), (plcca_project_y, test.Y)):
            bulk = project(model, queries)
            rows = np.vstack([project(model, q) for q in queries])
            np.testing.assert_array_equal(rows, bulk)

    def test_pca_preprocessing_round_trip(self):
        ds = gen_gaussian_pair(800, [0.8, 0.5, 0.3], seed=16)
        model = plcca_fit(ds.X, ds.Y, 2, AffinityConfig(k=40), pca_x=2)
        assert model.pca_x is not None and model.pca_y is None
        P = plcca_project_x(model, ds.X)
        assert P.shape == (800, 2)


class TestOptimalG:
    def test_diagonal_scaling(self):
        rng = np.random.default_rng(17)
        n = 400
        Q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        Fhat = np.sqrt(n) * Q * np.array([2.0, 3.0])  # second moment diag(4, 9)
        G = optimal_g(Fhat)
        np.testing.assert_allclose(G, Fhat * [0.5, 1.0 / 3.0], atol=1e-10)

    def test_already_whitened_unchanged(self):
        rng = np.random.default_rng(18)
        n = 300
        Q, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        Fhat = np.sqrt(n) * Q
        np.testing.assert_allclose(optimal_g(Fhat), Fhat, atol=1e-10)

    def test_output_second_moment_identity(self):
        rng = np.random.default_rng(19)
        Fhat = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4))
        G = optimal_g(Fhat)
        np.testing.assert_allclose(G.T @ G / 500, np.eye(4), atol=1e-10)

    def test_singular_rejected(self):
        rng = np.random.default_rng(20)
        col = rng.standard_normal((100, 1))
        with pytest.raises(NumericalError):
            optimal_g(np.column_stack([col, col]))
