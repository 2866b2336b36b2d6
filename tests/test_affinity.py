"""Gaussian affinity construction, stochastic normalization, KDE-ratio identity."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mvcca.affinity import (
    AffinityConfig,
    affinity_rows,
    default_bandwidth,
    gaussian_affinity,
    normalize_left_stochastic,
    normalize_right_stochastic,
)

# A float32 overflow or underflow in the kNN screen must fail, not warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# 0.45 * E||x|| for x ~ N(0, I_10); E||x|| = sqrt(2) Gamma(5.5)/Gamma(5) = 3.08427.
BANDWIDTH_10D_GAUSSIAN = 1.38792


def dense_gaussian(points, sigma):
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    return np.exp(-d2 / (2.0 * sigma * sigma))


class TestDefaultBandwidth:
    def test_hand_computed(self):
        points = np.array([[3.0, 4.0], [3.0, 4.0]])
        assert default_bandwidth(points, 0.4) == pytest.approx(2.0)

    def test_unit_norm_samples(self):
        points = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        assert default_bandwidth(points, 0.5) == pytest.approx(0.5)

    def test_gaussian_10d_monte_carlo(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((10000, 10))
        assert default_bandwidth(points, 0.45) == pytest.approx(BANDWIDTH_10D_GAUSSIAN, abs=0.02)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            default_bandwidth(np.zeros((4, 3)))

    def test_bad_fraction_rejected(self):
        points = np.ones((3, 2))
        with pytest.raises(ValueError):
            default_bandwidth(points, 0.0)
        with pytest.raises(ValueError):
            default_bandwidth(points, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty 2-D"):
            default_bandwidth(np.zeros((0, 3)))


class TestAffinityConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"k": 0}, "integer >= 1"),
            ({"k": 2.5}, "integer >= 1"),
            ({"sigma": 0.0}, "positive and finite"),
            ({"sigma": -1.0}, "positive and finite"),
            ({"sigma": float("nan")}, "positive and finite"),
            ({"sigma": float("inf")}, "positive and finite"),
            ({"fraction": 0.0}, r"fraction must be in \(0, 1\]"),
            ({"fraction": 1.5}, r"fraction must be in \(0, 1\]"),
        ],
        ids=["k-0", "k-2.5", "sigma-0", "sigma-neg", "sigma-nan", "sigma-inf", "fraction-0", "fraction-1.5"],
    )
    def test_rejected_at_construction_and_replace(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            AffinityConfig(**kwargs)
        with pytest.raises(ValueError, match=message):
            replace(AffinityConfig(), **kwargs)

    def test_fraction_ignored_with_fixed_sigma(self):
        cfg = AffinityConfig(sigma=2.0, k=np.int64(3), fraction=0.0)
        assert cfg.resolve_sigma(np.ones((3, 2))) == 2.0


class TestGaussianAffinity:
    def test_single_point(self):
        W = gaussian_affinity(np.array([[2.0, 3.0]]), AffinityConfig(sigma=1.0, k=1))
        np.testing.assert_allclose(W.toarray(), [[1.0]])

    def test_two_points_hand_computed(self):
        sigma = 0.7
        points = np.array([[0.0], [sigma * np.sqrt(2.0)]])
        W = gaussian_affinity(points, AffinityConfig(sigma=sigma, k=2)).toarray()
        np.testing.assert_allclose(np.diag(W), 1.0)
        np.testing.assert_allclose(W[0, 1], np.exp(-1.0), rtol=1e-15)
        np.testing.assert_allclose(W[1, 0], np.exp(-1.0), rtol=1e-15)

    def test_untruncated_matches_dense_formula(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((40, 3))
        sigma = 0.9
        W = gaussian_affinity(points, AffinityConfig(sigma=sigma, k=40)).toarray()
        np.testing.assert_allclose(W, dense_gaussian(points, sigma), atol=1e-15)

    def test_column_counts_and_diagonal(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((60, 4))
        k = 7
        W = gaussian_affinity(points, AffinityConfig(sigma=1.0, k=k))
        col_counts = np.diff(W.tocsc().indptr)
        assert np.all((col_counts >= k) & (col_counts <= k + 1))
        np.testing.assert_allclose(W.diagonal(), 1.0)
        assert np.all(np.diff(W.tocsr().indptr) >= 1)  # no zero row

    def test_truncation_semantics(self):
        from mvcca.neighbors import knn_search

        rng = np.random.default_rng(3)
        points = rng.standard_normal((50, 2))
        k = 5
        W = gaussian_affinity(points, AffinityConfig(sigma=1.0, k=k)).tocsc()
        knn = knn_search(points, points, k)
        for j in range(50):
            nonzero_rows = set(W.indices[W.indptr[j] : W.indptr[j + 1]].tolist())
            assert nonzero_rows == set(knn.indices[j].tolist()) | {j}

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((30, 3))
        a = gaussian_affinity(points, AffinityConfig(sigma=0.8, k=6)).toarray()
        b = gaussian_affinity(points * 3.5, AffinityConfig(sigma=0.8 * 3.5, k=6)).toarray()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            gaussian_affinity(np.zeros((3, 2)), AffinityConfig(sigma=1.0, k=4))


class TestStochasticNormalization:
    def test_right_hand_computed(self):
        W = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
        np.testing.assert_allclose(
            normalize_right_stochastic(W).toarray(), [[0.5, 0.5], [0.0, 1.0]]
        )

    def test_right_idempotent(self):
        W = sp.csr_matrix(np.array([[0.25, 0.75], [0.6, 0.4]]))
        np.testing.assert_allclose(
            normalize_right_stochastic(W).toarray(), W.toarray(), atol=1e-15
        )

    def test_right_row_sums(self):
        rng = np.random.default_rng(6)
        W = sp.random(200, 200, density=0.05, random_state=7, format="csr")
        W = W + sp.eye(200)
        sums = np.asarray(normalize_right_stochastic(W).sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_right_zero_row_rejected(self):
        W = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            normalize_right_stochastic(W)

    def test_left_hand_computed(self):
        W = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_allclose(
            normalize_left_stochastic(W).toarray(), [[0.5, 0.0], [0.5, 1.0]]
        )

    def test_left_idempotent(self):
        W = sp.csr_matrix(np.array([[0.25, 0.6], [0.75, 0.4]]))
        np.testing.assert_allclose(normalize_left_stochastic(W).toarray(), W.toarray(), atol=1e-15)

    def test_left_column_sums(self):
        W = sp.random(150, 150, density=0.06, random_state=8, format="csr") + sp.eye(150)
        sums = np.asarray(normalize_left_stochastic(W).sum(axis=0)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_left_zero_column_rejected(self):
        W = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            normalize_left_stochastic(W)

    def test_sparsity_pattern_preserved(self):
        W = sp.random(80, 80, density=0.04, random_state=9, format="csr") + sp.eye(80)
        R = normalize_right_stochastic(W)
        assert np.array_equal(R.indptr, W.tocsr().indptr)
        assert np.array_equal(R.indices, W.tocsr().indices)


class TestAffinityRow:
    def test_exact_training_point_k1(self):
        rng = np.random.default_rng(10)
        train = rng.standard_normal((20, 3))
        row = affinity_rows(np.atleast_2d(train[7]), train, AffinityConfig(sigma=0.5, k=1))
        row = row.toarray().ravel()
        expected = np.zeros(20)
        expected[7] = 1.0
        np.testing.assert_allclose(row, expected)

    def test_two_equidistant_points(self):
        train = np.array([[-1.0, 0.0], [1.0, 0.0]])
        row = affinity_rows(np.zeros((1, 2)), train, AffinityConfig(sigma=1.0, k=2))
        row = row.toarray().ravel()
        np.testing.assert_allclose(row, [0.5, 0.5])

    def test_untruncated_matches_dense(self):
        rng = np.random.default_rng(11)
        train = rng.standard_normal((30, 4))
        q = rng.standard_normal(4)
        sigma = 1.2
        row = affinity_rows(np.atleast_2d(q), train, AffinityConfig(sigma=sigma, k=30))
        row = row.toarray().ravel()
        w = np.exp(-np.sum((train - q) ** 2, axis=1) / (2 * sigma * sigma))
        np.testing.assert_allclose(row, w / w.sum(), atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        train = rng.standard_normal((50, 3))
        rows = affinity_rows(rng.standard_normal((9, 3)), train, AffinityConfig(sigma=0.8, k=10))
        np.testing.assert_allclose(np.asarray(rows.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_far_query_gives_normalized_row(self):
        # Unshifted, both weights would underflow to exactly zero here.
        train = np.array([[0.0, 0.0], [0.1, 0.0]])
        row = affinity_rows(np.atleast_2d([1e6, 0.0]), train, AffinityConfig(sigma=1e-3, k=2))
        assert np.all(np.isfinite(row.data))
        assert row.sum() == pytest.approx(1.0, abs=1e-15)
        # The nearer training point takes all the weight at this bandwidth.
        np.testing.assert_array_equal(row.toarray(), [[0.0, 1.0]])


class TestKdeRatioIdentity:
    def test_untruncated_score_matches_density_ratio(self):
        # Independent oracle: evaluate the three kernel density estimates
        # directly and form the ratio; kernel normalization constants cancel.
        rng = np.random.default_rng(13)
        n = 120
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, 2))
        sx, sy = 1.3, 0.8

        Wx = normalize_right_stochastic(gaussian_affinity(X, AffinityConfig(sigma=sx, k=n)))
        Wy = normalize_left_stochastic(gaussian_affinity(Y, AffinityConfig(sigma=sy, k=n)))
        S = (Wx @ Wy).toarray()

        wx = dense_gaussian(X, sx)
        wy = dense_gaussian(Y, sy)
        p_x = wx.mean(axis=1)
        p_y = wy.mean(axis=0)
        p_xy = np.einsum("li,mi->lm", wx, wy) / n
        ratio = p_xy / np.outer(p_x, p_y)

        np.testing.assert_allclose(n * S, ratio, rtol=1e-10)
