"""Linear CCA: fit and projection."""

import numpy as np
import pytest

from mvcca.cca import cca_fit, cca_project
from mvcca.dataio import gen_gaussian_pair
from mvcca.ncca import NccaConfig, ncca_fit, ncca_project_x, ncca_project_y
from mvcca.plcca import plcca_fit, plcca_project_x, plcca_project_y


def sign_align(A, B):
    """Flip columns of A to best match B (spectral methods are sign-free)."""
    signs = np.sign(np.sum(A * B, axis=0))
    signs[signs == 0] = 1.0
    return A * signs


def empirical_cov(X):
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / X.shape[0]


class TestCcaFit:
    def test_identical_views(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 4))
        model = cca_fit(X, X.copy(), 4, ridge=0.0)
        np.testing.assert_allclose(model.correlations, 1.0, atol=1e-6)

    def test_independent_views_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20000, 3))
        Y = rng.standard_normal((20000, 3))
        model = cca_fit(X, Y, 2)
        assert np.all(model.correlations <= 0.03)

    def test_gaussian_pair_recovery(self):
        rho = [0.9, 0.5, 0.1]
        ds = gen_gaussian_pair(20000, rho, seed=3)
        model = cca_fit(ds.X, ds.Y, 3)
        np.testing.assert_allclose(model.correlations, rho, atol=0.03)

    def test_whitening_constraint(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((400, 5)) @ rng.standard_normal((5, 5))
        Y = rng.standard_normal((400, 4))
        model = cca_fit(X, Y, 3)
        Sxx = empirical_cov(X) + model.ridge_x * np.eye(5)
        Syy = empirical_cov(Y) + model.ridge_y * np.eye(4)
        np.testing.assert_allclose(model.W1.T @ Sxx @ model.W1, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(model.W2.T @ Syy @ model.W2, np.eye(3), atol=1e-8)

    def test_correlations_sorted_in_range(self):
        ds = gen_gaussian_pair(5000, [0.3, 0.7, 0.5], seed=4)
        model = cca_fit(ds.X, ds.Y, 3)
        assert np.all(np.diff(model.correlations) <= 0)
        assert np.all((model.correlations >= 0) & (model.correlations <= 1 + 1e-6))

    def test_affine_invariance_of_correlations(self):
        rng = np.random.default_rng(5)
        ds = gen_gaussian_pair(3000, [0.8, 0.4], seed=6)
        base = cca_fit(ds.X, ds.Y, 2, ridge=0.0)
        A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        shifted = cca_fit(ds.X @ A + np.array([5.0, -3.0]), ds.Y, 2, ridge=0.0)
        np.testing.assert_allclose(base.correlations, shifted.correlations, atol=1e-8)

    def test_training_correlation_matches_reported(self):
        ds = gen_gaussian_pair(4000, [0.7, 0.3], seed=7)
        model = cca_fit(ds.X, ds.Y, 2, ridge=0.0)
        P1 = cca_project(model, 1, ds.X)
        P2 = cca_project(model, 2, ds.Y)
        empirical = np.array([(P1[:, i] * P2[:, i]).mean() for i in range(2)])
        np.testing.assert_allclose(empirical, model.correlations, atol=1e-8)

    def test_errors(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 3))
        Y = rng.standard_normal((50, 2))
        with pytest.raises(ValueError):
            cca_fit(X, Y, 3)  # L > min(Dx, Dy)
        with pytest.raises(ValueError):
            cca_fit(X[:1], Y[:1], 1)  # N < 2
        with pytest.raises(ValueError):
            cca_fit(X, Y[:30], 1)  # unaligned
        with pytest.raises(ValueError):
            cca_fit(X, Y, 1, ridge=-0.1)


@pytest.mark.parametrize("fit", [
    lambda X, Y: cca_fit(X, Y, 1),
    lambda X, Y: plcca_fit(X, Y, 1),
    lambda X, Y: ncca_fit(X, Y, NccaConfig(L=1)),
], ids=["cca", "plcca", "ncca"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("view", ["X", "Y"])
def test_non_finite_view_named(fit, bad, view):
    # Every fit checks both views alike, so the error names the view at fault.
    ds = gen_gaussian_pair(60, [0.8, 0.5], seed=3)
    views = {"X": ds.X.copy(), "Y": ds.Y.copy()}
    views[view][7, 1] = bad
    with pytest.raises(ValueError, match=f"^{view} contains non-finite entries$"):
        fit(views["X"], views["Y"])


@pytest.fixture(scope="module")
def fitted_models():
    """A CCA fit, and PLCCA and NCCA fits without and with both views PCA-reduced."""
    ds = gen_gaussian_pair(80, [0.8, 0.5, 0.3], seed=4)
    return {
        "cca": cca_fit(ds.X, ds.Y, 1),
        "plcca": plcca_fit(ds.X, ds.Y, 1),
        "plcca-pca": plcca_fit(ds.X, ds.Y, 1, pca_x=2, pca_y=2),
        "ncca": ncca_fit(ds.X, ds.Y, NccaConfig(L=1)),
        "ncca-pca": ncca_fit(ds.X, ds.Y, NccaConfig(L=1, pca_x=2, pca_y=2)),
    }


PROJECTIONS = {
    ("cca", "X"): lambda m, d: cca_project(m, 1, d),
    ("cca", "Y"): lambda m, d: cca_project(m, 2, d),
    ("plcca", "X"): plcca_project_x,
    ("plcca", "Y"): plcca_project_y,
    ("ncca", "X"): ncca_project_x,
    ("ncca", "Y"): ncca_project_y,
}


@pytest.mark.parametrize("method,view", list(PROJECTIONS), ids=[f"{m}-{v}" for m, v in PROJECTIONS])
@pytest.mark.parametrize("pca", [False, True], ids=["raw", "pca"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("single", [False, True], ids=["rows", "row"])
def test_non_finite_query_named(fitted_models, method, view, pca, bad, single):
    # Every projection refuses a non-finite query by its view's name, before
    # any PCA reduction.  CCA has no reduced form: its "pca" cases are "raw".
    model = fitted_models[method + ("-pca" if pca and method != "cca" else "")]
    rows = np.zeros((2, 3))
    rows[1, 2] = bad
    with pytest.raises(ValueError, match=f"^{view} contains non-finite entries$"):
        PROJECTIONS[method, view](model, rows[1] if single else rows)


class TestCcaProject:
    def test_mean_maps_to_zero(self):
        ds = gen_gaussian_pair(300, [0.5], seed=9)
        model = cca_fit(ds.X, ds.Y, 1)
        P = cca_project(model, 1, np.tile(model.mean_x, (7, 1)))
        np.testing.assert_allclose(P, 0.0, atol=1e-12)

    def test_identical_views_symmetric_projections(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((400, 3))
        model = cca_fit(X, X.copy(), 3, ridge=0.0)
        P1 = cca_project(model, 1, X)
        P2 = cca_project(model, 2, X)
        np.testing.assert_allclose(sign_align(P1, P2), P2, atol=1e-6)

    def test_projections_whitened(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((2000, 4))
        Y = rng.standard_normal((2000, 3)) + X[:, :3]
        model = cca_fit(X, Y, 2, ridge=0.0)
        P = cca_project(model, 1, X)
        np.testing.assert_allclose(P.T @ P / 2000, np.eye(2), atol=1e-8)

    def test_single_sample_matches_batch(self):
        # A GEMM rounds a row differently with the batch it comes in; every row
        # of a 600-row batch must equal its projection alone, on both views.
        ds = gen_gaussian_pair(5000, np.linspace(0.9, 0.3, 7), seed=12)
        model = cca_fit(ds.X, ds.Y, 3)
        for view, data in ((1, ds.X[:600]), (2, ds.Y[:600])):
            batch = cca_project(model, view, data)
            alone = np.array([cca_project(model, view, row) for row in data])
            np.testing.assert_array_equal(alone, batch)

    def test_bad_view_and_width(self):
        ds = gen_gaussian_pair(50, [0.5], seed=13)
        model = cca_fit(ds.X, ds.Y, 1)
        with pytest.raises(ValueError):
            cca_project(model, 3, ds.X)
        with pytest.raises(ValueError):
            cca_project(model, 1, np.zeros((4, 7)))
