"""Partially linear CCA: linear in view 1, nonparametric in view 2.

The view-2 side enters only through the conditional expectation of X given
Y, estimated by Nadaraya-Watson kernel regression over the k nearest
training neighbors.  The linear directions come from the top eigenvectors
of the whitened covariance of those conditional means; the view-2 mapping
is the whitened conditional mean rescaled by the inverse square roots of
the eigenvalues, which is the optimal pairing for a fixed linear side.

Regression commutes with that fixed linear map, so the fit applies it to
the training X once: a view-2 projection averages rows of the resulting
N x L map over a query's neighbors and never sees the N x D training X.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .affinity import AffinityConfig
from .cca import CcaModel, _covariance, _moments, _validate_views
# pca_apply and knn_search are unused: perfbench/tracing.py patches them here.
from .linalg import NumericalError, _centred_product, _prepare_queries, inv_sqrt_psd, pca_apply, sym_eig
from .ncca import _nystrom_project, _reduce_view
from .neighbors import KnnReference, knn_search

__all__ = [
    "PlccaModel",
    "nw_regress",
    "plcca_fit",
    "plcca_linear_oracle",
    "plcca_project_x",
    "plcca_project_y",
    "optimal_g",
]

# Canonical directions with squared correlation below this are degenerate.
EIGENVALUE_FLOOR = 1e-12


@dataclass
class PlccaModel:
    """Trained partially linear CCA state.

    ``whitener`` is the ridged inverse square root of the view-1 covariance;
    U and D are the top eigenvectors/eigenvalues of the whitened
    conditional-mean covariance, where new Y samples are mapped to
    conditional means by kernel regression over the training Y.  The model
    holds ``Hy = (train_X - xhat_mean) @ whitener @ U``, the N x L map whose
    regressed rows divided by ``sqrt(D)`` are the view-2 projections, in
    place of the training X.  ``knn_y`` is ``train_Y`` prepared for kNN
    search (the fit's own, or built on first use by a loaded model) and
    ``x_map`` is ``whitener @ U``; neither is serialized.
    """

    mean_x: np.ndarray
    whitener: np.ndarray
    U: np.ndarray
    D: np.ndarray
    xhat_mean: np.ndarray
    ridge: float
    Hy: np.ndarray
    train_Y: np.ndarray
    y_affinity: AffinityConfig
    pca_x: tuple | None = None
    pca_y: tuple | None = None
    timings: dict = field(default_factory=dict, repr=False)

    knn_y = cached_property(lambda self: KnnReference(self.train_Y))
    x_map = cached_property(lambda self: self.whitener @ self.U)


def nw_regress(train_Y, train_X, config: AffinityConfig, query_Y):
    """Nadaraya-Watson estimate of E[X | Y = y] at each query row.

    NCCA's Nystrom projection (:func:`~mvcca.ncca._nystrom_project`) with the
    training X as the map and scale 1: the weights are normalized Gaussian
    affinities to the ``min(k, N)`` nearest training neighbors, shifted so
    that small bandwidths cannot underflow every weight, and each output row
    is their convex combination of training X rows.  ``train_Y`` may be a
    :class:`~mvcca.neighbors.KnnReference` prepared once for many calls.
    """
    ref = train_Y if isinstance(train_Y, KnnReference) else KnnReference(train_Y)
    train_X = np.ascontiguousarray(train_X, dtype=np.float64)
    if train_X.shape[0] != len(ref):
        raise ValueError("training views are not aligned")
    config = replace(config, k=min(config.k, len(ref)))
    return _nystrom_project(query_Y, None, ref, config, train_X, 1.0, "Y")


def _fit_from_xhat(X, xhat, L, ridge):
    """Whiten, eigendecompose, validate; centres the fit's own ``xhat`` in place."""
    n, dx = X.shape
    if not (1 <= L <= dx):
        raise ValueError(f"L={L} out of range for view-1 width {dx}")
    mean_x, Xc, Sxx, ridge = _covariance(X, ridge)
    del Xc
    whitener = inv_sqrt_psd(Sxx + ridge * np.eye(dx))

    xhat_mean = xhat.mean(axis=0)
    np.subtract(xhat, xhat_mean, out=xhat)
    U, D = _top_directions(whitener, xhat.T @ xhat / n, L)
    return mean_x, whitener, U, D, xhat_mean, ridge


def _top_directions(whitener, S, L):
    """Top-L eigenpairs of ``whitener @ S @ whitener``, S a conditional-mean covariance."""
    eigvals, eigvecs = sym_eig(whitener @ S @ whitener)
    D = eigvals[:L]
    if np.any(D <= EIGENVALUE_FLOOR):
        raise NumericalError(
            f"conditional-mean covariance is degenerate along a requested direction "
            f"(eigenvalue {D.min():.3e})"
        )
    return eigvecs[:, :L], D


def plcca_fit(
    X,
    Y,
    L,
    config: AffinityConfig | None = None,
    ridge=None,
    pca_x=None,
    pca_y=None,
):
    """Fit partially linear CCA with a kernel-regression conditional mean.

    The conditional mean at each training point is estimated with the
    point's own pair included (leave-self-in).  ``pca_x`` / ``pca_y``
    optionally reduce a view first (int dimension, fraction of the input
    width, or True for the default fraction); the fitted maps are kept on
    the model so projection applies them.  The training X is kept only as
    the view-2 map ``Hy`` (see :class:`PlccaModel`).
    """
    X, Y = _validate_views(X, Y)
    t0 = time.perf_counter()
    X, pca_x_map = _reduce_view(X, pca_x)
    Y, pca_y_map = _reduce_view(Y, pca_y)
    if config is None:
        config = AffinityConfig()
    config = replace(config, sigma=config.resolve_sigma(Y), k=min(config.k, len(Y)))
    knn_y = KnnReference(Y)
    xhat = nw_regress(knn_y, X, config, Y)
    t1 = time.perf_counter()
    mean_x, whitener, U, D, xhat_mean, ridge = _fit_from_xhat(X, xhat, L, ridge)
    A = whitener @ U
    Hy = X @ A - xhat_mean @ A
    t2 = time.perf_counter()
    model = PlccaModel(
        mean_x=mean_x,
        whitener=whitener,
        U=U,
        D=D,
        xhat_mean=xhat_mean,
        ridge=ridge,
        Hy=Hy,
        train_Y=Y,
        y_affinity=config,
        pca_x=pca_x_map,
        pca_y=pca_y_map,
        timings={"search_seconds": t1 - t0, "optimize_seconds": t2 - t1},
    )
    model.knn_y = knn_y
    return model


def plcca_linear_oracle(X, Y, L, ridge=None):
    """Fit with the optimal *linear* predictor in place of kernel regression.

    ``B (y - mean_y)``, ``B = Sxy (Syy + r I)^{-1}``, predicts ``x - mean_x``.
    This reduces the method to linear CCA, so the fit returns the
    :class:`~mvcca.cca.CcaModel` it reduces to: ``W1 = whitener @ U``,
    ``W2 = B.T @ W1 / sqrt(D)`` and correlations ``sqrt(D)``.  Its
    projections match :func:`mvcca.cca.cca_fit` up to per-column sign, and
    D equals the squared canonical correlations.

    Raises
    ------
    NumericalError
        If the ridged view-2 covariance is singular, or a selected
        eigenvalue is at or below 1e-12 (degenerate canonical direction).
    """
    X, Y = _validate_views(X, Y)
    if not (1 <= L <= X.shape[1]):
        raise ValueError(f"L={L} out of range for view-1 width {X.shape[1]}")
    mean_x, mean_y, Sxx, Syy, Sxy, rx, ry = _moments(X, Y, ridge)
    whitener = inv_sqrt_psd(Sxx + rx * np.eye(X.shape[1]))
    try:
        B = np.linalg.solve(Syy + ry * np.eye(Y.shape[1]), Sxy.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular view-2 covariance: {exc}") from None
    # The cross-moment form B Syx (not the second moment of the ridged
    # predictions) is what makes D the exact squared canonical correlations.
    Sxhat = B @ Sxy.T
    U, D = _top_directions(whitener, (Sxhat + Sxhat.T) / 2.0, L)
    A = whitener @ U
    return CcaModel(
        mean_x=mean_x,
        mean_y=mean_y,
        W1=A,
        W2=B.T @ A / np.sqrt(D),
        correlations=np.sqrt(D),
        ridge_x=rx,
        ridge_y=ry,
    )


def plcca_project_x(model: PlccaModel, X_new):
    """View-1 projection: center, whiten, rotate onto the top directions.

    The product with ``whitener @ U`` is the row-by-row one of the PCA
    reduction, so a row projects bit-identically alone or in any batch.
    """
    expect = model.pca_x[1].shape[0] if model.pca_x else model.mean_x.shape[0]
    X_new, single = _prepare_queries(X_new, expect, model.pca_x, "X")
    P = _centred_product(X_new, model.mean_x, model.x_map)
    return P[0] if single else P


def plcca_project_y(model: PlccaModel, Y_new):
    """View-2 projection via the conditional mean of X given each new y.

    The kernel regression of the map ``Hy`` (the whitened, rotated training
    X) in place of X, divided by ``sqrt(D)``.
    """
    return _nystrom_project(
        Y_new, model.pca_y, model.knn_y, model.y_affinity, model.Hy, np.sqrt(model.D), "Y"
    )


def optimal_g(Fhat):
    """Whiten conditional expectations to unit empirical second moment.

    Given rows holding E[f(X) | Y = y_n], returns ``Fhat @ M^{-1/2}`` where
    M is the empirical second moment ``Fhat.T Fhat / N``; the output is the
    correlation-optimal pairing for the fixed f and satisfies
    ``G.T G / N = I``.

    Raises
    ------
    NumericalError
        If M has an eigenvalue at or below 1e-12.
    """
    Fhat = np.ascontiguousarray(Fhat, dtype=np.float64)
    if Fhat.ndim != 2 or Fhat.shape[0] < 1:
        raise ValueError("Fhat must be a nonempty 2-D array")
    n = Fhat.shape[0]
    G = Fhat
    # One refinement pass: re-whitening the near-identity residual squares
    # away the conditioning error of the first factorization.
    for _ in range(2):
        M = G.T @ G / n
        eigvals, eigvecs = sym_eig(M)
        if np.any(eigvals <= EIGENVALUE_FLOOR):
            raise NumericalError(
                f"singular second moment: eigenvalue {eigvals.min():.3e} at or below {EIGENVALUE_FLOOR}"
            )
        G = G @ ((eigvecs / np.sqrt(eigvals)) @ eigvecs.T)
    return G
