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

from .affinity import AffinityConfig, _weighted_gather, affinity_weights
from .cca import DEFAULT_RIDGE_SCALE, EIGENVALUE_FLOOR, _predictor_directions, _validate_views
# pca_apply and knn_search are unused: perfbench/tracing.py patches them here.
from .linalg import NumericalError, inv_sqrt_psd, pca_apply, sym_eig
from .ncca import _prepare_queries, _reduce_view
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

@dataclass
class PlccaModel:
    """Trained partially linear CCA state.

    ``whitener`` is the ridged inverse square root of the view-1 covariance;
    U and D are the top eigenvectors/eigenvalues of the whitened
    conditional-mean covariance.  ``predictor`` selects how new Y samples
    are mapped to conditional means: "nw" uses kernel regression over the
    training Y, "linear" uses the stored least-squares coefficients (the
    degenerate route, equal to linear CCA).  An "nw" model holds
    ``Hy = (train_X - xhat_mean) @ whitener @ U``, the N x L map whose
    regressed rows divided by ``sqrt(D)`` are the view-2 projections, in
    place of the training X.  ``knn_y`` is ``train_Y`` prepared for kNN
    search, built on first use and never serialized.
    """

    mean_x: np.ndarray
    whitener: np.ndarray
    U: np.ndarray
    D: np.ndarray
    xhat_mean: np.ndarray
    ridge: float
    predictor: str = "nw"
    Hy: np.ndarray | None = None
    train_Y: np.ndarray | None = None
    y_affinity: AffinityConfig | None = None
    linear_coef: np.ndarray | None = None
    mean_y: np.ndarray | None = None
    pca_x: tuple | None = None
    pca_y: tuple | None = None
    timings: dict = field(default_factory=dict, repr=False)

    knn_y = cached_property(lambda self: KnnReference(self.train_Y))


def nw_regress(train_Y, train_X, config: AffinityConfig, query_Y):
    """Nadaraya-Watson estimate of E[X | Y = y] at each query row.

    The weights are NCCA's Nystrom weights (:func:`~mvcca.affinity.affinity_weights`)
    over the ``min(k, N)`` nearest training neighbors, and the output their
    blocked average of training X rows, so small bandwidths cannot underflow
    every weight and each output row is a convex combination of training X
    rows.  ``train_Y`` may be a :class:`~mvcca.neighbors.KnnReference`
    prepared once for many calls.
    """
    ref = train_Y if isinstance(train_Y, KnnReference) else KnnReference(train_Y)
    train_X = np.ascontiguousarray(train_X, dtype=np.float64)
    if train_X.shape[0] != len(ref):
        raise ValueError("training views are not aligned")
    query_Y = np.asarray(query_Y, dtype=np.float64)
    config = replace(config, k=min(config.k, len(ref)))
    idx, w = affinity_weights(np.atleast_2d(query_Y), ref, config)
    out = _weighted_gather(idx, w, train_X)
    return out[0] if query_Y.ndim == 1 else out


def _fit_from_xhat(X, xhat, L, ridge):
    """Shared tail of the fit routes: whiten, eigendecompose, validate."""
    n, dx = X.shape
    if not (1 <= L <= dx):
        raise ValueError(f"L={L} out of range for view-1 width {dx}")
    mean_x = X.mean(axis=0)
    Xc = X - mean_x
    Sxx = Xc.T @ Xc / n
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.trace(Sxx) / dx
    elif ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    whitener = inv_sqrt_psd(Sxx + ridge * np.eye(dx))

    xhat_mean = xhat.mean(axis=0)
    Xh = xhat - xhat_mean
    K = whitener @ (Xh.T @ Xh / n) @ whitener
    eigvals, eigvecs = sym_eig(K)
    D = eigvals[:L]
    if np.any(D <= EIGENVALUE_FLOOR):
        raise NumericalError(
            f"conditional-mean covariance is degenerate along a requested direction "
            f"(eigenvalue {D.min():.3e})"
        )
    return mean_x, whitener, eigvecs[:, :L], D, xhat_mean, float(ridge)


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
    X, pca_x_map = _reduce_view(X, pca_x)
    Y, pca_y_map = _reduce_view(Y, pca_y)
    if config is None:
        config = AffinityConfig()
    config = replace(config, sigma=config.resolve_sigma(Y), k=min(config.k, len(Y)))
    t0 = time.perf_counter()
    xhat = nw_regress(Y, X, config, Y)
    t1 = time.perf_counter()
    mean_x, whitener, U, D, xhat_mean, ridge = _fit_from_xhat(X, xhat, L, ridge)
    A = whitener @ U
    Hy = X @ A - xhat_mean @ A
    t2 = time.perf_counter()
    return PlccaModel(
        mean_x=mean_x,
        whitener=whitener,
        U=U,
        D=D,
        xhat_mean=xhat_mean,
        ridge=ridge,
        predictor="nw",
        Hy=Hy,
        train_Y=Y,
        y_affinity=config,
        pca_x=pca_x_map,
        pca_y=pca_y_map,
        timings={"search_seconds": t1 - t0, "optimize_seconds": t2 - t1},
    )


def plcca_linear_oracle(X, Y, L, ridge=None):
    """Fit with the optimal *linear* predictor in place of kernel regression.

    This reduces the method to linear CCA: projections match
    :func:`mvcca.cca.cca_fit` up to per-column sign and D equals the squared
    canonical correlations.
    """
    X, Y = _validate_views(X, Y)
    if not (1 <= L <= X.shape[1]):
        raise ValueError(f"L={L} out of range for view-1 width {X.shape[1]}")
    mean_x, mean_y, whitener, B, U, D, ridge_x, _ = _predictor_directions(X, Y, L, ridge)
    return PlccaModel(
        mean_x=mean_x,
        whitener=whitener,
        U=U,
        D=D,
        xhat_mean=((Y - mean_y) @ B.T).mean(axis=0),
        ridge=ridge_x,
        predictor="linear",
        linear_coef=B,
        mean_y=mean_y,
    )


def plcca_project_x(model: PlccaModel, X_new):
    """View-1 projection: center, whiten, rotate onto the top directions."""
    expect = model.pca_x[1].shape[0] if model.pca_x else model.mean_x.shape[0]
    X_new, single = _prepare_queries(X_new, expect, model.pca_x)
    P = (X_new - model.mean_x) @ model.whitener @ model.U
    return P[0] if single else P


def plcca_project_y(model: PlccaModel, Y_new):
    """View-2 projection via the conditional mean of X given each new y.

    An "nw" model regresses its map ``Hy`` (the whitened, rotated training
    X) in place of X, then divides by ``sqrt(D)``; a "linear" model applies
    the whitening and rotation to its least-squares conditional mean.
    """
    if model.predictor == "nw":
        expect = model.pca_y[1].shape[0] if model.pca_y else model.train_Y.shape[1]
        Y_new, single = _prepare_queries(Y_new, expect, model.pca_y)
        G = nw_regress(model.knn_y, model.Hy, model.y_affinity, Y_new)
    else:
        Y_new, single = _prepare_queries(Y_new, model.mean_y.shape[0], None)
        xhat = (Y_new - model.mean_y) @ model.linear_coef.T
        G = (xhat - model.xhat_mean) @ model.whitener @ model.U
    G = G / np.sqrt(model.D)
    return G[0] if single else G


def optimal_g(Fhat, eigen_floor=EIGENVALUE_FLOOR):
    """Whiten conditional expectations to unit empirical second moment.

    Given rows holding E[f(X) | Y = y_n], returns ``Fhat @ M^{-1/2}`` where
    M is the empirical second moment ``Fhat.T Fhat / N``; the output is the
    correlation-optimal pairing for the fixed f and satisfies
    ``G.T G / N = I``.

    Raises
    ------
    NumericalError
        If M has an eigenvalue at or below ``eigen_floor``.
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
        if np.any(eigvals <= eigen_floor):
            raise NumericalError(
                f"singular second moment: eigenvalue {eigvals.min():.3e} at or below {eigen_floor}"
            )
        G = G @ ((eigvecs / np.sqrt(eigvals)) @ eigvecs.T)
    return G
