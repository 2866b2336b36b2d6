"""Linear canonical correlation analysis.

Fits paired linear projections maximizing correlation under per-view
whitening constraints, from the SVD of the whitened cross-covariance.  The
partially linear method with the best linear predictor in place of kernel
regression reduces to this fit: :func:`mvcca.plcca.plcca_linear_oracle`
computes it that way and returns a :class:`CcaModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_matrix, _prepare_queries, dense_svd, inv_sqrt_psd

__all__ = ["CcaModel", "cca_fit", "cca_project"]

DEFAULT_RIDGE_SCALE = 1e-6


@dataclass
class CcaModel:
    """Trained linear CCA state.

    W1 and W2 satisfy ``W.T (Sigma + ridge I) W = I`` in the respective
    view's empirical covariance; correlations are non-increasing.
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    correlations: np.ndarray
    ridge_x: float
    ridge_y: float


def _validate_views(X, Y):
    X, Y = _check_matrix(X, "X"), _check_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"views are not aligned: {X.shape[0]} vs {Y.shape[0]} rows")
    if X.shape[0] < 2:
        raise ValueError("at least 2 samples are required")
    return X, Y


def _covariance(X, ridge):
    """Mean, centred rows, covariance (1/N) and ridge (None: 1e-6 trace / D) of one view."""
    mean = X.mean(axis=0)
    Xc = X - mean
    S = Xc.T @ Xc / X.shape[0]
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.trace(S) / X.shape[1]
    elif ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    return mean, Xc, S, float(ridge)


def _moments(X, Y, ridge):
    """Centered second moments (1/N normalization) and resolved ridges."""
    mean_x, Xc, Sxx, rx = _covariance(X, ridge)
    mean_y, Yc, Syy, ry = _covariance(Y, ridge)
    return mean_x, mean_y, Sxx, Syy, Xc.T @ Yc / X.shape[0], rx, ry


def cca_fit(X, Y, L, ridge=None):
    """Fit linear CCA via the SVD of the whitened cross-covariance.

    Parameters
    ----------
    X, Y : (N, Dx), (N, Dy) arrays
        Aligned sample matrices, one sample per row.
    L : int
        Number of canonical pairs, ``1 <= L <= min(Dx, Dy)``.
    ridge : float, optional
        Added to both covariances for invertibility.  Defaults to
        ``1e-6 * trace(Sigma) / D`` per view.
    """
    X, Y = _validate_views(X, Y)
    if not (1 <= L <= min(X.shape[1], Y.shape[1])):
        raise ValueError(f"L={L} out of range for views of width {X.shape[1]}, {Y.shape[1]}")
    mean_x, mean_y, Sxx, Syy, Sxy, rx, ry = _moments(X, Y, ridge)
    wh_x = inv_sqrt_psd(Sxx + rx * np.eye(X.shape[1]))
    wh_y = inv_sqrt_psd(Syy + ry * np.eye(Y.shape[1]))
    T = wh_x @ Sxy @ wh_y
    svd = dense_svd(T)
    return CcaModel(
        mean_x=mean_x,
        mean_y=mean_y,
        W1=wh_x @ svd.U[:, :L],
        W2=wh_y @ svd.V[:, :L],
        correlations=svd.s[:L].copy(),
        ridge_x=rx,
        ridge_y=ry,
    )


def cca_project(model: CcaModel, view, data):
    """Project samples of one view (a row or rows): ``(data - mean) @ W``."""
    if view not in (1, 2):
        raise ValueError(f"view must be 1 or 2, got {view}")
    mean, W = (model.mean_x, model.W1) if view == 1 else (model.mean_y, model.W2)
    data, single = _prepare_queries(data, W.shape[0], None)
    P = (data - mean) @ W
    return P[0] if single else P
