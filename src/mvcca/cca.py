"""Linear canonical correlation analysis.

Fits paired linear projections maximizing correlation under per-view
whitening constraints.  Two equivalent routes are provided: the usual SVD of
the whitened cross-covariance, and the best-linear-predictor form whose
eigenvalue matrix is the squared canonical correlations.  The second route
is the degenerate case of the partially linear method and doubles as its
correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, dense_svd, inv_sqrt_psd, sym_eig

__all__ = ["CcaModel", "cca_fit", "cca_project", "cca_predictor_form"]

DEFAULT_RIDGE_SCALE = 1e-6
# Canonical directions with squared correlation below this are degenerate.
EIGENVALUE_FLOOR = 1e-12


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
    timings: dict = field(default_factory=dict, repr=False)


def _validate_views(X, Y):
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("views must be 2-D sample matrices")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"views are not aligned: {X.shape[0]} vs {Y.shape[0]} rows")
    if X.shape[0] < 2:
        raise ValueError("at least 2 samples are required")
    return X, Y


def _moments(X, Y, ridge):
    """Centered second moments (1/N normalization) and resolved ridges."""
    n = X.shape[0]
    mean_x = X.mean(axis=0)
    mean_y = Y.mean(axis=0)
    Xc = X - mean_x
    Yc = Y - mean_y
    Sxx = Xc.T @ Xc / n
    Syy = Yc.T @ Yc / n
    Sxy = Xc.T @ Yc / n
    if ridge is None:
        rx = float(DEFAULT_RIDGE_SCALE * np.trace(Sxx) / X.shape[1])
        ry = float(DEFAULT_RIDGE_SCALE * np.trace(Syy) / Y.shape[1])
    else:
        if ridge < 0:
            raise ValueError(f"ridge must be nonnegative, got {ridge}")
        rx = ry = float(ridge)
    return mean_x, mean_y, Sxx, Syy, Sxy, rx, ry


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
    """Project samples of one view: ``(data - mean) @ W``."""
    data = np.asarray(data, dtype=np.float64)
    single = data.ndim == 1
    data = np.atleast_2d(data)
    if view == 1:
        mean, W = model.mean_x, model.W1
    elif view == 2:
        mean, W = model.mean_y, model.W2
    else:
        raise ValueError(f"view must be 1 or 2, got {view}")
    if data.shape[1] != W.shape[0]:
        raise ValueError(f"view {view} expects {W.shape[0]} columns, got {data.shape[1]}")
    P = (data - mean) @ W
    return P[0] if single else P


def _predictor_directions(X, Y, L, ridge):
    """Predictor-route core shared with the PLCCA oracle: ``B (y - mean_y)``
    predicts ``x - mean_x``; U, D are the top-L eigenpairs of its whitened covariance.
    """
    mean_x, mean_y, Sxx, Syy, Sxy, rx, ry = _moments(X, Y, ridge)
    wh_x = inv_sqrt_psd(Sxx + rx * np.eye(X.shape[1]))
    try:
        B = np.linalg.solve(Syy + ry * np.eye(Y.shape[1]), Sxy.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular view-2 covariance: {exc}") from None
    # The cross-moment form B Syx (not the second moment of the ridged
    # predictions) is what makes D the exact squared canonical correlations.
    Sxhat = B @ Sxy.T
    K = wh_x @ ((Sxhat + Sxhat.T) / 2.0) @ wh_x
    eigvals, eigvecs = sym_eig(K)
    D = eigvals[:L]
    if np.any(D <= EIGENVALUE_FLOOR):
        raise NumericalError(
            f"degenerate canonical direction: eigenvalue {D.min():.3e} below {EIGENVALUE_FLOOR}"
        )
    return mean_x, mean_y, wh_x, B, eigvecs[:, :L], D, rx, ry


def cca_predictor_form(X, Y, L, ridge=None):
    """Fit linear CCA through the optimal-linear-predictor route.

    The view-1 directions are the top eigenvectors of the whitened
    covariance of ``xhat = Sxy (Syy + r I)^{-1} y``, and the view-2
    projection is the predictor's whitened image rescaled by the inverse
    square roots of those eigenvalues.  Produces the same model as
    :func:`cca_fit` up to floating-point error.

    Raises
    ------
    NumericalError
        If a selected eigenvalue falls below 1e-12 (degenerate canonical
        direction; the rescaling is undefined).
    """
    X, Y = _validate_views(X, Y)
    if not (1 <= L <= min(X.shape[1], Y.shape[1])):
        raise ValueError(f"L={L} out of range for views of width {X.shape[1]}, {Y.shape[1]}")
    mean_x, mean_y, wh_x, B, U, D, rx, ry = _predictor_directions(X, Y, L, ridge)
    return CcaModel(
        mean_x=mean_x,
        mean_y=mean_y,
        W1=wh_x @ U,
        W2=B.T @ wh_x @ U / np.sqrt(D),
        correlations=np.sqrt(D),
        ridge_x=rx,
        ridge_y=ry,
    )
