"""Nonparametric CCA from kernel density estimates.

The score matrix S is the row-stochastic view-1 affinity matrix Wx times
the column-stochastic view-2 affinity matrix Wy; N times its (l, m) entry
is the estimated density ratio p(x_l, y_m) / (p(x_l) p(y_m)).  The optimal
projections of the training samples are the top singular vectors of S
scaled by sqrt(N); the leading pair is the constant component (singular
value 1 in the population) and is discarded from outputs.  The default
SVD, seeded Lanczos on the Gram operator S^T S, applies S as the product
Wx (Wy Q) and never forms it: S has up to kx*ky nonzeros per row against
kx + ky for the two factors.  S is formed explicitly only by
:func:`build_score_matrix` and the dense oracle.
New points are projected with the Nystrom extension: a fresh normalized
affinity row (or column) against the training set times a Nystrom map
formed once at fit time, the opposite side's non-constant singular vectors
pushed through the stochastic factor (Hx = Wy G[:, 1:], Hy = Wx^T F[:, 1:],
N x L each), then divided by the singular values.  The factors are not kept.
The row has k nonzeros, so the product gathers k map rows per query; the fit
prepares each training view for kNN search once and the model keeps it.
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .affinity import (  # affinity_rows is unused: perfbench/tracing.py patches it here
    AffinityConfig,
    _weighted_gather,
    affinity_rows,
    affinity_weights,
    gaussian_affinity,
    normalize_left_stochastic,
    normalize_right_stochastic,
)
from .cca import _validate_views
from .linalg import _prepare_queries, dense_svd, pca_apply, pca_fit, spgemm, truncated_svd
from .neighbors import KnnReference

__all__ = [
    "NccaConfig",
    "NccaModel",
    "ConstantComponentWarning",
    "build_score_matrix",
    "ncca_fit",
    "ncca_project_train",
    "ncca_project_x",
    "ncca_project_y",
]

DEFAULT_PCA_FRACTION = 0.2
# Residual bound of the default SVD, tighter than the generic default: the
# sqrt(N) projection scaling amplifies the SVD residual, and Nystrom
# consistency rides on it.
_SVD_RTOL = 1e-9
# Largest deviation of the leading singular value from 1 that fits without a warning.
_SIGMA1_TOLERANCE = 0.15


class ConstantComponentWarning(UserWarning):
    """The leading singular pair looks unlike the expected constant component."""


@dataclass
class NccaConfig:
    """Hyperparameters of a nonparametric CCA fit.

    ``pca_x`` / ``pca_y`` reduce a view before density estimation: an int is
    a target dimension, a float in (0, 1) a fraction of the input dimension,
    True picks the default fraction (0.2), None disables the reduction.
    ``svd`` picks the decomposition backend: "randomized" (seeded ARPACK
    Lanczos on the factored operator Wx (Wy Q), see
    :func:`~mvcca.linalg.truncated_svd`; S is never formed) or "dense"
    (exact SVD of the formed S: the small-N oracle, and the only backend
    for a spectrum crowded against 1, where ARPACK may not converge).
    "randomized" keeps its name in configs and model files: ``seed`` seeds
    the Lanczos start and restart vectors.
    """

    L: int = 2
    affinity_x: AffinityConfig = field(default_factory=AffinityConfig)
    affinity_y: AffinityConfig = field(default_factory=AffinityConfig)
    pca_x: bool | int | float | None = None
    pca_y: bool | int | float | None = None
    seed: int = 0
    svd: str = "randomized"


@dataclass
class NccaModel:
    """Trained state: training-side projections plus what Nystrom needs.

    F and G hold sqrt(N) times the left/right singular vectors of the score
    matrix, one column per retained pair including the leading constant one.
    ``Hx = Wy @ G[:, 1:]`` and ``Hy = Wx.T @ F[:, 1:]`` (N x L) are the
    Nystrom maps of view 1 and view 2, computed once at fit time.
    ``knn_x`` / ``knn_y`` are the training views prepared for kNN search:
    the fit's own, or built on first use by a loaded model; never serialized.
    """

    train_x: np.ndarray
    pca_x: tuple | None
    Hx: np.ndarray
    train_y: np.ndarray
    pca_y: tuple | None
    Hy: np.ndarray
    sigmas: np.ndarray
    F: np.ndarray
    G: np.ndarray
    config: NccaConfig
    timings: dict = field(default_factory=dict, repr=False)

    knn_x = cached_property(lambda self: KnnReference(self.train_x))
    knn_y = cached_property(lambda self: KnnReference(self.train_y))


def _resolve_pca_dim(spec, input_dim, n):
    if spec is None or spec is False:
        return None
    if spec is True:
        spec = DEFAULT_PCA_FRACTION
    if isinstance(spec, float):
        if not (0.0 < spec < 1.0):
            raise ValueError(f"PCA fraction must be in (0, 1), got {spec}")
        return max(1, min(round(spec * input_dim), min(n, input_dim)))
    d = int(spec)
    if not (1 <= d <= min(n, input_dim)):
        raise ValueError(f"PCA dimension {d} out of range for {n} x {input_dim} data")
    return d


def _reduce_view(data, pca_spec):
    n, dim = data.shape
    d = _resolve_pca_dim(pca_spec, dim, n)
    if d is None or d == dim:
        return data, None
    mean, basis = pca_fit(data, d)
    return pca_apply(mean, basis, data), (mean, basis)


def build_score_matrix(X, Y, config: NccaConfig):
    """Steps 1-3 of the training pipeline on already-reduced coordinates.

    Returns the explicitly formed score matrix S (CSR) and the
    column-stochastic view-2 affinity matrix Wy.
    """
    Wx, Wy = _stochastic_factors(X, Y, config.affinity_x, config.affinity_y)
    return spgemm(Wx, Wy), Wy


def _stochastic_factors(X, Y, cfg_x, cfg_y):
    """The two factors of the score matrix: S = Wx @ Wy (views as arrays or KnnReferences)."""
    if len(X) != len(Y):
        raise ValueError(f"views are not aligned: {len(X)} vs {len(Y)} rows")
    Wx = normalize_right_stochastic(gaussian_affinity(X, cfg_x))
    Wy = normalize_left_stochastic(gaussian_affinity(Y, cfg_y))
    return Wx, Wy


def ncca_fit(X, Y, config: NccaConfig | None = None):
    """Train nonparametric CCA on aligned sample matrices.

    Applies the optional per-view PCA, builds the two stochastic factors of
    the score matrix, computes its top L+1 singular triplets, retains the
    sqrt(N)-scaled singular vectors as training projections, and forms the
    Nystrom maps from the factors before dropping them.  Warns (never
    errors) when the leading pair strays from the constant component the
    population theory predicts: singular value far from 1, or a clearly
    non-constant leading vector.
    """
    if config is None:
        config = NccaConfig()
    X, Y = _validate_views(X, Y)
    n = X.shape[0]
    if config.L < 1:
        raise ValueError(f"L must be >= 1, got {config.L}")
    if n < config.L + 2:
        raise ValueError(f"need at least L+2={config.L + 2} samples, got {n}")
    if config.svd not in ("randomized", "dense"):
        raise ValueError(f"unknown svd backend {config.svd!r}")

    t0 = time.perf_counter()
    Xp, pca_x = _reduce_view(X, config.pca_x)
    Yp, pca_y = _reduce_view(Y, config.pca_y)

    # Freeze resolved bandwidths so projection and serialization reuse them.
    config = copy.deepcopy(config)
    config.affinity_x.sigma = config.affinity_x.resolve_sigma(Xp)
    config.affinity_y.sigma = config.affinity_y.resolve_sigma(Yp)

    knn_x, knn_y = KnnReference(Xp), KnnReference(Yp)
    Wx, Wy = _stochastic_factors(knn_x, knn_y, config.affinity_x, config.affinity_y)
    t1 = time.perf_counter()

    r = config.L + 1
    if config.svd == "dense":
        full = dense_svd(spgemm(Wx, Wy).toarray())
        U, sigmas, V = full.U[:, :r], full.s[:r].copy(), full.V[:, :r]
    else:
        res = truncated_svd((Wx, Wy), r, seed=config.seed, rtol=_SVD_RTOL)
        U, sigmas, V = res.U, res.s, res.V

    if abs(sigmas[0] - 1.0) > _SIGMA1_TOLERANCE:
        warnings.warn(
            f"leading singular value {sigmas[0]:.4f} deviates from 1 by more than "
            f"{_SIGMA1_TOLERANCE}; density may be undersampled",
            ConstantComponentWarning,
            stacklevel=2,
        )
    u1 = U[:, 0]
    mean_u1 = np.abs(u1.mean())
    cv = u1.std() / mean_u1 if mean_u1 > 0 else np.inf
    if cv > 0.2:
        warnings.warn(
            f"leading left singular vector has coefficient of variation {cv:.3f} > 0.2; "
            "it is far from constant, suggesting a poorly sampled density",
            ConstantComponentWarning,
            stacklevel=2,
        )

    F = np.sqrt(n) * U
    G = np.sqrt(n) * V
    # The maps stay undivided by sigma: projection divides after the product,
    # so its rounding is that of rows @ (Wy @ G) / sigma.
    Hx, Hy = Wy @ G[:, 1:], Wx.T @ F[:, 1:]
    t2 = time.perf_counter()
    model = NccaModel(
        train_x=Xp,
        pca_x=pca_x,
        Hx=Hx,
        train_y=Yp,
        pca_y=pca_y,
        Hy=Hy,
        sigmas=sigmas,
        F=F,
        G=G,
        config=config,
        timings={"search_seconds": t1 - t0, "optimize_seconds": t2 - t1},
    )
    model.knn_x, model.knn_y = knn_x, knn_y
    return model


def ncca_project_train(model: NccaModel):
    """Training projections with the constant component dropped: (F, G), N x L each."""
    return model.F[:, 1:].copy(), model.G[:, 1:].copy()


def _nystrom_project(data, pca_map, knn, config, H, scale, name):
    """Project new samples of kNN-side view ``name``: a weighted average of rows of ``H``.

    Each query, reduced by ``pca_map`` first, averages the rows of the N x L
    map ``H`` at its k nearest training points in ``knn`` with normalized
    Gaussian weights; the average is divided by ``scale`` in place.  NCCA's
    Nystrom extension of either view, PLCCA's view-2 projection and the
    kernel regression :func:`~mvcca.plcca.nw_regress` all take this path.
    """
    raw_dim = pca_map[1].shape[0] if pca_map else knn.points.shape[1]
    queries, single = _prepare_queries(data, raw_dim, pca_map, name)
    idx, w = affinity_weights(queries, knn, config)
    P = _weighted_gather(idx, w, H)
    P /= scale
    return P[0] if single else P


def ncca_project_x(model: NccaModel, x_new):
    """Nystrom projection of new view-1 samples (vector in, vector out).

    A normalized affinity row of each sample against the training view-1
    points plays the role of a new row of the row-stochastic matrix; times
    Wy it would be a new score row, and its inner products with the view-2
    singular vectors, scaled by 1/sigma, extend the view-1 singular
    functions.  The product with ``Hx = Wy @ G[:, 1:]`` does both steps: the
    row's k weights times the gathered ``Hx`` rows of the k neighbors.
    """
    return _nystrom_project(
        x_new, model.pca_x, model.knn_x, model.config.affinity_x, model.Hx, model.sigmas[1:], "X"
    )


def ncca_project_y(model: NccaModel, y_new):
    """Mirror-image Nystrom projection of new view-2 samples.

    The normalized affinity weights of y against the training view-2 points
    form a new column of the column-stochastic matrix; a new score *column*
    is Wx times it, and the view-1 singular vectors extend the view-2 ones
    (applied by the same gather with ``Hy = Wx.T @ F[:, 1:]``).
    """
    return _nystrom_project(
        y_new, model.pca_y, model.knn_y, model.config.affinity_y, model.Hy, model.sigmas[1:], "Y"
    )
