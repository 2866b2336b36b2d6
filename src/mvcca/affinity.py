"""Gaussian affinity construction with kNN truncation and stochastic normalization.

An affinity matrix W over N points has W[i, j] = exp(-|p_i - p_j|^2 / (2 sigma^2))
whenever i is among the k nearest neighbors of j (self always included) and 0
otherwise, so each column of the raw matrix has k or k+1 nonzeros and the
diagonal is 1.  Row- and column-stochastic rescalings of these matrices are
the building blocks of the density-ratio score matrix.  A new point's
normalized weights over its k nearest training points average the rows of a
map: NCCA's Nystrom extension, PLCCA's view-2 projection and its kernel
regression are all this one neighbor-weighted average.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import DROP_TOL, _prepare_queries
from .neighbors import _DIRECT_ELEMS, KnnReference, knn_search

# scipy.sparse is imported by the functions that build CSR matrices, not
# here: it costs about 0.15 s per process, and CCA, PLCCA and projections
# from a loaded model need no sparse matrix.

__all__ = [
    "AffinityConfig",
    "default_bandwidth",
    "gaussian_affinity",
    "normalize_right_stochastic",
    "normalize_left_stochastic",
    "affinity_rows",
    "affinity_weights",
]

DEFAULT_BANDWIDTH_FRACTION = 0.45
DEFAULT_K = 15

# Gathered elements per query block of _nystrom_project: the kNN search's 8 MB.
_GATHER_BLOCK_ELEMS = _DIRECT_ELEMS


@dataclass
class AffinityConfig:
    """Bandwidth and truncation settings for one view.

    ``sigma=None`` means the bandwidth is resolved at fit time as
    ``fraction`` times the mean sample L2 norm.  A setting that a fit
    cannot use or a model file cannot hold is refused here, on construction
    and so on every ``dataclasses.replace``.
    """

    sigma: float | None = None
    k: int = DEFAULT_K
    fraction: float = DEFAULT_BANDWIDTH_FRACTION

    def __post_init__(self):
        if not (isinstance(self.k, Integral) and self.k >= 1):
            raise ValueError(f"neighbor count k must be an integer >= 1, got {self.k!r}")
        if self.sigma is not None and not 0.0 < self.sigma < np.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.sigma}")
        if self.sigma is None and not (0.0 < self.fraction <= 1.0):
            raise ValueError(f"bandwidth fraction must be in (0, 1], got {self.fraction}")

    def resolve_sigma(self, points) -> float:
        return default_bandwidth(points, self.fraction) if self.sigma is None else float(self.sigma)


def default_bandwidth(points, fraction=DEFAULT_BANDWIDTH_FRACTION):
    """Bandwidth as a fraction of the mean (uncentered) sample L2 norm."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"bandwidth fraction must be in (0, 1], got {fraction}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty 2-D array")
    mean_norm = np.linalg.norm(points, axis=1).mean()
    if mean_norm == 0.0:
        raise ValueError("all-zero dataset: default bandwidth would be 0")
    return float(fraction * mean_norm)


def gaussian_affinity(points, config: AffinityConfig):
    """kNN-truncated Gaussian affinity matrix of one view, as CSR.

    Entry (i, j) is nonzero iff i is within the k nearest neighbors of j or
    i == j.  Setting ``k = N`` yields the dense Gaussian matrix.  ``points``
    is an array or a prepared :class:`~mvcca.neighbors.KnnReference`.
    """
    import scipy.sparse as sp

    knn, sigma = _neighbors(None, points, config)
    n, k = knn.indices.shape
    # Guarantee the diagonal: under duplicate-point ties a point's own index
    # can be squeezed out of its neighbor list.
    missing = np.flatnonzero(~(knn.indices == np.arange(n)[:, None]).any(axis=1))
    # Column j holds the neighbors of point j, so the search result is W in CSC
    # form; the weights overwrite the distances, and the lists go before tocsr.
    vals = knn.distances.ravel()
    np.exp(np.divide(vals, -2.0 * sigma * sigma, out=vals), out=vals)
    W = sp.csc_matrix((vals, knn.indices.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))
    del knn, vals
    W = W.tocsr()
    if missing.size:
        W = W + sp.csr_matrix((np.ones(missing.size), (missing, missing)), shape=(n, n))
    W.data[W.data < DROP_TOL] = 0.0
    W.eliminate_zeros()
    W.sort_indices()
    return W


def normalize_right_stochastic(W):
    """Rescale rows of a nonnegative sparse matrix to sum to 1."""
    import scipy.sparse as sp

    W = sp.csr_matrix(W, dtype=np.float64)
    row_sums = np.asarray(W.sum(axis=1)).ravel()
    if np.any(row_sums <= 0.0):
        raise ValueError("zero row: right-stochastic normalization undefined")
    out = W.copy()
    out.data /= np.repeat(row_sums, np.diff(out.indptr))
    return out


def normalize_left_stochastic(W):
    """Rescale columns of a nonnegative sparse matrix to sum to 1."""
    import scipy.sparse as sp

    W = sp.csr_matrix(W, dtype=np.float64)
    col_sums = np.asarray(W.sum(axis=0)).ravel()
    if np.any(col_sums <= 0.0):
        raise ValueError("zero column: left-stochastic normalization undefined")
    out = W.copy()
    out.data /= col_sums[out.indices]
    return out


def affinity_rows(queries, train_points, config: AffinityConfig):
    """Normalized Gaussian affinities from each query to its k nearest training points.

    One CSR row per query, summing to 1 however far the query lies from the
    training points: the CSR form of :func:`affinity_weights`, with sorted
    column indices.
    """
    import scipy.sparse as sp

    idx, w = affinity_weights(queries, train_points, config)
    indptr = np.arange(0, w.size + 1, config.k)
    W = sp.csr_matrix((w.ravel(), idx.ravel(), indptr), shape=(len(w), len(train_points)))
    W.sort_indices()
    return W


def affinity_weights(queries, train_points, config: AffinityConfig):
    """Neighbor indices and normalized Gaussian weights of each query, (M, k) each.

    ``train_points`` is an array or a prepared :class:`~mvcca.neighbors.KnnReference`.
    Weights are exponentiated in a shifted log domain: each row's smallest
    squared distance is subtracted first, so far queries cannot underflow to
    an all-zero row; row normalization cancels the shift exactly.
    """
    knn, sigma = _neighbors(queries, train_points, config)
    w = np.exp((knn.distances - knn.distances[:, :1]) / (-2.0 * sigma * sigma))
    w /= w.sum(axis=1)[:, None]
    return knn.indices, w


def _neighbors(queries, reference, config: AffinityConfig):
    """Each query's (each point's, for None) k nearest ``reference`` points, and sigma.

    The one prologue of both affinity builders: prepare ``reference``, check
    k against it, resolve sigma on its points, search.
    """
    if not isinstance(reference, KnnReference):
        reference = KnnReference(reference)
    if config.k > len(reference):
        raise ValueError(f"k={config.k} exceeds the number of points {len(reference)}")
    sigma = config.resolve_sigma(reference.points)
    queries = reference.points if queries is None else queries
    return knn_search(reference, queries, k=config.k), sigma


def _nystrom_project(data, pca_map, knn, config, H, scale, name):
    """Project new samples of kNN-side view ``name``: a weighted average of rows of ``H``.

    Each query, reduced by ``pca_map`` first, averages the rows of the N x L
    map ``H`` at its k nearest points in ``knn`` with the weights of
    :func:`affinity_weights`, in query blocks, then is divided by ``scale``.
    """
    raw_dim = pca_map[1].shape[0] if pca_map else knn.points.shape[1]
    queries, single = _prepare_queries(data, raw_dim, pca_map, name)
    idx, w = affinity_weights(queries, knn, config)
    P = np.empty((len(idx), H.shape[1]))
    block = max(1, _GATHER_BLOCK_ELEMS // (idx.shape[1] * max(H.shape[1], 1)))
    for start in range(0, len(P), block):
        stop = start + block
        P[start:stop] = np.einsum("qk,qkd->qd", w[start:stop], H[idx[start:stop]])
    P /= scale
    return P[0] if single else P
