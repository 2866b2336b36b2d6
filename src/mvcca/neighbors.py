"""Exact k-nearest-neighbor search over Euclidean distance.

Brute-force, blocked over queries so memory stays bounded at large N.
Distances are squared Euclidean; ties are broken by the smaller reference
index, which makes results deterministic even on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KnnResult", "knn_search"]

# Distance-block size in elements: 32 MB of float64 scratch per block, plus
# an index array of the same size from the top-k partition.
_BLOCK_ELEMS = 4_000_000


@dataclass
class KnnResult:
    """indices[q, j] is the j-th nearest reference of query q; distances are squared."""

    indices: np.ndarray
    distances: np.ndarray


def _check_matrix(M, name):
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def knn_search(reference, queries, k, include_self=True):
    """Exact k nearest neighbors of each query among the reference rows.

    Parameters
    ----------
    reference : (N, D) array
    queries : (M, D) array
    k : int
        Neighbors per query. Requires ``k <= N`` (``k <= N - 1`` when
        ``include_self`` is false).
    include_self : bool
        When false, query row i must be reference row i (queries are the
        reference set or a leading slice of it), and reference point i is
        excluded from query i's neighbor list.

    Returns
    -------
    KnnResult
        Neighbor indices and squared distances, sorted by distance
        ascending, ties broken by smaller index.
    """
    reference = _check_matrix(reference, "reference")
    queries = _check_matrix(queries, "queries")
    n_ref, dim = reference.shape
    n_query = queries.shape[0]
    if queries.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: reference has {dim} columns, queries {queries.shape[1]}"
        )
    if not include_self:
        if n_query > n_ref:
            raise ValueError(
                "include_self=False requires queries to be (a leading slice of) the reference set"
            )
        max_k = n_ref - 1
    else:
        max_k = n_ref
    if not (1 <= k <= max_k):
        raise ValueError(f"k={k} out of range (must be 1..{max_k})")

    ref_sq = np.einsum("ij,ij->i", reference, reference)
    indices = np.empty((n_query, k), dtype=np.int64)
    distances = np.empty((n_query, k), dtype=np.float64)

    block = max(1, _BLOCK_ELEMS // max(n_ref, 1))
    for start in range(0, n_query, block):
        stop = min(start + block, n_query)
        Q = queries[start:stop]
        d2 = Q @ reference.T
        d2 *= -2.0
        d2 += ref_sq[None, :]
        d2 += np.einsum("ij,ij->i", Q, Q)[:, None]
        if not include_self:
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        idx, dist = _select_k(d2, k)
        indices[start:stop] = idx
        distances[start:stop] = dist
    np.maximum(distances, 0.0, out=distances)
    return KnnResult(indices=indices, distances=distances)


def _select_k(d2, k):
    """Smallest-k selection per row with exact (distance, index) ordering."""
    n_rows, n_ref = d2.shape
    if k < n_ref:
        # One spare candidate: comparing the (k+1)-th smallest value with the
        # k-th exposes ties that straddle the selection boundary.
        cand = np.argpartition(d2, k, axis=1)[:, : k + 1]
    else:
        cand = np.broadcast_to(np.arange(n_ref), (n_rows, n_ref)).copy()
    cand_d = np.take_along_axis(d2, cand, axis=1)
    # Sorting candidates by index first makes the stable distance sort break
    # ties toward the smaller index.
    pos = np.argsort(cand, axis=1)
    cand = np.take_along_axis(cand, pos, axis=1)
    cand_d = np.take_along_axis(cand_d, pos, axis=1)
    order = np.argsort(cand_d, axis=1, kind="stable")
    cand = np.take_along_axis(cand, order, axis=1)
    cand_d = np.take_along_axis(cand_d, order, axis=1)
    if k < n_ref:
        # Boundary tie: entries equal to the k-th smallest value may extend
        # beyond the k+1 candidates, so rebuild those rows exactly.
        for row in np.flatnonzero(cand_d[:, k] <= cand_d[:, k - 1]):
            vstar = cand_d[row, k - 1]
            cols = np.flatnonzero(d2[row] <= vstar)
            sel = cols[np.lexsort((cols, d2[row, cols]))[:k]]
            cand[row, :k] = sel
            cand_d[row, :k] = d2[row, sel]
    return np.ascontiguousarray(cand[:, :k]), np.ascontiguousarray(cand_d[:, :k])
