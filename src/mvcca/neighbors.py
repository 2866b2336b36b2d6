"""Exact k-nearest-neighbor search over Euclidean distance.

Brute force, blocked over queries so memory stays bounded at large N.
Distances are squared Euclidean, the float64 value of ``sum((r - q)**2)``,
so they depend on the two points alone and not on how queries are batched;
ties are broken by the smaller reference index.

Each block is screened in float32.  A :class:`KnnReference` shifts the
points by their mean and scales them by powers of two (exactly) so that the
largest centred norm R lies in [1/2, 1), and stores them as float32 ``r~``
with ``|r~|^2/2`` as one extra row: one GEMM gives the key
``K = |r~|^2/2 - q~.r~ = (|q~ - r~|^2 - |q~|^2)/2`` of every pair.  Of the
strided column groups ``{t, t+m, ..., t+15m}`` (padded with infinite keys),
the 2(k + 1) with the smallest minimum key are picked, and of their members
the 2k with the smallest keys are ranked by (float64 distance, index); below
``N = 16 (2k + 3)`` the 2k come from all keys.  Every other column has a key
of at least B, the next group minimum or the (2k + 1)-th candidate key.

The ranking is exact when its k-th distance lies strictly below a lower
bound on the distance of every column keyed at B or above.  Centring and
rounding to float32 move q and r by at most ``e = 1.01 u (|q~| + R)``,
u = 2^-24; the GEMM of length D + 1 errs by at most
``gamma_{D+1} (|q~| R + R^2/2)``, ``gamma_n = n u / (1 - n u)`` (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), and the
float32 half norm by ``u R^2/2``.  With g their sum times 1.01, such a column
has ``|q~ - r~|^2 >= Y = 2 (B - g) + |q~|^2`` and an exact scaled distance of
at least ``(sqrt(Y) - e)^2``, of which the float64 sum keeps all but a factor
``gamma_{D+3}`` (in float64) and ``(D + 3) 2^-1074`` of underflow; absolute
terms cover subnormals.  Rows that miss the bound, or whose query lies
beyond 2^20 in the scaled frame, are ranked over full rows in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KnnReference", "KnnResult", "knn_search"]

# Query rows per block: enough for about 2 MB of float32 keys, which stay
# in a core's L2 cache (at low D the key pass is bound by memory traffic),
# but at least 2 D rows, so that streaming the reference through the GEMM
# costs at most half as much as writing the keys.  At most _MAX_BLOCK_ELEMS
# keys or float64 candidate coordinates (2k or N per row) per block.
_BLOCK_ELEMS = 524_288
_MAX_BLOCK_ELEMS = 4_000_000
# Members per column group of the group-minimum selection.
_GROUP = 16
_U32, _U64 = 2.0**-24, 2.0**-53
# Squared scaled query norm beyond which a row skips the screen.
_FAR_SQ = 2.0**40


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


class KnnReference:
    """Reference points, validated and prepared once for any number of searches.

    Raises ``ValueError`` unless finite and 2-D; the points must not change.
    """

    def __init__(self, points):
        self.points = _check_matrix(points, "reference")
        n, dim = self.points.shape
        # Powers of two: |points| s0 < 1, then the largest centred norm times s1 in [1/2, 1).
        e0 = max(int(np.frexp(np.abs(self.points).max(initial=0.0))[1]), -1000)
        C = self.points * 2.0**-e0
        self.mean = C.mean(axis=0) if n else np.zeros(dim)
        C -= self.mean
        e1 = int(np.frexp(np.sqrt(np.einsum("ij,ij->i", C, C).max(initial=0.0)))[1])
        C *= 2.0**-e1
        # Queries are scaled by -s1 against columns (r~, |r~|^2/2), padded with inf keys.
        self.scales, self.exp = (2.0**-e0, -(2.0**-e1)), e0 + e1
        self.keys = np.zeros((dim + 1, n + -n % _GROUP), dtype=np.float32)
        self.keys[:dim, :n] = C.T
        half_sq = 0.5 * np.einsum("ij,ij->j", self.keys[:dim], self.keys[:dim], dtype=np.float64)
        self.keys[dim], self.keys[dim, :n] = np.inf, half_sq[:n]
        # The bound's error terms (module docstring), linear in |q~|, subnormals included.
        R, n_u = float(np.sqrt(2.0 * half_sq.max(initial=0.0))), (dim + 1) * _U32
        gamma = n_u / (1.0 - n_u) if n_u < 1.0 else np.inf
        self.err_key = (1.01 * gamma * R, 1.01 * (gamma + _U32) * 0.5 * R * R + 2.0**-100)
        self.err_pt = (1.01 * _U32, 1.01 * _U32 * R + 2.0**-100 + dim**0.5 * 2.0 ** (-1074 - e1))

    def __len__(self):
        return self.points.shape[0]


def knn_search(reference, queries, k):
    """Exact k nearest neighbors of each query among the reference rows.

    Parameters
    ----------
    reference : (N, D) array or KnnReference
    queries : (M, D) array
    k : int
        Neighbors per query, ``1 <= k <= N``.

    Returns
    -------
    KnnResult
        Neighbor indices and squared distances, sorted by distance
        ascending, ties broken by smaller index.
    """
    if not isinstance(reference, KnnReference):
        reference = KnnReference(reference)
    queries = _check_matrix(queries, "queries")
    n_ref, dim = reference.points.shape
    n_query = queries.shape[0]
    if queries.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: reference has {dim} columns, queries {queries.shape[1]}"
        )
    if not (1 <= k <= n_ref):
        raise ValueError(f"k={k} out of range (must be 1..{n_ref})")

    indices = np.empty((n_query, k), dtype=np.int64)
    distances = np.empty((n_query, k), dtype=np.float64)

    block = min(max(_BLOCK_ELEMS // n_ref, 2 * dim), _MAX_BLOCK_ELEMS // max(n_ref, 2 * k * dim))
    block = max(1, block)
    for start in range(0, n_query, block):
        part = slice(start, min(start + block, n_query))
        indices[part], distances[part] = _search_block(reference, queries[part], k)
    return KnnResult(indices=indices, distances=distances)


def _search_block(reference, Q, k):
    """Top-k by (distance, index) of a block of queries."""
    n, (n_ref, dim) = len(Q), reference.points.shape
    with np.errstate(over="ignore"):
        A = (Q * reference.scales[0] - reference.mean) * reference.scales[1]
        far = ~(np.einsum("ij,ij->i", A, A) <= _FAR_SQ)
    A[far] = 0.0
    A32, ix = np.ones((n, dim + 1), dtype=np.float32), np.arange(n)[:, None]
    A32[:, :dim] = A
    q_sq = np.square(A32[:, :dim], dtype=np.float64).sum(axis=1)
    K = A32 @ reference.keys
    m, c = K.shape[1] // _GROUP, 2 * k + 2
    bound = np.full(n, np.inf, dtype=np.float32)
    if m > c:
        members = K.reshape(n, _GROUP, m)
        group_min = members.min(axis=1)
        part = np.argpartition(group_min, c, axis=1)
        bound, groups = group_min[ix[:, 0], part[:, c]], part[:, :c]
        K = members.transpose(0, 2, 1)[ix, groups].reshape(n, -1)
    if n_ref > 2 * k:
        short = np.argpartition(K, 2 * k, axis=1)
        bound = np.minimum(bound, K[ix[:, 0], short[:, 2 * k]])
        cols = short[:, : 2 * k]
        if m > c:
            cols = groups[ix, cols // _GROUP] + m * (cols % _GROUP)
        # Candidates in index order, so that a stable sort breaks ties toward the smaller index.
        cols.sort(axis=1)
    else:
        cols = np.broadcast_to(np.arange(n_ref), (n, n_ref))
    d2 = _direct_distances(reference.points, Q, cols)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    idx, dist = cols[ix, order], d2[ix, order]
    bound[far] = -np.inf
    norms = np.sqrt(q_sq)
    Y = 2.0 * (bound - (reference.err_key[0] * norms + reference.err_key[1])) + q_sq
    L = np.sqrt(np.maximum(Y, 0.0)) - (reference.err_pt[0] * norms + reference.err_pt[1])
    with np.errstate(over="ignore"):
        L = np.ldexp(np.maximum(L, 0.0) ** 2, 2 * reference.exp)
    L = L * (1.0 - 2 * (dim + 4) * _U64) - (dim + 3) * 2.0**-1074
    # Rows that miss the bound are ranked over full rows, in chunks of at most 32 MB.
    redo = np.flatnonzero(~(dist[:, k - 1] < L))
    step = max(1, _MAX_BLOCK_ELEMS // max(n_ref * dim, 1))
    for r in (redo[start : start + step] for start in range(0, redo.size, step)):
        full = np.broadcast_to(np.arange(n_ref), (r.size, n_ref))
        d2 = _direct_distances(reference.points, Q[r], full)
        idx[r], dist[r] = _select_k(d2, k)
    return idx, dist


def _direct_distances(points, Q, cols):
    """Float64 squared distances from each query to its columns."""
    return np.sum((points[cols] - Q[:, None, :]) ** 2, axis=-1)


def _select_k(d2, k):
    """Smallest-k selection per row with exact (distance, index) ordering."""
    v = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    # Every row keeps at least k entries at or below its k-th smallest value.
    # nonzero lists them row by row in index order, and the stable lexsort by
    # (row, distance) keeps that order among ties, so each row's first k win.
    rows, cols = np.nonzero(d2 <= v)
    order = np.lexsort((d2[rows, cols], rows))
    idx = cols[order[np.searchsorted(rows, np.arange(len(d2)))[:, None] + np.arange(k)]]
    return idx, np.take_along_axis(d2, idx, axis=1)
