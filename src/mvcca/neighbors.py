"""Exact k-nearest-neighbor search over Euclidean distance.

Brute force, blocked over queries so memory stays bounded at large N.
Distances are squared Euclidean; ties are broken by the smaller reference
index, which makes results deterministic even on degenerate inputs.

Each block costs one distance pass: a GEMM and one in-place subtraction
give the half-norm key ``h = |r|^2/2 - q.r`` for every (query, reference)
pair.  Halving is exact, so ``2h`` is bit for bit the floating-point value
of ``|r|^2 - 2 q.r``, and the squared distance ``fl(2h + |q|^2)`` is the
same number the textbook expansion ``|r|^2 - 2 q.r + |q|^2`` gives when
evaluated left to right.  It is formed only for the few candidates that
survive selection.  (A reference row whose squared norm is subnormal with
its last bit set cannot be halved exactly; such data keep the unhalved key
``|r|^2 - 2 q.r`` and add ``|q|^2`` to it directly.)

Once ``N >= 32 (k + 1)``, selection does not partition full rows, which
is where a brute-force search spends most of its time.  The columns are split
into strided groups of 16, ``{t, t+m, ..., t+15m}`` for ``m = N // 16``
(the last ``N mod 16`` columns are always candidates).  The elementwise
minimum over the 16 members gives every group's minimum key in one pass,
and a partition of those ``m`` values picks the ``k + 1`` groups with the
smallest minima; the largest of these k + 1 minima is the row's bound.
Every column outside the picked groups has a key at or above the bound,
and the squared distance is nondecreasing in the key, so its distance is
at least the limit ``fl(2 * bound + |q|^2)``.  The ``16 (k + 1)`` members
of the picked groups are ranked by (distance, index).  Their k-th distance
never exceeds the limit, since the k + 1 group minima are among them.
When it lies strictly below, no column left out can enter the top k or tie
with it, and the result is exact.  When it equals the limit (a tie or a
rounding collision at the boundary, as on duplicate points), the entries
below it are still exact and in order, and the remaining slots are filled
from the full row with the smallest indices at that distance.  Below
``N = 32 (k + 1)``, where groups would prune little, full rows are ranked.

A :class:`KnnReference` holds what depends on the reference set alone (the
finiteness check, the contiguous points, the key offset and scale), so that
a fitted model prepares it once; an array reference is wrapped per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KnnReference", "KnnResult", "knn_search"]

# Query rows per block: enough for about 2 MB of float64 keys, which stay
# in a core's L2 cache (at low D the key pass is bound by memory traffic),
# but at least 2 D rows, so that streaming the N x D reference through the
# GEMM costs at most half as much as writing the keys; at most 32 MB.
_BLOCK_ELEMS = 262_144
_MAX_BLOCK_ELEMS = 4_000_000
# Members per column group of the group-minimum selection.
_GROUP = 16


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
        ref_sq = np.einsum("ij,ij->i", self.points, self.points)
        half_sq = 0.5 * ref_sq
        # The key is h = offset - (2 / scale) q.r and the distance fl(scale h + |q|^2).
        if np.array_equal(half_sq + half_sq, ref_sq):
            self.scale, self.offset = 2.0, half_sq
        else:
            self.scale, self.offset = 1.0, ref_sq

    def __len__(self):
        return self.points.shape[0]


def knn_search(reference, queries, k, include_self=True):
    """Exact k nearest neighbors of each query among the reference rows.

    Parameters
    ----------
    reference : (N, D) array or KnnReference
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
    if not isinstance(reference, KnnReference):
        reference = KnnReference(reference)
    queries = _check_matrix(queries, "queries")
    points, scale, offset = reference.points, reference.scale, reference.offset
    n_ref, dim = points.shape
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

    indices = np.empty((n_query, k), dtype=np.int64)
    distances = np.empty((n_query, k), dtype=np.float64)

    block = max(1, min(max(_BLOCK_ELEMS // n_ref, 2 * dim), _MAX_BLOCK_ELEMS // n_ref))
    for start in range(0, n_query, block):
        stop = min(start + block, n_query)
        Q = queries[start:stop]
        h = Q @ points.T
        if scale == 1.0:
            h *= 2.0
        np.subtract(offset, h, out=h)
        if not include_self:
            h[np.arange(stop - start), np.arange(start, stop)] = np.inf
        q_sq = np.einsum("ij,ij->i", Q, Q)
        indices[start:stop], distances[start:stop] = _select_block(h, q_sq, k, scale)
    np.maximum(distances, 0.0, out=distances)
    return KnnResult(indices=indices, distances=distances)


def _distances(h, q_sq, scale):
    """Turn keys into squared distances in place."""
    if scale != 1.0:
        h *= scale
    h += q_sq[:, None]
    return h


def _select_block(h, q_sq, k, scale):
    """Top-k by (distance, index) of each row of a key block; see the module docstring."""
    n_rows, n_ref = h.shape
    m = n_ref // _GROUP
    if m < 2 * (k + 1):
        return _select_k(_distances(h, q_sq, scale), k)
    step = h.strides[1]
    members = np.lib.stride_tricks.as_strided(
        h, (n_rows, _GROUP, m), (h.strides[0], m * step, step), writeable=False
    )
    group_min = members.min(axis=1)
    groups = np.argpartition(group_min, k, axis=1)[:, : k + 1]
    bound = np.take_along_axis(group_min, groups[:, k:], axis=1)[:, 0]
    # Sorted group ids laid out member-major give ascending column numbers,
    # so candidate position order is reference index order.
    groups.sort(axis=1)
    cols = (groups[:, None, :] + m * np.arange(_GROUP)[:, None]).reshape(n_rows, -1)
    if n_ref > m * _GROUP:
        tail = np.arange(m * _GROUP, n_ref)
        cols = np.hstack([cols, np.broadcast_to(tail, (n_rows, tail.size))])
    pos, dist = _select_k(_distances(np.take_along_axis(h, cols, axis=1), q_sq, scale), k)
    idx = np.take_along_axis(cols, pos, axis=1)
    # The k-th candidate distance never exceeds the limit; where it reaches
    # it, columns left out may tie with it.
    limit = scale * bound + q_sq
    redo = np.flatnonzero(~(dist[:, k - 1] < limit))
    if redo.size:
        rows = h if redo.size == n_rows else h[redo]
        _fill_ties(idx, dist, _distances(rows, q_sq[redo], scale), redo, k)
    return idx, dist


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
        # beyond the k+1 candidates.
        tie = np.flatnonzero(cand_d[:, k] <= cand_d[:, k - 1])
        if tie.size:
            _fill_ties(cand, cand_d, d2[tie], tie, k)
    return np.ascontiguousarray(cand[:, :k]), np.ascontiguousarray(cand_d[:, :k])


def _fill_ties(idx, dist, d2, rows, k):
    """Redo the tied tail of ``rows`` of a (distance, index)-sorted top-k.

    ``d2`` holds the full distance rows of ``rows``.  With ``v`` the k-th
    distance of a row, every entry below ``v`` must already sit, in order,
    at the front of its row; the slots from the first ``v`` on take the
    smallest column indices whose distance equals ``v``.
    """
    v = dist[rows, k - 1]
    n_below = np.count_nonzero(dist[rows, :k] < v[:, None], axis=1)
    equal = d2 == v[:, None]
    every = np.arange(rows.size)
    # Pass j takes each row's j-th equal column: argmax finds the first True
    # and stops there, which beats listing every equal entry when there are many.
    for j in range(k - n_below.min()):
        col = equal.argmax(axis=1)
        equal[every, col] = False
        sel = np.flatnonzero(n_below + j < k)
        idx[rows[sel], n_below[sel] + j] = col[sel]
        dist[rows[sel], n_below[sel] + j] = v[sel]
