"""Exact k-nearest-neighbor search over Euclidean distance.

Distances are squared Euclidean, the float64 value of ``sum((r - q)**2)``,
so they depend on the two points alone and not on how queries are batched;
ties are broken by the smaller reference index.  Queries are searched in
chunks of rows, and each array of float64 coordinate differences holds at
most 10^6 values, so memory stays bounded at large N.

A :class:`KnnReference` shifts the points by the centre of their bounding
box and scales them by powers of two (exactly) so that the half diagonal of
that box, which bounds every centred norm up to rounding, lies in [1/2, 1).
It then reads, at _SAMPLE evenly spaced points, the doubling dimension
``2 ln 8 / ln(d32 / d4)``, d4 and d32 a point's squared distances to its 4th
and 32nd sampled neighbours, 0 where they vanish (Levina and Bickel, NIPS
2004).  A kd-tree's cost grows with it (Friedman, Bentley and Finkel, ACM
TOMS 3(3), 1977), the screen's with N: when more than half of the sample
reads below a crossover that rises with log2 N (as 2-D views, and Gaussian
ones up to D = 6 at N = 20000) a kd-tree searches the points; otherwise, or
at most 512 points, a float32 screen of every point.

The search runs in rounds over all of a call's queries.  In each, either
engine offers every row still open c candidates, sorted by index, and a
float64 bound that every other point's distance reaches.  The candidates are
ranked by (float64 distance, index) with a stable sort, which is exact when
the k-th distance lies strictly below the bound.  The rows that miss it
(ties across the c-th candidate, separations below the screen's resolution,
distances that underflow), from every chunk, are searched together in the
next round with 4 c candidates; once that would be every point, they are
ranked over full rows, as are at once the rows whose bound is -inf, which
no wider search can raise.

Tree.  A ``scipy.spatial.cKDTree`` is built on the raw points, neither
shifted nor centred, since that would add absolute rounding that the
relative margin below does not cover.  The candidates are a query's c tree
neighbours, from c = k + 1, and the bound is ``t^2 (1 - 2^-20) - (D + 3)
2^-1074``, t the c-th tree distance.  The tree's source is not at hand
(only its compiled module is installed), so this rests on an assumption:
that it returns an exact c nearest neighbors in its own float64 arithmetic,
whose rounding of a squared distance lies far below 2^-20 of it.  Every
point left out then has a tree distance of at least t, and a float64
squared distance of at least ``t^2`` less the relative rounding of both sums
and of squaring t (a few times (D + 3) 2^-53) and ``(D + 3) 2^-1074`` of
underflow.  A c-th distance that overflows gives a bound of -inf.

Screen.  The scaled points are stored as float32 ``r~`` with ``|r~|^2/2``
as one extra row: one GEMM gives the key ``K = |r~|^2/2 - q~.r~ =
(|q~ - r~|^2 - |q~|^2)/2`` of every pair.  Of the strided column groups
``{t, t+m, ..., t+15m}`` (padded with infinite keys), the c + 2 with the
smallest minimum key are picked, and of their members the c with the
smallest keys are the candidates, from c = 2k; below ``16 (c + 3)`` columns
the c come from all keys.  Every other column has a key of at least B, the
next group minimum or the (c + 1)-th candidate key.

The bound is a lower bound on the distance of every column keyed at B or
above.  Centring and rounding to float32 move q and r by at most ``e = 1.01
u (|q~| + R)``, u = 2^-24, R the largest scaled norm; the GEMM of length D +
1 errs by at most ``gamma_{D+1} (|q~| R + R^2/2)``, ``gamma_n = n u / (1 - n
u)`` (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section
3.1), and the float32 half norm by ``u R^2/2``.  With g their sum times
1.01, such a column has ``|q~ - r~|^2 >= Y = 2 (B - g) + |q~|^2``, so an
exact scaled distance of at least ``(sqrt(Y) - e)^2``, of which the float64
sum keeps all but a factor ``gamma_{D+3}`` (in float64) and ``(D + 3)
2^-1074`` of underflow; absolute terms cover subnormals.  A query beyond
2^20 in the scaled frame gets a bound of -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_matrix

# scipy.spatial is imported where a tree is built, not here: it adds about
# 0.09 s and 7.5 MiB to a process, and screened references need no tree.

__all__ = ["KnnReference", "KnnResult", "knn_search"]

# Query rows per screened block: enough for about 2 MB of float32 keys, which stay
# in a core's L2 cache (at low D the key pass is bound by memory traffic),
# but at least 2 D rows, so that streaming the reference through the GEMM
# costs at most half as much as writing the keys.  At most _MAX_BLOCK_ELEMS keys.
_BLOCK_ELEMS = 524_288
_MAX_BLOCK_ELEMS = 4_000_000
# Float64 coordinate differences per array of direct distances (8 MB): the
# candidates of a chunk of query rows, or the full rows of the queries no
# candidates certify, split by columns when one row is wider.
_DIRECT_ELEMS = 1_000_000
# Query rows per tree call: its distances and indices of k + 1 neighbours take
# 0.5 MB at k = 15.
_TREE_ROWS = 2048
# Members per column group of the group-minimum selection.
_GROUP = 16
# Sampled points when judging whether a reference is searched through a kd-tree.
_SAMPLE = 512
# Reference rows per chunk of the screen's preparation (bounds its float64 copies).
_PREP_ROWS = 4096
_U32, _U64 = 2.0**-24, 2.0**-53
# Squared scaled query norm beyond which a row's screen bound is -inf.
_FAR_SQ = 2.0**40


@dataclass
class KnnResult:
    """indices[q, j] is the j-th nearest reference of query q; distances are squared."""

    indices: np.ndarray
    distances: np.ndarray


class KnnReference:
    """Reference points, validated and prepared once for any number of searches.

    Raises ``ValueError`` unless finite and 2-D; the points must not change.
    Besides the points it holds either ``tree``, a kd-tree over them that
    keeps them uncopied (20-25 bytes per point at D = 2 and 3), or, with
    ``tree`` None, the screen's float32 keys: 4 (D + 1) bytes per point.
    """

    def __init__(self, points):
        self.points = P = _check_matrix(points, "reference")
        n, dim = P.shape
        # Powers of two: |points| s0 < 1, then the box's half diagonal times |s1| in [1/2, 1).
        lo, hi = (P.min(axis=0), P.max(axis=0)) if n else (np.zeros(dim),) * 2
        e0 = max(int(np.frexp(max(hi.max(initial=0.0), -lo.min(initial=0.0)))[1]), -1000)
        s0 = 2.0**-e0
        self.origin, half = 0.5 * (hi * s0 + lo * s0), 0.5 * (hi * s0 - lo * s0)
        e1 = int(np.frexp(np.sqrt(half @ half))[1])
        # Queries are scaled by -s1 against columns (r~, |r~|^2/2), padded with inf keys.
        self.scales, self.exp = (s0, -(2.0**-e1)), e0 + e1
        self.tree = None
        if _use_tree(self):
            from scipy.spatial import cKDTree

            self.tree = cKDTree(P)
            return
        self.keys = np.zeros((dim + 1, n + -n % _GROUP), dtype=np.float32)
        self.keys[dim, n:] = np.inf
        half_max = 0.0
        for a in range(0, n, _PREP_ROWS):
            b = min(a + _PREP_ROWS, n)
            self.keys[:dim, a:b] = ((P[a:b] * s0 - self.origin) * 2.0**-e1).T
            half_sq = 0.5 * np.einsum(
                "ij,ij->j", self.keys[:dim, a:b], self.keys[:dim, a:b], dtype=np.float64
            )
            self.keys[dim, a:b] = half_sq
            half_max = max(half_max, half_sq.max())
        # The bound's error terms (module docstring), linear in |q~|, subnormals included.
        R, n_u = float(np.sqrt(2.0 * half_max)), (dim + 1) * _U32
        gamma = n_u / (1.0 - n_u) if n_u < 1.0 else np.inf
        self.err_key = (1.01 * gamma * R, 1.01 * (gamma + _U32) * 0.5 * R * R + 2.0**-100)
        self.err_pt = (1.01 * _U32, 1.01 * _U32 * R + 2.0**-100 + dim**0.5 * 2.0 ** (-1074 - e1))

    def __len__(self):
        return self.points.shape[0]


def _sq_norms(M):
    return np.einsum("ij,ij->i", M, M)


def _use_tree(reference):
    """Whether most of a sample reads a doubling dimension below the tree's crossover."""
    n = len(reference.points)
    if n <= _SAMPLE:
        return False
    S = _scaled(reference, reference.points[np.arange(_SAMPLE) * n // _SAMPLE])[0]
    sq = _sq_norms(S)
    G = S @ (-2.0 * S.T)
    G += sq[:, None]
    G += sq
    G.partition(32, axis=1)
    G = np.sort(G[:, :33], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dims = np.nan_to_num(2.0 * np.log(8.0) / np.log(G[:, 32] / G[:, 4]), nan=0.0)
    # np.median would import numpy.ma (about 10 ms) on its first call in a process.
    return np.count_nonzero(dims < 0.5 * np.log2(n) - 1.3) > _SAMPLE // 2


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
    points = reference.points
    (n_ref, dim), n_query = points.shape, len(queries)
    if queries.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: reference has {dim} columns, queries {queries.shape[1]}"
        )
    if not (1 <= k <= n_ref):
        raise ValueError(f"k={k} out of range (must be 1..{n_ref})")

    idx, dist = np.empty((n_query, k), dtype=np.int64), np.empty((n_query, k))
    if reference.tree is not None:
        candidates, c, block = _tree_candidates, k + 1, _TREE_ROWS
    else:
        candidates, c = _screen_candidates, 2 * k
        block = max(1, min(max(_BLOCK_ELEMS // n_ref, 2 * dim), _MAX_BLOCK_ELEMS // n_ref))
    # Rounds of c, 4 c, ... candidates over every row that no round has certified.
    rows, full = np.arange(n_query), []
    while rows.size and c < n_ref:
        left = []
        for r in _chunks(rows, block, c * dim):
            cand, limit = candidates(reference, queries[r], c)
            idx[r], dist[r] = _rank(points, queries[r], cand, k)
            # No wider search raises a bound of -inf.
            full.append(r[limit == -np.inf])
            left.append(r[~(dist[r, k - 1] < limit) & (limit > -np.inf)])
        rows, c = np.concatenate(left), min(4 * c, n_ref)
    for r in _chunks(np.concatenate([rows, *full]), block, n_ref * dim):
        idx[r], dist[r] = _select_k(_direct_distances(points, queries[r]), k)
    return KnnResult(indices=idx, distances=dist)


def _chunks(rows, block, width):
    """``rows`` in chunks of ``block``, fewer if rows of ``width`` values pass _DIRECT_ELEMS."""
    step = max(1, min(block, _DIRECT_ELEMS // max(width, 1)))
    return (rows[a : a + step] for a in range(0, rows.size, step))


def _tree_candidates(reference, Q, c):
    """The c tree neighbours of each query, sorted by index, and their bound."""
    n_ref, dim = reference.points.shape
    t, cand = reference.tree.query(Q, c)
    with np.errstate(over="ignore"):
        limit = np.square(t[:, -1]) * (1.0 - 2.0**-20) - (dim + 3) * 2.0**-1074
    # An overflowing distance (the tree then reports index N) certifies nothing.
    limit[np.isinf(limit)] = -np.inf
    cand.sort(axis=1)
    return np.minimum(cand, n_ref - 1, out=cand), limit


def _scaled(reference, Q):
    """Queries in the negated scaled frame (-q~), zeroed beyond it, and those far rows."""
    with np.errstate(over="ignore"):
        A = (Q * reference.scales[0] - reference.origin) * reference.scales[1]
        far = ~(_sq_norms(A) <= _FAR_SQ)
    A[far] = 0.0
    return A, far


def _screen_candidates(reference, Q, c):
    """The c columns of smallest float32 key of each query, sorted by index, and their bound."""
    n, dim = len(Q), reference.points.shape[1]
    A, far = _scaled(reference, Q)
    A32 = np.ones((n, dim + 1), dtype=np.float32)
    A32[:, :-1] = A
    q_sq = np.square(A32[:, :-1], dtype=np.float64).sum(axis=1)
    ix = np.arange(n)[:, None]
    K = A32 @ reference.keys
    m = K.shape[1] // _GROUP
    grouped = m > c + 2
    bound = np.full(n, np.inf, dtype=np.float32)
    if grouped:
        members = K.reshape(n, _GROUP, m)
        group_min = members.min(axis=1)
        part = np.argpartition(group_min, c + 2, axis=1)
        bound, groups = group_min[ix[:, 0], part[:, c + 2]], part[:, : c + 2]
        K = members.transpose(0, 2, 1)[ix, groups].reshape(n, -1)
    short = np.argpartition(K, c, axis=1)
    bound = np.minimum(bound, K[ix[:, 0], short[:, c]])
    cand = short[:, :c]
    if grouped:
        cand = groups[ix, cand // _GROUP] + m * (cand % _GROUP)
    norms = np.sqrt(q_sq)
    Y = 2.0 * (bound - (reference.err_key[0] * norms + reference.err_key[1])) + q_sq
    L = np.sqrt(np.maximum(Y, 0.0)) - (reference.err_pt[0] * norms + reference.err_pt[1])
    with np.errstate(over="ignore"):
        L = np.ldexp(np.maximum(L, 0.0) ** 2, 2 * reference.exp)
    L = np.where(far, -np.inf, L * (1.0 - 2 * (dim + 4) * _U64) - (dim + 3) * 2.0**-1074)
    # Candidates in index order, so that a stable sort breaks ties toward the smaller index.
    return np.sort(cand, axis=1), L


def _rank(points, Q, cand, k):
    """The first k of each row of index-sorted candidates by (float64 distance, index)."""
    d2 = _direct_distances(points, Q, cand)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(d2, order, axis=1)


def _direct_distances(points, Q, cols=None):
    """Float64 squared distances from each query to its columns, or to every point.

    ``cols`` is an (M, c) index array, one row per query.  Each array of
    differences holds at most _DIRECT_ELEMS values, cut by columns when the
    rows are wider than that.
    """
    n_cols = len(points) if cols is None else cols.shape[1]
    width = max(1, _DIRECT_ELEMS // max(len(Q) * points.shape[1], 1))
    parts = []
    for a in range(0, n_cols, width):
        part = points[a : a + width] if cols is None else points[cols[:, a : a + width]]
        diff = np.subtract(part, Q[:, None, :])
        parts.append(np.square(diff, out=diff).sum(axis=-1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


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
