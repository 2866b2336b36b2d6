"""Exact k-nearest-neighbor search over Euclidean distance.

Distances are squared Euclidean, the float64 value of ``sum((r - q)**2)``,
so they depend on the two points alone and not on how queries are batched;
ties are broken by the smaller reference index.  Queries are searched in
blocks, so memory stays bounded at large N.

Each block is screened in float32.  A :class:`KnnReference` shifts the
points by the centre of their bounding box and scales them by powers of two
(exactly) so that the largest centred norm R lies in [1/2, 1), and stores
them as float32 ``r~`` with ``|r~|^2/2`` as one extra row: one GEMM gives
the key ``K = |r~|^2/2 - q~.r~ = (|q~ - r~|^2 - |q~|^2)/2`` of every pair.
Of the strided column groups ``{t, t+m, ..., t+15m}`` (padded with infinite
keys), the 2(k + 1) with the smallest minimum key are picked, and of their
members the 2k with the smallest keys are ranked by (float64 distance,
index); below ``16 (2k + 3)`` columns, or ``16 (8k + 9)`` screened after tile
pruning (below), the 2k come from all keys.  Every other screened column
has a key of at least B, the next group minimum or the (2k + 1)-th
candidate key.

Tiles.  A :class:`KnnReference` also splits the points by recursive
bisection (at the median of the widest coordinate) into tiles of at most
256 points, each a multiple of 16 but the last, and stores the keys in tile
order.  Each tile keeps its centre c (the mean of its scaled points) and
its radius r, one float64 ulp above its largest member distance from c.
Whether most tile balls lie apart is judged first, on the tiles of an
evenly spaced sample; where most meet, as for Gaussian data at D >= 10, the
keys stay in input order, no tiles are built and searches screen every
column.  Otherwise a call with more queries than one block, and at least 16
per tile, orders them by nearest tile centre and cuts them into blocks of
whole tiles' queries, closed at 128 (longer runs are cut at 256).  Pass 1 bounds each query's k-th distance by u, from the
k-th smallest minimum over groups of 4 keys of the tiles its block is
nearest to; pass 2 screens only the tiles with ``|q~ - c| - r <= u`` for
some query of the block, so every member of a skipped tile lies at least
``S = min |q~ - c| - r`` over the skipped tiles from the query.  A block
nearest to more than four tiles' columns, or needing most of the
reference, is screened whole.

The ranking is exact when its k-th distance lies strictly below a lower
bound on the distance of every column keyed at B or above or in a skipped
tile.  Centring and rounding to float32 move q and r by at most
``e = 1.01 u (|q~| + R)``, u = 2^-24; the GEMM of length D + 1 errs by at
most ``gamma_{D+1} (|q~| R + R^2/2)``, ``gamma_n = n u / (1 - n u)`` (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), and the
float32 half norm by ``u R^2/2``.  With g their sum times 1.01, such a column
has ``|q~ - r~|^2 >= Y = 2 (B - g) + |q~|^2``.  S is formed in float64 from
``|q~ - c|^2`` less its rounding error ``1.01 gamma_{2D+4} (|q~| + 1)^2``
(float64 gamma, |c| < 1); its other float64 roundings lie far below e.
Every column left out then has an exact scaled distance of at least
``(min(sqrt(Y), S) - e)^2``, of which the float64 sum keeps all but a
factor ``gamma_{D+3}`` (in float64) and ``(D + 3) 2^-1074`` of underflow;
absolute terms cover subnormals.  Rows that miss the bound, or whose query
lies beyond 2^20 in the scaled frame, are ranked over full rows in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_matrix

__all__ = ["KnnReference", "KnnResult", "knn_search"]

# Query rows per block: enough for about 2 MB of float32 keys, which stay
# in a core's L2 cache (at low D the key pass is bound by memory traffic),
# but at least 2 D rows, so that streaming the reference through the GEMM
# costs at most half as much as writing the keys.  At most _MAX_BLOCK_ELEMS
# keys and _DIRECT_ELEMS float64 candidate coordinates (2k or N per row) per block.
_BLOCK_ELEMS = 524_288
_MAX_BLOCK_ELEMS = 4_000_000
# Float64 coordinate differences per array of direct distances (8 MB): a block's
# candidates, or a chunk of the full rows of the queries it cannot certify.
_DIRECT_ELEMS = 1_000_000
# Members per column group of the group-minimum selection.
_GROUP = 16
# Most points per tile, and most spatially ordered queries per tile-pruned block.
_TILE = 256
_PRUNE_BLOCK = 256
# Sampled rows per tile when judging whether a reference is worth tiling.
_SAMPLE_LEAF = 16
# Reference rows per chunk of KnnReference preparation (bounds its float64 copies;
# whole tiles, at least one).
_PREP_ROWS = 4096
_U32, _U64 = 2.0**-24, 2.0**-53
# Squared scaled query norm beyond which a row skips the screen.
_FAR_SQ = 2.0**40


@dataclass
class KnnResult:
    """indices[q, j] is the j-th nearest reference of query q; distances are squared."""

    indices: np.ndarray
    distances: np.ndarray


class KnnReference:
    """Reference points, validated and prepared once for any number of searches.

    Raises ``ValueError`` unless finite and 2-D; the points must not change.
    Besides the points it holds 4 (D + 1) + 8 bytes per point (float32 keys
    and their order) and, when ``tiled``, 8 (D + 5) bytes per tile.
    """

    def __init__(self, points):
        self.points = P = _check_matrix(points, "reference")
        n, dim = P.shape
        # Powers of two: |points| s0 < 1, then the largest centred norm times s1 in [1/2, 1).
        lo, hi = P.min(axis=0, initial=np.inf), P.max(axis=0, initial=-np.inf)
        e0 = max(int(np.frexp(max(hi.max(initial=0.0), -lo.min(initial=0.0)))[1]), -1000)
        s0 = 2.0**-e0
        self.origin = 0.5 * (hi * s0 + lo * s0) if n else np.zeros(dim)
        rows = (P[a : a + _PREP_ROWS] * s0 - self.origin for a in range(0, n, _PREP_ROWS))
        top = max((_sq_norms(C).max() for C in rows), default=0.0)
        e1 = int(np.frexp(np.sqrt(top))[1])
        # Queries are scaled by -s1 against columns (r~, |r~|^2/2), padded with inf keys.
        self.scales, self.exp = (s0, -(2.0**-e1)), e0 + e1
        self.tiled = _tiles_apart(self)
        n_cols = n + -n % _GROUP
        self.order = np.zeros(n_cols, dtype=np.intp)
        self.keys = np.zeros((dim + 1, n_cols), dtype=np.float32)
        self.keys[dim, n:] = np.inf
        if self.tiled:
            perm, starts = _bisect(P)
            stops = starts[1:].copy()
            stops[-1:] = n_cols  # the last tile takes the padding columns
            self.tile_cols = (starts[:-1], stops)
            n_tiles, per_chunk = len(starts) - 1, max(1, _PREP_ROWS // _TILE)
            centres, self.radii = np.empty((n_tiles, dim)), np.empty(n_tiles)
            bounds = np.append(starts[:-1:per_chunk], n)  # chunks of whole tiles
        else:
            perm, bounds = np.arange(n), np.append(np.arange(0, n, _PREP_ROWS), n)
        self.order[:n] = perm
        half_max = 0.0
        for a, b in zip(bounds[:-1], bounds[1:]):
            C = ((P[perm[a:b]] if self.tiled else P[a:b]) * s0 - self.origin) * 2.0**-e1
            self.keys[:dim, a:b] = C.T
            half_sq = 0.5 * np.einsum(
                "ij,ij->j", self.keys[:dim, a:b], self.keys[:dim, a:b], dtype=np.float64
            )
            self.keys[dim, a:b] = half_sq
            half_max = max(half_max, half_sq.max())
            if self.tiled:
                t0, t1 = np.searchsorted(starts, [a, b])
                local, sizes = starts[t0:t1] - a, np.diff(starts[t0 : t1 + 1])
                c = np.add.reduceat(C, local, axis=0) / sizes[:, None]
                far = np.maximum.reduceat(_sq_norms(C - np.repeat(c, sizes, axis=0)), local)
                centres[t0:t1], self.radii[t0:t1] = c, np.nextafter(np.sqrt(far), np.inf)
        if self.tiled:
            # Rows (c, |c|^2, 1) against (2 (-q~), 1, |q~|^2 - error): see _centre_terms.
            self.tile_terms = np.vstack([centres.T, _sq_norms(centres), np.ones(n_tiles)])
        # The bound's error terms (module docstring), linear in |q~|, subnormals included.
        R, n_u = float(np.sqrt(2.0 * half_max)), (dim + 1) * _U32
        gamma = n_u / (1.0 - n_u) if n_u < 1.0 else np.inf
        self.err_key = (1.01 * gamma * R, 1.01 * (gamma + _U32) * 0.5 * R * R + 2.0**-100)
        self.err_pt = (1.01 * _U32, 1.01 * _U32 * R + 2.0**-100 + dim**0.5 * 2.0 ** (-1074 - e1))
        self.err_tile = 1.01 * (2 * dim + 4) * _U64 / (1.0 - (2 * dim + 4) * _U64)

    def __len__(self):
        return self.points.shape[0]


def _sq_norms(M):
    return np.einsum("ij,ij->i", M, M)


def _tiles_apart(reference):
    """Whether the balls of over 1/4 of the pairs of up to 64 tiles lie apart.

    Judged before any tile is built, on an evenly spaced sample of the
    points in the scaled frame, split as _bisect splits (to its depth, at
    the median of a node's widest coordinate) into leaves of _SAMPLE_LEAF
    rows.  Nodes stay of equal size, so each level is split in one call.
    """
    n = len(reference.points)
    if n <= _TILE:
        return False
    depth = (-(-n // _TILE) - 1).bit_length()
    m = min(_SAMPLE_LEAF, n >> depth) << depth
    S = _scaled(reference, reference.points[np.arange(m) * n // m])[0]
    nodes = np.arange(m)[None, :]
    for _ in range(depth):
        half = nodes.shape[1] // 2
        G = S[nodes[:, :: max(1, half // 8)]]  # about 16 rows of each node
        widest = np.argmax(G.max(axis=1) - G.min(axis=1), axis=1)
        part = np.argpartition(S[nodes, widest[:, None]], half, axis=1)
        nodes = np.take_along_axis(nodes, part, axis=1).reshape(-1, half)
    leaves = S[nodes[:: -(-len(nodes) // 64)]]
    centres = leaves.mean(axis=1)
    radii = np.sqrt(np.max(np.sum(np.square(leaves - centres[:, None]), axis=2), axis=1))
    sq = _sq_norms(centres)
    gap = sq[:, None] + sq - 2.0 * (centres @ centres.T) - (radii[:, None] + radii) ** 2
    return 4 * np.count_nonzero(gap > 0.0) > gap.size


def _bisect(P):
    """Tile order of the rows of P, and the tile starts with a final N.

    A node of more than _TILE rows is split at the median of its widest
    coordinate (widest over at most _TILE evenly spaced rows), the lower
    part taking a multiple of _GROUP rows.
    """
    n = len(P)
    perm, starts, stack = np.arange(n), [], [(0, n)] if n else []
    while stack:
        a, b = stack.pop()
        if b - a <= _TILE:
            starts.append(a)
            continue
        rows = perm[a:b]
        sample = P[rows[:: -(-(b - a) // _TILE)]]
        mid = _GROUP * (-(-(b - a) // _GROUP) // 2)
        dim = np.argmax(sample.max(axis=0) - sample.min(axis=0))
        perm[a:b] = rows[np.argpartition(P[rows, dim], mid)]
        stack += [(a + mid, b), (a, a + mid)]
    return perm, np.array(starts + [n])


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

    block = min(
        max(_BLOCK_ELEMS // n_ref, 2 * dim),
        _MAX_BLOCK_ELEMS // n_ref,
        _DIRECT_ELEMS // max(2 * k * dim, 1),
    )
    block = max(1, block)
    rows = None
    # Fewer than _PRUNE_BLOCK / 16 queries per tile make blocks too spread out to prune.
    if reference.tiled and n_query > block and 16 * n_query >= _PRUNE_BLOCK * len(reference.radii):
        rows = _search_tiles(reference, queries, k, indices, distances)
    for start in range(0, n_query if rows is None else len(rows), block):
        part = slice(start, start + block) if rows is None else rows[start : start + block]
        indices[part], distances[part] = _search_block(reference, queries[part], k)
    return KnnResult(indices=indices, distances=distances)


def _search_tiles(reference, queries, k, indices, distances):
    """Search blocks of queries ordered by nearest tile centre over the tiles they need.

    Returns the rows of the blocks to be screened whole, in that order.
    """
    near = np.empty(len(queries), dtype=np.intp)
    step = max(1, 2**17 // len(reference.radii))
    for start in range(0, len(queries), step):
        A = _scaled(reference, queries[start : start + step])[0]
        near[start : start + step] = np.argmin(_centre_terms(reference, A), axis=1)
    order = np.argsort(near, kind="stable")
    near, whole = near[order], []
    starts, stops = reference.tile_cols
    # Blocks are runs of whole tiles' queries, closed once they hold _PRUNE_BLOCK / 2;
    # a longer run is cut into even parts of at most _PRUNE_BLOCK.
    bounds = [0]
    for end in np.append(np.flatnonzero(np.diff(near)) + 1, len(queries)):
        start, size = bounds[-1], end - bounds[-1]
        if size >= _PRUNE_BLOCK // 2 or end == len(queries):
            parts = -(-size // _PRUNE_BLOCK)
            bounds += [start + size * i // parts for i in range(1, parts + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = order[start:stop]
        own, cols = slice(starts[near[start]], stops[near[stop - 1]]), None
        # A block nearest to tiles of more than 4 _TILE columns is screened whole.
        if k <= own.stop - own.start <= 4 * _TILE:
            Q = queries[rows]
            prep = _prepare(reference, Q)
            cols, skip = _needed_columns(reference, prep, k, own)
        if cols is None:
            whole.append(rows)
            continue
        step = max(1, min(_BLOCK_ELEMS // len(cols), _DIRECT_ELEMS // (2 * k * Q.shape[1])))
        for a in range(0, len(rows), step):
            part = slice(a, a + step)
            indices[rows[part]], distances[rows[part]] = _search_block(
                reference, Q[part], k, [x[part] for x in prep], cols, skip[part]
            )
    return np.concatenate(whole) if whole else order[:0]


def _scaled(reference, Q):
    """Queries in the negated scaled frame (-q~), zeroed beyond it, and those far rows."""
    with np.errstate(over="ignore"):
        A = (Q * reference.scales[0] - reference.origin) * reference.scales[1]
        far = ~(_sq_norms(A) <= _FAR_SQ)
    A[far] = 0.0
    return A, far


def _prepare(reference, Q):
    """What the screen needs of a block of queries: -q~, far rows, float32 (-q~, 1), |q32|^2."""
    A, far = _scaled(reference, Q)
    A32 = np.ones((len(Q), A.shape[1] + 1), dtype=np.float32)
    A32[:, :-1] = A
    return A, far, A32, np.square(A32[:, :-1], dtype=np.float64).sum(axis=1)


def _needed_columns(reference, prep, k, own):
    """Key columns of the tiles a block of ordered queries may need, and each row's S.

    ``own`` are the columns of the tiles the block's queries are nearest to.
    Returns ``(None, None)`` when the block is to be screened whole, as it
    needs more than 3/4 of the columns or no more than 2k points.
    """
    starts, stops = reference.tile_cols
    reach = _centre_terms(reference, prep[0])
    reach = np.sqrt(np.maximum(reach, 0.0, out=reach), out=reach) - reference.radii
    need = (reach <= _kth_limit(reference, prep, k, own)[:, None]).any(axis=0)
    tiles = np.flatnonzero(need)
    sizes = stops[tiles] - starts[tiles]
    n_cols, n_pad = sizes.sum(), reference.keys.shape[1] - len(reference)
    if 4 * n_cols > 3 * reference.keys.shape[1] or n_cols - n_pad * need[-1] <= 2 * k:
        return None, None
    cols = np.repeat(starts[tiles] - np.cumsum(sizes) + sizes, sizes) + np.arange(n_cols)
    reach[:, need] = np.inf
    return cols, reach.min(axis=1)


def _kth_limit(reference, prep, k, own):
    """Pass 1: per row, a bound on |q~ - c| - r of any tile that can hold a k nearest neighbor.

    The k-th smallest minimum over strided groups of 4 keys of the ``own``
    columns is at least the row's k-th key; its distance, plus the point
    slack 2e, is the bound.  Far rows get -inf: they need no tile.
    """
    A, far, A32, q_sq = prep
    K = A32 @ reference.keys[:, own]
    if K.shape[1] >= 4 * k:
        K = K.reshape(len(K), 4, -1).min(axis=1)
    kth = np.partition(K, k - 1, axis=1)[:, k - 1]
    norms = np.sqrt(q_sq)
    g = reference.err_key[0] * norms + reference.err_key[1]
    limit = np.sqrt(np.maximum(2.0 * (kth + g) + q_sq, 0.0))
    limit += 2.0 * (reference.err_pt[0] * norms + reference.err_pt[1])
    limit[far] = -np.inf
    return limit


def _centre_terms(reference, A):
    """``|q~ - c|^2`` less its rounding error, for each row of ``A = -q~`` and tile centre c."""
    q2 = _sq_norms(A)
    M = np.empty((len(A), A.shape[1] + 2))
    M[:, :-2], M[:, -2] = 2.0 * A, 1.0
    M[:, -1] = q2 - reference.err_tile * (np.sqrt(q2) + 1.0) ** 2
    return M @ reference.tile_terms


def _search_block(reference, Q, k, prep=None, cols=None, skip=None):
    """Top-k by (distance, index) of a block of queries.

    ``cols`` restricts the screen to those key columns, and ``skip`` is then
    each row's S over the tiles left out.
    """
    n, (n_ref, dim) = len(Q), reference.points.shape
    A, far, A32, q_sq = _prepare(reference, Q) if prep is None else prep
    ix = np.arange(n)[:, None]
    keys, index = reference.keys, reference.order
    if cols is not None:
        keys, index = keys[:, cols], index[cols]
    K = A32 @ keys
    m, c = K.shape[1] // _GROUP, 2 * k + 2
    # Tiles left a few times 16 c columns or fewer: one partition of them all is cheaper.
    grouped = m > (c if cols is None else 4 * c)
    bound = np.full(n, np.inf, dtype=np.float32)
    if grouped:
        members = K.reshape(n, _GROUP, m)
        group_min = members.min(axis=1)
        part = np.argpartition(group_min, c, axis=1)
        bound, groups = group_min[ix[:, 0], part[:, c]], part[:, :c]
        K = members.transpose(0, 2, 1)[ix, groups].reshape(n, -1)
    if n_ref > 2 * k:
        short = np.argpartition(K, 2 * k, axis=1)
        bound = np.minimum(bound, K[ix[:, 0], short[:, 2 * k]])
        pos = short[:, : 2 * k]
        if grouped:
            pos = groups[ix, pos // _GROUP] + m * (pos % _GROUP)
        # Candidates in index order, so that a stable sort breaks ties toward the smaller index.
        cand = index[pos]
        cand.sort(axis=1)
    else:
        cand = np.broadcast_to(np.arange(n_ref), (n, n_ref))
    d2 = _direct_distances(reference.points, Q, cand)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    idx, dist = cand[ix, order], d2[ix, order]
    bound[far] = -np.inf
    norms = np.sqrt(q_sq)
    Y = 2.0 * (bound - (reference.err_key[0] * norms + reference.err_key[1])) + q_sq
    reach = np.sqrt(np.maximum(Y, 0.0))
    if skip is not None:
        reach = np.minimum(reach, skip)
    L = reach - (reference.err_pt[0] * norms + reference.err_pt[1])
    with np.errstate(over="ignore"):
        L = np.ldexp(np.maximum(L, 0.0) ** 2, 2 * reference.exp)
    L = L * (1.0 - 2 * (dim + 4) * _U64) - (dim + 3) * 2.0**-1074
    # Rows that miss the bound are ranked over full rows, in chunks of whole rows
    # or, when one row has more than _DIRECT_ELEMS coordinates, of one row's columns.
    redo = np.flatnonzero(~(dist[:, k - 1] < L))
    rows = max(1, _DIRECT_ELEMS // max(n_ref * dim, 1))
    width = max(1, _DIRECT_ELEMS // max(dim, 1))
    for r in (redo[start : start + rows] for start in range(0, redo.size, rows)):
        q, d2 = Q[r], np.empty((r.size, n_ref))
        for a in range(0, n_ref, width):
            d2[:, a : a + width] = _direct_distances(reference.points, q, slice(a, a + width))
        idx[r], dist[r] = _select_k(d2, k)
    return idx, dist


def _direct_distances(points, Q, cols):
    """Float64 squared distances from each query to its columns.

    ``cols`` is an (M, c) index array, one row per query, or a slice of the
    points that every query takes.
    """
    diff = np.subtract(points[cols], Q[:, None, :])
    return np.square(diff, out=diff).sum(axis=-1)


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
