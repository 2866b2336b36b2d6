"""Exact kNN search against an independent brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcca.neighbors
from mvcca.neighbors import KnnReference, knn_search


def brute_force(reference, queries, k, exclude=None):
    """Per-query loop over direct squared distances, (distance, index) order."""
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k))
    for q, point in enumerate(queries):
        d = np.sum((reference - point) ** 2, axis=1)
        if exclude is not None:
            d[exclude[q]] = np.inf
        order = np.lexsort((np.arange(len(reference)), d))[:k]
        idx[q] = order
        dist[q] = d[order]
    return idx, dist


class TestHandCases:
    def test_line_exclude_self(self):
        reference = np.array([[0.0], [1.0], [3.0]])
        res = knn_search(reference, np.array([[0.0]]), 2, include_self=False)
        np.testing.assert_array_equal(res.indices, [[1, 2]])
        np.testing.assert_allclose(res.distances, [[1.0, 9.0]])

    def test_equidistant_tie_smaller_index_wins(self):
        reference = np.array([[-1.0], [1.0]])
        res = knn_search(reference, np.array([[0.0]]), 1)
        assert res.indices[0, 0] == 0
        np.testing.assert_allclose(res.distances, [[1.0]])

    def test_duplicate_points_tie(self):
        reference = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        res = knn_search(reference, np.array([[1.0, 0.0]]), 3)
        np.testing.assert_array_equal(res.indices, [[1, 2, 3]])
        np.testing.assert_allclose(res.distances, 0.0, atol=0)

    def test_self_included_at_zero_distance(self):
        rng = np.random.default_rng(0)
        P = rng.standard_normal((30, 4))
        res = knn_search(P, P, 3)
        np.testing.assert_array_equal(res.indices[:, 0], np.arange(30))
        np.testing.assert_allclose(res.distances[:, 0], 0.0, atol=1e-12)

    def test_exclude_self_on_full_set(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((25, 3))
        res = knn_search(P, P, 4, include_self=False)
        assert not np.any(res.indices == np.arange(25)[:, None])


class TestOracle:
    @pytest.mark.parametrize("seed,n,m,d,k", [(2, 1000, 1000, 10, 15), (3, 311, 77, 5, 9)])
    def test_matches_brute_force(self, seed, n, m, d, k):
        rng = np.random.default_rng(seed)
        reference = rng.standard_normal((n, d))
        queries = reference if m == n else rng.standard_normal((m, d))
        res = knn_search(reference, queries, k)
        idx, dist = brute_force(reference, queries, k)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)

    def test_matches_brute_force_n2000(self):
        rng = np.random.default_rng(4)
        P = rng.standard_normal((2000, 8))
        res = knn_search(P, P, 15)
        idx, dist = brute_force(P, P, 15)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)

    def test_exclude_self_matches_oracle(self):
        rng = np.random.default_rng(5)
        P = rng.standard_normal((150, 6))
        res = knn_search(P, P, 10, include_self=False)
        idx, dist = brute_force(P, P, 10, exclude=np.arange(150))
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)

    def test_grid_with_many_ties(self):
        # Integer grid: squared distances are exact, ties everywhere.
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        P = np.column_stack([xs.ravel(), ys.ravel()])
        res = knn_search(P, P, 8)
        idx, dist = brute_force(P, P, 8)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

    def test_tie_fuzz_small_integer_coordinates(self):
        # Tiny integer ranges force boundary ties at nearly every query.
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 30))
            d = int(rng.integers(1, 4))
            ref = rng.integers(0, 3, (n, d)).astype(float)
            q = rng.integers(0, 3, (m, d)).astype(float)
            k = int(rng.integers(1, n + 1))
            res = knn_search(ref, q, k)
            idx, dist = brute_force(ref, q, k)
            np.testing.assert_array_equal(res.indices, idx)
            np.testing.assert_array_equal(res.distances, dist)


def assert_matches_oracle(reference, k, include_self=True, n_query=None, exact=True):
    queries = reference[:n_query]
    res = knn_search(reference, queries, k, include_self=include_self)
    idx, dist = brute_force(
        reference, queries, k, exclude=None if include_self else np.arange(len(queries))
    )
    np.testing.assert_array_equal(res.indices, idx)
    if exact:
        np.testing.assert_array_equal(res.distances, dist)
    else:
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)


class TestGroupedSelection:
    """Sizes where rows are ranked from group minima (N >= 32 (k + 1)).

    Integer coordinates make every squared distance exact, so ties at the
    selection boundary are real and both the grouped path and its full-row
    fallback are exercised against the oracle.
    """

    @pytest.mark.parametrize("include_self", [True, False])
    def test_sorted_1d(self, include_self):
        rng = np.random.default_rng(10)
        P = np.sort(rng.standard_normal(1200))[:, None]
        assert_matches_oracle(P, 15, include_self, exact=False)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_sorted_1d_integers_with_repeats(self, include_self):
        rng = np.random.default_rng(11)
        P = np.sort(rng.integers(0, 3000, 1500)).astype(float)[:, None]
        assert_matches_oracle(P, 15, include_self)

    @pytest.mark.parametrize("k", [8, 15])
    def test_grid_40x40(self, k):
        xs, ys = np.meshgrid(np.arange(40.0), np.arange(40.0))
        P = np.column_stack([xs.ravel(), ys.ravel()])
        assert_matches_oracle(P, k)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_duplicate_heavy_lattice(self, include_self):
        # 1000 points on 25 sites: every k-th neighbor ties with dozens more.
        rng = np.random.default_rng(12)
        P = rng.integers(0, 5, (1000, 2)).astype(float)
        assert_matches_oracle(P, 15, include_self)

    @pytest.mark.parametrize("n", [511, 512, 513, 527, 1001])
    def test_sizes_around_cutover_and_tail(self, n):
        # k = 15 switches to grouped selection at N = 512; 513, 527 and 1001
        # leave a tail of columns outside the 16-member groups.
        rng = np.random.default_rng(n)
        P = rng.integers(0, 9, (n, 2)).astype(float)
        assert_matches_oracle(P, 15)
        assert_matches_oracle(P, 15, include_self=False)

    def test_continuous_queries_not_in_reference(self):
        rng = np.random.default_rng(13)
        reference = rng.standard_normal((1500, 3))
        queries = rng.standard_normal((300, 3))
        res = knn_search(reference, queries, 15)
        idx, dist = brute_force(reference, queries, 15)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_many_small_blocks(self, monkeypatch, include_self):
        # Blocks of 5 queries: the excluded diagonal must follow the block offset.
        monkeypatch.setattr(mvcca.neighbors, "_BLOCK_ELEMS", 5 * 700)
        rng = np.random.default_rng(14)
        P = rng.integers(0, 6, (700, 2)).astype(float)
        assert_matches_oracle(P, 12, include_self)

    def test_subnormal_squared_norms(self):
        # Every product is an exact multiple of 2**-1074, the smallest
        # subnormal, so the oracle is exact; odd squared norms cannot be
        # halved, and the search must keep the unhalved key.
        rng = np.random.default_rng(15)
        P = rng.integers(1, 50, (600, 2)).astype(float) * 2.0**-537
        assert_matches_oracle(P, 15)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(512, 1500),
        dim=st.integers(1, 3),
        span=st.integers(1, 6),
        k=st.integers(1, 15),
        n_query=st.integers(1, 120),
        include_self=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_integer_coordinates_property(
        self, n, dim, span, k, n_query, include_self, seed
    ):
        rng = np.random.default_rng(seed)
        P = rng.integers(0, span + 1, (n, dim)).astype(float)
        assert_matches_oracle(P, k, include_self, n_query=n_query)


class TestKnnReference:
    """A prepared reference searches exactly as the array it wraps."""

    @pytest.mark.parametrize(
        "data,include_self",
        [
            ("continuous", True),
            ("lattice", True),
            ("lattice", False),
            ("subnormal", True),
            ("subnormal", False),
        ],
    )
    def test_matches_array_reference(self, data, include_self):
        rng = np.random.default_rng(16)
        if data == "continuous":
            reference, queries = rng.standard_normal((1500, 3)), rng.standard_normal((300, 3))
        elif data == "lattice":
            reference = rng.integers(0, 5, (1000, 2)).astype(float)
            queries = reference[:300]
        else:
            reference = rng.integers(1, 50, (600, 2)).astype(float) * 2.0**-537
            queries = reference[:300]
        prepared = KnnReference(reference)
        # Odd subnormal squared norms cannot be halved: the unhalved key is kept.
        assert prepared.scale == (1.0 if data == "subnormal" else 2.0)
        for k in (1, 15):  # one prepared reference serves several searches
            a = knn_search(prepared, queries, k, include_self=include_self)
            b = knn_search(reference, queries, k, include_self=include_self)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_at_construction(self, bad):
        P = np.zeros((4, 2))
        P[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            KnnReference(P)

    def test_length_and_no_copy(self):
        # A model's prepared reference must not hold a second copy of its training view.
        P = np.arange(21.0).reshape(7, 3)
        prepared = KnnReference(P)
        assert len(prepared) == 7
        assert prepared.points is P


class TestProperties:
    def test_permutation_consistency(self):
        rng = np.random.default_rng(6)
        P = rng.standard_normal((200, 5))
        Q = rng.standard_normal((40, 5))
        perm = rng.permutation(200)
        base = knn_search(P, Q, 7)
        permuted = knn_search(P[perm], Q, 7)
        for q in range(40):
            assert set(perm[permuted.indices[q]].tolist()) == set(base.indices[q].tolist())
            np.testing.assert_allclose(
                np.sort(permuted.distances[q]), np.sort(base.distances[q]), rtol=1e-12
            )

    def test_k_prefix_of_k_plus_one(self):
        rng = np.random.default_rng(7)
        P = rng.standard_normal((120, 4))
        small = knn_search(P, P, 6)
        large = knn_search(P, P, 7)
        np.testing.assert_array_equal(large.indices[:, :6], small.indices)
        np.testing.assert_array_equal(large.distances[:, :6], small.distances)

    def test_sorted_and_unique_per_query(self):
        rng = np.random.default_rng(8)
        P = rng.standard_normal((90, 3))
        res = knn_search(P, P, 12)
        assert np.all(np.diff(res.distances, axis=1) >= 0)
        assert np.all(res.distances >= 0)
        for row in res.indices:
            assert len(set(row.tolist())) == 12


class TestErrors:
    def test_k_out_of_range(self):
        P = np.zeros((5, 2))
        with pytest.raises(ValueError):
            knn_search(P, P, 6)
        with pytest.raises(ValueError):
            knn_search(P, P, 0)
        with pytest.raises(ValueError):
            knn_search(P, P, 5, include_self=False)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            knn_search(np.zeros((5, 2)), np.zeros((3, 3)), 2)

    def test_non_finite_rejected(self):
        P = np.zeros((4, 2))
        Q = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            knn_search(P, Q, 2)
