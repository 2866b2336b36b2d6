"""Exact kNN search against an independent brute-force oracle."""

import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcca
import mvcca.neighbors
from mvcca.neighbors import KnnReference, knn_search

# A float32 overflow or underflow in the screen must fail, not warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def search_path(request, monkeypatch):
    """Force the search of a class whose ``path`` names one on every reference.

    "screen" is the float32 screen; "tree" the kd-tree, in calls of 8 queries.
    Classes without ``path`` search as the sample of each reference decides.
    """
    path = getattr(request.cls, "path", None)
    if path is not None:
        monkeypatch.setattr(mvcca.neighbors, "_use_tree", lambda reference: path == "tree")
    if path == "tree":
        monkeypatch.setattr(mvcca.neighbors, "_TREE_ROWS", 8)


def brute_force(reference, queries, k):
    """Per-query loop over direct squared distances, (distance, index) order."""
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k))
    for q, point in enumerate(queries):
        d = np.sum((reference - point) ** 2, axis=1)
        order = np.lexsort((np.arange(len(reference)), d))[:k]
        idx[q] = order
        dist[q] = d[order]
    return idx, dist


class TestHandCases:
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


class TestOracle:
    @pytest.mark.parametrize("seed,n,m,d,k", [(2, 1000, 1000, 10, 15), (3, 311, 77, 5, 9)])
    def test_matches_brute_force(self, seed, n, m, d, k):
        rng = np.random.default_rng(seed)
        reference = rng.standard_normal((n, d))
        queries = reference if m == n else rng.standard_normal((m, d))
        res = knn_search(reference, queries, k)
        idx, dist = brute_force(reference, queries, k)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

    def test_matches_brute_force_n2000(self):
        rng = np.random.default_rng(4)
        P = rng.standard_normal((2000, 8))
        res = knn_search(P, P, 15)
        idx, dist = brute_force(P, P, 15)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

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


def queries_of(reference, self_join, n_query=None):
    """The first ``n_query`` reference rows, or the midpoints of each with its successor.

    Midpoints of distinct rows are queries outside the reference set, whose
    rows no zero distance heads; on integer data their distances are exact
    and tie often.
    """
    queries = reference[:n_query]
    if self_join:
        return queries
    return 0.5 * (queries + np.roll(reference, -1, axis=0)[: len(queries)])


def assert_matches_oracle(reference, k, self_join=True, n_query=None, exact=True):
    queries = queries_of(reference, self_join, n_query)
    res = knn_search(reference, queries, k)
    idx, dist = brute_force(reference, queries, k)
    np.testing.assert_array_equal(res.indices, idx)
    if exact:
        np.testing.assert_array_equal(res.distances, dist)
    else:
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)


def small_integer_cases(test):
    """The cases of the small-integer property test; one given() per test, so that
    each test class runs its own."""
    return settings(max_examples=25, deadline=None)(
        given(
            n=st.integers(512, 1500),
            dim=st.integers(1, 3),
            span=st.integers(1, 6),
            k=st.integers(1, 15),
            n_query=st.integers(1, 120),
            self_join=st.booleans(),
            seed=st.integers(0, 2**32 - 1),
        )(test)
    )


def assert_small_integer_case(n, dim, span, k, n_query, self_join, seed):
    rng = np.random.default_rng(seed)
    P = rng.integers(0, span + 1, (n, dim)).astype(float)
    assert_matches_oracle(P, k, self_join, n_query=n_query)


class TestGroupedSelection:
    """Sizes where the screen ranks rows from group minima (N >= 32 (k + 1)).

    Integer coordinates make every squared distance exact, so ties at the
    selection boundary are real and both the grouped path and the widening of
    uncertified rows are exercised against the oracle.
    """

    path = "screen"

    @pytest.mark.parametrize("self_join", [True, False])
    def test_sorted_1d(self, self_join):
        rng = np.random.default_rng(10)
        P = np.sort(rng.standard_normal(1200))[:, None]
        assert_matches_oracle(P, 15, self_join, exact=False)

    @pytest.mark.parametrize("self_join", [True, False])
    def test_sorted_1d_integers_with_repeats(self, self_join):
        rng = np.random.default_rng(11)
        P = np.sort(rng.integers(0, 3000, 1500)).astype(float)[:, None]
        assert_matches_oracle(P, 15, self_join)

    @pytest.mark.parametrize("k", [8, 15])
    def test_grid_40x40(self, k):
        xs, ys = np.meshgrid(np.arange(40.0), np.arange(40.0))
        P = np.column_stack([xs.ravel(), ys.ravel()])
        assert_matches_oracle(P, k)

    @pytest.mark.parametrize("self_join", [True, False])
    def test_duplicate_heavy_lattice(self, self_join):
        # 1000 points on 25 sites: every k-th neighbor ties with dozens more.
        rng = np.random.default_rng(12)
        P = rng.integers(0, 5, (1000, 2)).astype(float)
        assert_matches_oracle(P, 15, self_join)

    @pytest.mark.parametrize("n", [511, 512, 513, 527, 1001])
    def test_sizes_around_cutover_and_tail(self, n):
        # k = 15 switches to grouped selection at N = 512; 513, 527 and 1001
        # leave a tail of columns outside the 16-member groups.
        rng = np.random.default_rng(n)
        P = rng.integers(0, 9, (n, 2)).astype(float)
        assert_matches_oracle(P, 15)
        assert_matches_oracle(P, 15, self_join=False)

    def test_continuous_queries_not_in_reference(self):
        rng = np.random.default_rng(13)
        reference = rng.standard_normal((1500, 3))
        queries = rng.standard_normal((300, 3))
        res = knn_search(reference, queries, 15)
        idx, dist = brute_force(reference, queries, 15)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_allclose(res.distances, dist, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("self_join", [True, False])
    def test_many_small_blocks(self, monkeypatch, self_join):
        # Blocks of 5 queries, with and without a zero distance heading each row.
        monkeypatch.setattr(mvcca.neighbors, "_BLOCK_ELEMS", 5 * 700)
        rng = np.random.default_rng(14)
        P = rng.integers(0, 6, (700, 2)).astype(float)
        assert_matches_oracle(P, 12, self_join)

    def test_subnormal_squared_norms(self):
        # Every product is an exact multiple of 2**-1074, the smallest
        # subnormal, so the oracle is exact; odd squared norms cannot be
        # halved, and the search must keep the unhalved key.
        rng = np.random.default_rng(15)
        P = rng.integers(1, 50, (600, 2)).astype(float) * 2.0**-537
        assert_matches_oracle(P, 15)

    @small_integer_cases
    def test_small_integer_coordinates_property(
        self, n, dim, span, k, n_query, self_join, seed
    ):
        assert_small_integer_case(n, dim, span, k, n_query, self_join, seed)


class TestKnnReference:
    """A prepared reference searches exactly as the array it wraps."""

    @pytest.mark.parametrize(
        "data,self_join",
        [
            ("continuous", True),
            ("lattice", True),
            ("lattice", False),
            ("subnormal", True),
            ("subnormal", False),
        ],
    )
    def test_matches_array_reference(self, data, self_join):
        rng = np.random.default_rng(16)
        if data == "continuous":
            reference, queries = rng.standard_normal((1500, 3)), rng.standard_normal((300, 3))
        elif data == "lattice":
            reference = rng.integers(0, 5, (1000, 2)).astype(float)
            queries = queries_of(reference, self_join, 300)
        else:
            reference = rng.integers(1, 50, (600, 2)).astype(float) * 2.0**-537
            queries = queries_of(reference, self_join, 300)
        prepared = KnnReference(reference)
        for k in (1, 15):  # one prepared reference serves several searches
            a = knn_search(prepared, queries, k)
            b = knn_search(reference, queries, k)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_at_construction(self, bad):
        P = np.zeros((4, 2))
        P[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            KnnReference(P)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="reference must be 2-D, got ndim=1"):
            KnnReference(np.arange(5.0))

    def test_length_and_no_copy(self):
        # A model's prepared reference must not hold a second copy of its training view.
        P = np.arange(21.0).reshape(7, 3)
        prepared = KnnReference(P)
        assert len(prepared) == 7
        assert prepared.points is P


def _fallback_counter(monkeypatch):
    """Count the rows that the kd-tree or the float32 screen hands to the full-row ranking."""
    count = [0]
    select_k = mvcca.neighbors._select_k

    def counting(d2, k):
        count[0] += len(d2)
        return select_k(d2, k)

    monkeypatch.setattr(mvcca.neighbors, "_select_k", counting)
    return count


def _screened(monkeypatch):
    """Record (rows, candidates) of every call of the float32 screen."""
    calls = []
    screen = mvcca.neighbors._screen_candidates

    def recording(reference, Q, c):
        calls.append((len(Q), c))
        return screen(reference, Q, c)

    monkeypatch.setattr(mvcca.neighbors, "_screen_candidates", recording)
    return calls


def lattice_with_copies():
    """A 20 x 20 lattice with 3 copies of each site, then 2,000 more copies of its first site."""
    xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0))
    site = np.column_stack([xs.ravel(), ys.ravel()])
    return np.vstack([np.repeat(site, 3, axis=0), np.repeat(site[:1], 2000, axis=0)])


def _tree_queries(monkeypatch):
    """Record (rows, neighbours) of every query of a kd-tree built from here on."""
    calls = []

    class Recording(scipy.spatial.cKDTree):
        def query(self, x, k, **kwargs):
            calls.append((len(x), k))
            return super().query(x, k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Recording)
    return calls


class TestFloat32Screen:
    """The float32 screen must never change a result, whatever the data's scale."""

    path = "screen"

    @staticmethod
    def sub_float32_cluster():
        # 300 points within 1e-9 of each other inside a spread of about 1: after
        # centring, their float32 keys tie or misorder, so the screen certifies
        # a row only once its candidates hold the whole cluster.
        rng = np.random.default_rng(20)
        cluster = 0.3 + 1e-9 * rng.standard_normal((300, 2))
        return np.vstack([cluster, rng.uniform(-1.0, 1.0, (900, 2))])

    @pytest.mark.parametrize("self_join", [True, False])
    def test_separations_below_float32_resolution(self, monkeypatch, self_join):
        # Widened candidates tell the cluster's points apart: no row takes full rows.
        count = _fallback_counter(monkeypatch)
        assert_matches_oracle(self.sub_float32_cluster(), 15, self_join, n_query=400)
        assert count[0] == 0

    # The rows of the 2,003 copies of one site tie beyond every candidate count
    # below N = 3,200, so they take full rows: in chunks of 3 columns of one
    # row, of one whole row, and (unpatched) of 156 whole rows.  A budget one
    # below c D = 240 also cuts the widened rounds, from c = 120, into columns.
    @pytest.mark.parametrize("budget", [7, 2 * 120 - 1, 7200])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_small_full_row_chunks_bit_identical(self, monkeypatch, budget, self_join):
        P = lattice_with_copies()
        queries = queries_of(P, self_join)[::40]
        whole = knn_search(P, queries, 15)
        monkeypatch.setattr(mvcca.neighbors, "_DIRECT_ELEMS", budget)
        count = _fallback_counter(monkeypatch)
        chunked = knn_search(P, queries, 15)
        assert count[0] > 0
        np.testing.assert_array_equal(chunked.indices, whole.indices)
        np.testing.assert_array_equal(chunked.distances, whole.distances)

    @pytest.mark.parametrize("scale,offset", [(1e25, 0.0), (1e-25, 0.0), (1.0, 1e8)])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_extreme_scales_and_offsets(self, scale, offset, self_join):
        rng = np.random.default_rng(21)
        P = offset + scale * rng.standard_normal((1200, 3))
        assert_matches_oracle(P, 15, self_join, n_query=300)
        queries = offset + scale * np.vstack([rng.standard_normal((50, 3)), [[1e6, 0.0, 0.0]]])
        res = knn_search(P, queries, 15)
        idx, dist = brute_force(P, queries, 15)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

    def test_query_overflowing_the_scaled_frame(self):
        # Data near 1e-300 are scaled up by about 2**996; a query at 1e10 overflows
        # that frame and must take the full-row ranking without a warning.
        rng = np.random.default_rng(22)
        P = 1e-300 * rng.standard_normal((600, 2))
        queries = np.array([[1e10, 0.0], [0.0, 1e-300]])
        res = knn_search(P, queries, 5)
        idx, dist = brute_force(P, queries, 5)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)


class TestScreenWidening:
    """Screened rows that 2k candidates cannot certify are screened again with 4 times as many."""

    path = "screen"

    @pytest.mark.parametrize("self_join", [True, False])
    def test_integer_rounded_gaussian(self, monkeypatch, self_join):
        # Integer squared distances: many rows tie across the 2k-th candidate.
        P = np.round(np.random.default_rng(50).standard_normal((3000, 10)))
        calls, count = _screened(monkeypatch), _fallback_counter(monkeypatch)
        assert_matches_oracle(P, 15, self_join)
        seen = sorted({c for _, c in calls})
        assert len(seen) >= 2 and seen == [30 * 4**i for i in range(len(seen))]
        assert count[0] == 0

    @pytest.mark.parametrize("self_join", [True, False])
    def test_rows_widen_together_across_blocks(self, monkeypatch, self_join):
        # Blocks of 20 rows, each with a few uncertified rows: a round screens
        # the rows left by every block together, in as few calls as blocks allow.
        monkeypatch.setattr(mvcca.neighbors, "_BLOCK_ELEMS", 3000)
        P = np.round(np.random.default_rng(51).standard_normal((3000, 10)))
        calls = _screened(monkeypatch)
        assert_matches_oracle(P, 15, self_join)
        block = max(rows for rows, c in calls if c == 30)
        widened = {c for _, c in calls if c > 30}
        assert block == 20 and widened
        for c in widened:
            rows = [n for n, each in calls if each == c]
            assert len(rows) <= -(-sum(rows) // block)

    @pytest.mark.parametrize("self_join", [True, False])
    def test_lattice_with_copies(self, monkeypatch, self_join):
        # The set on which the tree widens to full rows: here the 2,003 copies
        # of one site tie until 2,560 candidates hold them all, below N = 3,200.
        calls, count = _screened(monkeypatch), _fallback_counter(monkeypatch)
        assert_matches_oracle(lattice_with_copies(), 5, self_join)
        assert {c for _, c in calls} == {10, 40, 160, 640, 2560}
        assert count[0] == 0


class TestFullRowSelection:
    """The (distance, index) ranking of the rows that no candidates below N certify."""

    def test_select_k_matches_lexsort_every_k(self):
        # Few distinct values: most rows tie across the k-th place, often in
        # more than 16 columns, where an unstable sort would reorder them.
        rng = np.random.default_rng(30)
        for _ in range(12):
            n_rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 120))
            d2 = rng.integers(0, int(rng.integers(1, 5)), (n_rows, n)).astype(float)
            oracle = np.lexsort((np.broadcast_to(np.arange(n), d2.shape), d2))
            for k in range(1, n + 1):
                idx, dist = mvcca.neighbors._select_k(d2, k)
                np.testing.assert_array_equal(idx, oracle[:, :k])
                np.testing.assert_array_equal(dist, np.take_along_axis(d2, oracle[:, :k], axis=1))

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_far_queries_every_k(self, monkeypatch, k):
        # A query beyond the scaled frame always takes the full-row ranking,
        # k = N included, and is screened at most once, since no wider screen
        # certifies it; the reference repeats points, so distances tie.
        rng = np.random.default_rng(31)
        P = 1e-300 * rng.integers(0, 3, (40, 2)).astype(float)
        queries = np.array([[1e10, 0.0], [0.0, -1e10], [1e10, 1e10]])
        calls, count = _screened(monkeypatch), _fallback_counter(monkeypatch)
        res = knn_search(P, queries, k)
        assert count[0] == 3 and calls == ([(3, 2 * k)] if 2 * k < 40 else [])
        idx, dist = brute_force(P, queries, k)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)


class TestOracleForcedTree(TestOracle):
    """The oracle cases through the kd-tree, forced on every reference."""

    path = "tree"


class TestGroupedSelectionSmallTiles(TestGroupedSelection):
    """Lattice ties, midpoint queries and tail columns through the kd-tree."""

    path = "tree"

    @small_integer_cases
    def test_small_integer_coordinates_property(
        self, n, dim, span, k, n_query, self_join, seed
    ):
        assert_small_integer_case(n, dim, span, k, n_query, self_join, seed)


class TestFloat32ScreenSmallTiles(TestFloat32Screen):
    """Sub-float32 separations, extreme scales and far queries through the kd-tree."""

    path = "tree"

    @pytest.mark.parametrize("budget", [7, 3 * 1200 * 2])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_small_full_row_chunks_bit_identical(self, monkeypatch, budget, self_join):
        # Budgets of 7 and 7,200 coordinates cut tree calls to 1 row and leave the
        # 8-row blocks whole (budget / (c D) rows, c = 16); both give the bulk result.
        P = self.sub_float32_cluster()
        queries = queries_of(P, self_join, 400)
        whole = knn_search(P, queries, 15)
        monkeypatch.setattr(mvcca.neighbors, "_DIRECT_ELEMS", budget)
        calls = _tree_queries(monkeypatch)
        chunked = knn_search(P, queries, 15)
        assert max(rows for rows, _ in calls) == min(8, max(1, budget // 32))
        np.testing.assert_array_equal(chunked.indices, whole.indices)
        np.testing.assert_array_equal(chunked.distances, whole.distances)


class TestKnnReferenceSmallTiles(TestKnnReference):
    """Prepared references through the kd-tree."""

    path = "tree"


def _scaled_members(reference):
    """The reference rows in the scaled frame of the keys (float64)."""
    return (reference.points * reference.scales[0] - reference.origin) * -reference.scales[1]


class TestEngineChoice:
    """The choice between kd-tree and float32 screen, and the screen's preparation."""

    def test_chunked_preparation_equals_one_shot(self, monkeypatch):
        monkeypatch.setattr(mvcca.neighbors, "_use_tree", lambda reference: False)
        rng = np.random.default_rng(42)
        P = np.vstack([rng.standard_normal((2500, 3)), 1e-9 * rng.standard_normal((500, 3))])
        one_shot = KnnReference(P)
        for rows in (200, 1):
            with monkeypatch.context() as patch:
                patch.setattr(mvcca.neighbors, "_PREP_ROWS", rows)
                chunked = KnnReference(P)
            for name in ("keys", "origin"):
                np.testing.assert_array_equal(getattr(chunked, name), getattr(one_shot, name))
            for name in ("scales", "exp", "err_key", "err_pt"):
                assert getattr(chunked, name) == getattr(one_shot, name)

    def test_untiled_reference_keeps_input_order(self):
        # A screened reference (a Gaussian D = 10 sample reads a doubling
        # dimension of about 8) builds no tree, and its keys are the float32
        # scaled points in input order, padded with infinite keys.
        P = np.random.default_rng(45).standard_normal((3000, 10))
        ref = KnnReference(P)
        assert ref.tree is None
        keys = _scaled_members(ref).T.astype(np.float32)
        np.testing.assert_array_equal(ref.keys[:10, : len(P)], keys)
        assert ref.keys.shape[1] % 16 == 0 and np.all(ref.keys[10, len(P) :] == np.inf)
        # The scaled points lie within the unit ball.
        assert mvcca.neighbors._sq_norms(_scaled_members(ref)).max() < 1.0

    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("view", ["X", "Y"])
    def test_small_spirals_are_tree_backed(self, n, view):
        # Spiral views read a doubling dimension below 2, against a crossover
        # of 3.7 at N = 1,000 and 4.2 at N = 2,000.
        for seed in range(10):
            assert KnnReference(getattr(mvcca.gen_spiral_pair(n, seed=seed), view)).tree is not None

    @pytest.mark.parametrize(
        "kind,dim,n,tree",
        [
            ("normal", 5, 20000, True),
            ("normal", 6, 20000, True),
            ("uniform", 7, 20000, True),
            ("normal", 7, 20000, False),
            ("normal", 8, 50000, False),
        ],
    )
    def test_engine_follows_doubling_dimension(self, kind, dim, n, tree):
        # The engine that was faster in a self-join at k = 15.  Over 5 draws
        # each median lies at least 0.15 from the crossover, 0.5 log2 N - 1.3
        # (5.84 at N = 20,000, 6.5 at N = 50,000).
        rng = np.random.default_rng(52)
        P = rng.standard_normal((n, dim)) if kind == "normal" else rng.uniform(size=(n, dim))
        assert (KnnReference(P).tree is not None) == tree

    def test_small_references_are_screened(self):
        P = mvcca.gen_spiral_pair(513, seed=53).X
        assert KnnReference(P[:512]).tree is None
        assert KnnReference(P).tree is not None

    @pytest.mark.parametrize("data", ["lattice_with_copies", "rounded"])
    def test_duplicates_choose_without_warnings(self, data):
        # Zero distances to the 4th and 32nd sampled neighbours read as dimension 0.
        if data == "rounded":
            P = np.round(np.random.default_rng(54).standard_normal((3000, 3)))
        else:
            P = lattice_with_copies()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert KnnReference(P).tree is not None

    @pytest.mark.parametrize(
        "data",
        [
            "spiral", "gauss3", "gauss10", "lattice", "sorted_1d", "midpoint_lattice",
            "sub_float32", "subnormal", "offset", "tail",
        ],
    )
    def test_tiling_leaves_results_unchanged(self, monkeypatch, data):
        # The kd-tree and the float32 screen, each forced on the oracle sets,
        # give the same indices and distances bit for bit.
        rng = np.random.default_rng(46)
        P = {
            "spiral": lambda: mvcca.gen_spiral_pair(1500, seed=47).X,
            "gauss3": lambda: rng.standard_normal((1500, 3)),
            "gauss10": lambda: rng.standard_normal((1500, 10)),
            "lattice": lambda: rng.integers(0, 20, (1500, 2)).astype(float),
            "sorted_1d": lambda: np.sort(rng.integers(0, 3000, 1500)).astype(float)[:, None],
            "midpoint_lattice": lambda: rng.integers(0, 5, (1000, 2)).astype(float),
            "sub_float32": TestFloat32Screen.sub_float32_cluster,
            "subnormal": lambda: rng.integers(1, 50, (600, 2)).astype(float) * 2.0**-537,
            "offset": lambda: 1e8 + rng.standard_normal((1200, 3)),
            "tail": lambda: rng.integers(0, 9, (527, 2)).astype(float),
        }[data]()
        queries = np.vstack([P, queries_of(P, self_join=False)])
        results = []
        for tree in (True, False):
            with monkeypatch.context() as patch:
                patch.setattr(mvcca.neighbors, "_use_tree", lambda reference: tree)
                ref = KnnReference(P)
                calls = _screened(patch)
                results.append(knn_search(ref, queries, 15))
            assert (ref.tree is not None) == tree and bool(calls) != tree
        np.testing.assert_array_equal(results[0].indices, results[1].indices)
        np.testing.assert_array_equal(results[0].distances, results[1].distances)

    @pytest.mark.parametrize("scale,offset", [(1e25, 0.0), (1e-25, 0.0), (1.0, 1e8)])
    def test_extreme_scales_and_far_queries(self, scale, offset):
        spiral = mvcca.gen_spiral_pair(1500, seed=44).X
        P = offset + scale * spiral
        assert KnnReference(P).tree is not None
        assert_matches_oracle(P, 15, self_join=False)
        queries = offset + scale * np.vstack([spiral[:300] + 0.01, [[1e6, 0.0]], [[0.0, -1e30]]])
        res = knn_search(P, queries, 15)
        idx, dist = brute_force(P, queries, 15)
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

    def test_queries_whose_distances_overflow(self, monkeypatch):
        # A squared distance beyond the float64 range is inf, and the tree
        # reports no neighbour there; that certifies nothing, so such a row
        # ends in full rows, where every distance is inf and the index decides.
        P = 1e150 * mvcca.gen_spiral_pair(1500, seed=44).X
        assert KnnReference(P).tree is not None
        queries = np.vstack([P[:50], [[1e156, 0.0], [0.0, -1e180]]])
        calls = _tree_queries(monkeypatch)
        with np.errstate(over="ignore"):
            res = knn_search(P, queries, 15)
            idx, dist = brute_force(P, queries, 15)
        # No wider tree query certifies an overflowing row: each is queried once.
        assert np.isinf(dist[-2:]).all() and calls == [(52, 16)]
        np.testing.assert_array_equal(res.indices, idx)
        np.testing.assert_array_equal(res.distances, dist)

    @pytest.mark.parametrize("self_join", [True, False])
    def test_uncertified_rows_widen_to_full_rows(self, monkeypatch, self_join):
        # On a lattice of 3 copies of each site many rows tie across the
        # (k + 1)-th tree neighbour, so the tree cannot certify them: they are
        # re-queried with 4 times the neighbours.  The 2,003 copies of one
        # site tie beyond 1,536 neighbours, so their rows are ranked over
        # full rows.
        monkeypatch.setattr(mvcca.neighbors, "_use_tree", lambda reference: True)
        calls, count = _tree_queries(monkeypatch), _fallback_counter(monkeypatch)
        assert_matches_oracle(lattice_with_copies(), 5, self_join)
        assert {k for _, k in calls} == {6, 24, 96, 384, 1536}
        assert count[0] >= 2000


@pytest.fixture(scope="module")
def benchmark_views():
    """Training views at the benchmark's shapes: spiral N=10000 D=2, Gaussian N=20000 D=50,
    and a Gaussian N=20000 D=10 view."""
    spiral = mvcca.gen_spiral_pair(10000, seed=23)
    gauss = mvcca.gen_gaussian_pair(20000, np.linspace(0.9, 0.1, 50), seed=23)
    gauss10 = mvcca.gen_gaussian_pair(20000, np.linspace(0.9, 0.1, 10), seed=23)
    return {
        "spiral-x": spiral.X,
        "spiral-y": spiral.Y,
        "gauss50-x": gauss.X,
        "gauss50-y": gauss.Y,
        "gauss10-x": gauss10.X,
    }


class TestBenchmarkShapes:
    @pytest.mark.parametrize("view", ["spiral-x", "spiral-y", "gauss50-x", "gauss50-y"])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_no_fallback_rows(self, benchmark_views, monkeypatch, view, self_join):
        P = benchmark_views[view]
        count = _fallback_counter(monkeypatch)
        queries = queries_of(P, self_join, 2000)
        res = knn_search(P, queries, 15)
        assert count[0] == 0
        idx, dist = brute_force(P, queries[:40], 15)
        np.testing.assert_array_equal(res.indices[:40], idx)
        np.testing.assert_array_equal(res.distances[:40], dist)

    @pytest.mark.parametrize("view", ["spiral-x", "gauss50-y"])
    def test_batch_independent(self, benchmark_views, view):
        # Distances depend only on the two points, so every slice of a bulk
        # call, at any offset, must equal the bulk bit for bit.
        P = benchmark_views[view]
        prepared = KnnReference(P)
        queries = P[:512] + 0.01 * np.random.default_rng(24).standard_normal((512, P.shape[1]))
        bulk = knn_search(prepared, queries, 15)
        for size in (1, 3, 16):
            for start in range(0, 512, size):
                part = knn_search(prepared, queries[start : start + size], 15)
                np.testing.assert_array_equal(part.indices, bulk.indices[start : start + size])
                np.testing.assert_array_equal(part.distances, bulk.distances[start : start + size])

    @pytest.mark.parametrize("view", ["spiral-x", "spiral-y"])
    def test_pruning_engages_on_spiral(self, benchmark_views, monkeypatch, view):
        # A spiral view is searched through the kd-tree, which certifies
        # almost every row of a self-join from its first k + 1 neighbours.
        P = benchmark_views[view]
        calls, count = _tree_queries(monkeypatch), _fallback_counter(monkeypatch)
        prepared = KnnReference(P)
        assert prepared.tree is not None
        res = knn_search(prepared, P, 15)
        assert count[0] == 0
        assert sum(rows for rows, k in calls if k == 16) == len(P)
        assert sum(rows for rows, k in calls if k > 16) < 0.01 * len(P)
        idx, dist = brute_force(P, P[:40], 15)
        np.testing.assert_array_equal(res.indices[:40], idx)
        np.testing.assert_array_equal(res.distances[:40], dist)

    @pytest.mark.parametrize("view", ["gauss50-x", "gauss50-y", "gauss10-x"])
    def test_gaussian_views_are_screened(self, benchmark_views, monkeypatch, view):
        # Gaussian views at D >= 10 lack locality: they build no tree, and
        # every block is screened in float32.
        P = benchmark_views[view]
        prepared = KnnReference(P)
        assert prepared.tree is None
        calls = _screened(monkeypatch)
        knn_search(prepared, P[:1000], 15)
        assert calls and all(c == 30 for _, c in calls)
        assert sum(rows for rows, _ in calls) == 1000

    @pytest.mark.parametrize("view", ["spiral-x", "spiral-y"])
    def test_batch_independent_with_pruning(self, benchmark_views, view):
        P = benchmark_views[view]
        prepared = KnnReference(P)
        assert prepared.tree is not None
        queries = P[:3000] + 0.01 * np.random.default_rng(27).standard_normal((3000, 2))
        bulk = knn_search(prepared, queries, 15)
        for size in (1, 16, 256):
            parts = [knn_search(prepared, queries[a : a + size], 15) for a in range(0, 3000, size)]
            np.testing.assert_array_equal(np.vstack([p.indices for p in parts]), bulk.indices)
            np.testing.assert_array_equal(np.vstack([p.distances for p in parts]), bulk.distances)

    def test_ncca_stream_equals_bulk(self):
        train, test = mvcca.gen_spiral_pair(3000, seed=25), mvcca.gen_spiral_pair(300, seed=26)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mvcca.ConstantComponentWarning)
            model = mvcca.ncca_fit(train.X, train.Y, mvcca.NccaConfig(L=2))
        bulk = mvcca.ncca_project_x(model, test.X)
        for size in (1, 3, 16):
            stream = np.vstack(
                [mvcca.ncca_project_x(model, test.X[a : a + size]) for a in range(0, 300, size)]
            )
            np.testing.assert_array_equal(stream, bulk)


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            knn_search(np.zeros((5, 2)), np.zeros((3, 3)), 2)

    def test_non_finite_rejected(self):
        P = np.zeros((4, 2))
        Q = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            knn_search(P, Q, 2)
