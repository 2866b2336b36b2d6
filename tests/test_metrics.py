"""Evaluation metrics: total canonical correlation and Pearson correlation."""

import numpy as np
import pytest

from mvcca.metrics import pearson, total_correlation


class TestTotalCorrelation:
    def test_identical_blocks(self):
        rng = np.random.default_rng(0)
        P = rng.standard_normal((500, 4))
        report = total_correlation(P, P.copy(), 4, ridge=0.0)
        assert report.total_correlation == pytest.approx(4.0, abs=1e-6)
        np.testing.assert_allclose(report.per_component, 1.0, atol=1e-6)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((400, 3))
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        report = total_correlation(P, P @ R, 3, ridge=0.0)
        assert report.total_correlation == pytest.approx(3.0, abs=1e-6)

    def test_independent_blocks_near_zero(self):
        rng = np.random.default_rng(2)
        P1 = rng.standard_normal((20000, 5))
        P2 = rng.standard_normal((20000, 5))
        assert total_correlation(P1, P2, 5).total_correlation <= 0.15

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        P1 = rng.standard_normal((1000, 3))
        P2 = P1 @ rng.standard_normal((3, 3)) + rng.standard_normal((1000, 3)) * 0.5
        base = total_correlation(P1, P2, 3, ridge=0.0).total_correlation
        A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        mapped = total_correlation(P1 @ A + 1.5, P2, 3, ridge=0.0).total_correlation
        assert mapped == pytest.approx(base, abs=1e-6)

    def test_monotone_in_l_eval(self):
        rng = np.random.default_rng(4)
        P1 = rng.standard_normal((800, 4))
        P2 = 0.5 * P1 + rng.standard_normal((800, 4))
        totals = [total_correlation(P1, P2, L).total_correlation for L in (1, 2, 3, 4)]
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_report_fields_and_lines(self):
        rng = np.random.default_rng(5)
        report = total_correlation(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)), 2)
        assert report.L == 2 and report.n_test == 50
        assert 0 <= report.total_correlation <= 2 + 1e-6
        lines = report.lines()
        assert lines[0].startswith("total_correlation=")
        assert any(line.startswith("correlation_2=") for line in lines)

    def test_errors(self):
        rng = np.random.default_rng(6)
        P = rng.standard_normal((40, 2))
        with pytest.raises(ValueError):
            total_correlation(P, P[:20], 2)
        with pytest.raises(ValueError):
            total_correlation(P, P, 3)
        with pytest.raises(ValueError):
            total_correlation(P[:1], P[:1], 1)


    def test_vectors_are_one_column(self):
        # The default L_eval is the narrower block's width: 1 here.
        rng = np.random.default_rng(7)
        a = rng.standard_normal(100)
        b = a + rng.standard_normal(100)
        report = total_correlation(a, b)
        column = total_correlation(a[:, None], b[:, None])
        assert report.L == 1 and report.n_test == 100
        assert report.total_correlation == column.total_correlation
        assert report.total_correlation == pytest.approx(abs(pearson(a, b)), abs=1e-6)


class TestPearson:
    def test_affine_of_itself(self):
        a = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        assert pearson(a, 2 * a + 3) == pytest.approx(1.0)

    def test_negation(self):
        a = np.array([0.5, -1.0, 2.0, 3.0])
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        ac, bc = a - a.mean(), b - b.mean()
        expected = (ac * bc).sum() / np.sqrt((ac**2).sum() * (bc**2).sum())
        assert pearson(a, b) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(5), np.arange(5.0))

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            pearson(np.ones(1), np.ones(1))
