"""Evaluation of paired projections.

The headline metric is the total canonical correlation: fit one more linear
CCA on the two projection blocks and sum its correlations.  This is
invariant to invertible affine maps of either block, so methods are
compared on recovered common structure rather than on parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cca import cca_fit

__all__ = ["EvalReport", "total_correlation", "pearson"]


@dataclass
class EvalReport:
    total_correlation: float
    per_component: np.ndarray
    L: int
    n_test: int

    def lines(self):
        """Key-value text form, one ``key=value`` per line."""
        out = [
            f"total_correlation={self.total_correlation:.12g}",
            f"components={self.L}",
            f"n_test={self.n_test}",
        ]
        for i, c in enumerate(self.per_component, start=1):
            out.append(f"correlation_{i}={c:.12g}")
        return out


def total_correlation(P1, P2, L_eval=None, ridge=None):
    """Total canonical correlation between two paired projection blocks.

    Fits a linear CCA with ``L_eval`` components (default: the largest
    possible) on the aligned rows of P1 and P2 and reports the sum and the
    per-component correlations.  A 1-D block is one column, one sample per entry.
    """
    P1, P2 = (np.asarray(P, dtype=np.float64) for P in (P1, P2))
    P1, P2 = (P.reshape(-1, 1) if P.ndim < 2 else P for P in (P1, P2))
    if P1.shape[0] != P2.shape[0]:
        raise ValueError(f"projection blocks are not aligned: {P1.shape[0]} vs {P2.shape[0]} rows")
    if P1.shape[0] < 2:
        raise ValueError("at least 2 samples are required")
    max_l = min(P1.shape[1], P2.shape[1])
    if L_eval is None:
        L_eval = max_l
    if not (1 <= L_eval <= max_l):
        raise ValueError(f"L_eval={L_eval} out of range (1..{max_l})")
    model = cca_fit(P1, P2, L_eval, ridge=ridge)
    return EvalReport(
        total_correlation=float(model.correlations.sum()),
        per_component=model.correlations.copy(),
        L=L_eval,
        n_test=P1.shape[0],
    )


def pearson(a, b):
    """Sample Pearson correlation of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("at least 2 samples are required")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac @ ac) * (bc @ bc))
    if denom == 0.0:
        raise ValueError("zero variance input")
    return float(np.clip(ac @ bc / denom, -1.0, 1.0))
