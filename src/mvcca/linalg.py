"""Dense and sparse linear algebra primitives.

Symmetric eigendecomposition, PSD inverse square root, dense SVD, truncated
SVD of sparse matrices or products of sparse factors (ARPACK Lanczos on the
Gram operator, then one Rayleigh-Ritz step), sparse-sparse products, and
PCA.  Everything is float64; spectral outputs follow a fixed sign convention
(largest-magnitude entry of each left vector is positive) so results are
deterministic and directly comparable across code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.sparse is imported by the functions that take sparse input, not
# here: it costs about 0.15 s per process, and the dense routines (CCA,
# PLCCA, PCA) need none of it.

__all__ = [
    "SvdResult",
    "NumericalError",
    "sym_eig",
    "inv_sqrt_psd",
    "dense_svd",
    "truncated_svd",
    "spgemm",
    "pca_fit",
    "pca_apply",
]

# Entries below this magnitude are treated as structural zeros in sparse output.
DROP_TOL = 1e-300


class NumericalError(RuntimeError):
    """Numerical failure: non-convergence, indefiniteness, degenerate spectrum."""


@dataclass
class SvdResult:
    """Singular triplets: ``U @ diag(s) @ V.T`` approximates the input.

    U has shape (rows, r), s is non-increasing and nonnegative with length r,
    V has shape (cols, r).  Columns of U and V are orthonormal.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def _check_matrix(M, name="matrix"):
    """``M`` as C-contiguous float64, copied only if needed; ValueError unless 2-D and finite."""
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _fix_signs(U, V=None):
    """Flip column signs so the largest-magnitude entry of each U column is positive.

    V's columns, when given, are flipped together with U's.
    """
    flip = np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    flip[flip == 0] = 1.0
    U = U * flip
    if V is not None:
        V = V * flip
        return U, V
    return U


def sym_eig(M):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (M + M.T)/2 before factorization.  Returns
    ``(eigenvalues, eigenvectors)`` with orthonormal eigenvector columns and
    the standard sign convention applied.
    """
    M = _check_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"sym_eig requires a square matrix, got {M.shape}")
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    w = w[::-1].copy()
    V = V[:, ::-1]
    return w, _fix_signs(np.ascontiguousarray(V))


def inv_sqrt_psd(M):
    """Inverse square root of a symmetric PSD matrix.

    Computes ``V diag(max(lam, 1e-10 lam_max))^{-1/2} V.T``.  The floor
    keeps near-singular directions bounded instead of exploding them.

    Raises
    ------
    NumericalError
        If any eigenvalue is below ``-1e-8 * lam_max`` (not PSD), or the
        floored spectrum is not strictly positive.
    """
    w, V = sym_eig(M)
    lam_max = w[0] if w.size else 0.0
    if np.any(w < -1e-8 * max(lam_max, 0.0)):
        raise NumericalError(
            f"matrix is not positive semidefinite (min eigenvalue {w[-1]:.3e})"
        )
    w = np.maximum(w, 1e-10 * lam_max)
    if np.any(w <= 0.0):
        raise NumericalError("floored spectrum is not positive; matrix is zero or floor too small")
    return (V / np.sqrt(w)) @ V.T


def dense_svd(M):
    """Full SVD of a dense matrix as an :class:`SvdResult`.

    All min(rows, cols) triplets are returned, with the sign convention
    applied.  Serves as the exact oracle for :func:`truncated_svd`.
    """
    M = _check_matrix(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U, V = _fix_signs(U, Vt.T)
    return SvdResult(U=U, s=s, V=V)


def truncated_svd(A, r, seed=0, rtol=1e-6):
    """Top-r singular triplets of a sparse operator by Lanczos on its Gram operator.

    ``A`` is a sparse matrix or a list/tuple of sparse factors
    ``(A1, ..., Ak)`` standing for their product, which is never formed:
    ``A @ Q`` is applied right to left as ``A1 @ (... @ (Ak @ Q))`` and
    ``A.T @ Q`` as ``Ak.T @ (... @ (A1.T @ Q))``.  A single matrix is the
    one-factor case of the same code path.

    ARPACK's implicitly restarted Lanczos (``eigsh``) finds the top r
    eigenvectors V of ``v -> A.T @ (A @ v)``; its start vector and restart
    vectors come from one generator seeded with ``seed``, so a call is
    deterministic.  One Rayleigh-Ritz step, the SVD of ``A @ V``, then gives
    U, s and the rotated V, which stays accurate when r exceeds the rank of
    ``A``.  When ARPACK cannot run (r >= cols - 1), the product is formed and
    decomposed densely.  Every returned triplet must satisfy
    ``|A.T u_i - s_i v_i| <= rtol * s_1``.

    Raises
    ------
    NumericalError
        If ARPACK fails or does not converge (a zero operator, for one), or
        the residual exceeds the tolerance.
    """
    import scipy.sparse as sp

    factors = [
        sp.csr_matrix(M, dtype=np.float64) for M in (A if isinstance(A, (list, tuple)) else [A])
    ]
    for left, right in zip(factors, factors[1:]):
        if left.shape[1] != right.shape[0]:
            raise ValueError(f"dimension mismatch for product: {left.shape} x {right.shape}")
    n_rows, n_cols = factors[0].shape[0], factors[-1].shape[1]
    if not (1 <= r <= min(n_rows, n_cols)):
        raise ValueError(f"rank r={r} out of range for shape {(n_rows, n_cols)}")
    # CSC views of the transposes: their products add each output's terms in
    # the order a CSR copy would, without the copy.
    transposed = [M.T for M in factors]

    def apply(Q):
        for M in reversed(factors):
            Q = M @ Q
        return Q

    def apply_t(Q):
        for Mt in transposed:
            Q = Mt @ Q
        return Q

    if r >= n_cols - 1:
        full = dense_svd(apply(np.eye(n_cols)))
        U, s, V = full.U[:, :r], full.s[:r], full.V[:, :r]
    else:
        # Loaded here only, like scipy.sparse above: it costs another
        # 0.1 s per process, and nothing else in the package needs it.
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        rng = np.random.default_rng(seed)
        gram = LinearOperator((n_cols, n_cols), lambda v: apply_t(apply(v)), dtype=np.float64)
        try:
            _, V = eigsh(gram, k=r, tol=1e-13, v0=rng.standard_normal(n_cols), rng=rng)
        except ArpackError as exc:  # ArpackNoConvergence included
            raise NumericalError(f"truncated_svd: ARPACK failed: {exc}") from None
        U, s, Wt = np.linalg.svd(apply(V), full_matrices=False)
        V = V @ Wt.T

    resid = np.linalg.norm(apply_t(U) - V * s, axis=0)
    if not np.all(resid <= rtol * max(s[0], np.finfo(np.float64).tiny)):
        raise NumericalError(
            f"truncated_svd residual {resid.max():.3e} exceeds {rtol:g} * s1 (s1 {s[0]:.3e})"
        )
    U, V = _fix_signs(U, V)
    return SvdResult(U=np.ascontiguousarray(U), s=s.copy(), V=np.ascontiguousarray(V))


def spgemm(A, B):
    """Sparse-sparse product returning CSR with sorted, deduplicated columns.

    Entries with magnitude below 1e-300 are dropped as structural zeros.
    """
    import scipy.sparse as sp

    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"dimension mismatch for product: {A.shape} x {B.shape}")
    C = (A @ B).tocsr()
    C.data[np.abs(C.data) < DROP_TOL] = 0.0
    C.eliminate_zeros()
    C.sort_indices()
    return C


def pca_fit(X, d):
    """Fit a rank-d PCA: returns (mean, basis) with orthonormal basis columns.

    The basis holds the top-d right singular vectors of the centered data,
    ordered by decreasing explained variance.
    """
    X = _check_matrix(X, "X")
    n, dim = X.shape
    if not (1 <= d <= min(n, dim)):
        raise ValueError(f"PCA dimension d={d} out of range for data {X.shape}")
    mean = X.mean(axis=0)
    _, _, Vt = np.linalg.svd(X - mean, full_matrices=False)
    basis = _fix_signs(Vt[:d].T)
    return mean, np.ascontiguousarray(basis)


def pca_apply(mean, basis, X):
    """Project rows of X onto a fitted PCA basis: ``(X - mean) @ basis``, row by row."""
    X = _check_matrix(X, "X")
    mean = np.asarray(mean, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    d = basis.shape[0]
    if mean.shape[-1] != d:
        raise ValueError(f"dimension mismatch: mean has {mean.shape[-1]} entries, basis expects {d}")
    if X.shape[1] != d:
        raise ValueError(f"dimension mismatch: data has {X.shape[1]} columns, basis expects {d}")
    return _centred_product(X, mean, basis)


def _prepare_queries(data, expect_dim, pca_map, name):
    """``data`` as 2-D float64 rows (PCA-reduced by ``pca_map``) and whether it was one row.

    Raises ``ValueError``, naming the view ``name``, unless the rows are finite.
    """
    data = np.asarray(data, dtype=np.float64)
    single = data.ndim == 1
    data = _check_matrix(np.atleast_2d(data), name)
    if data.shape[1] != expect_dim:
        raise ValueError(f"expected {expect_dim} columns, got {data.shape[1]}")
    if pca_map is not None:
        data = pca_apply(pca_map[0], pca_map[1], data)
    return data, single


def _centred_product(X, mean, M):
    """``(X - mean) @ M``, each row bit-identical alone or in any batch.

    A GEMM rounds a row differently with the number of rows it is given.
    This einsum (that of ``affinity._nystrom_project``) adds one coordinate's
    term at a time to every output of a row, in one order for any batch of
    C-ordered rows.
    """
    # C order: on Fortran-ordered rows the einsum may sum in another order.
    Xc = np.subtract(X, mean, order="C")
    return np.einsum("qk,qkd->qd", Xc, np.broadcast_to(M, Xc.shape + M.shape[1:]))
