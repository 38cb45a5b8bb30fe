"""Dense matrix kernels: orthonormalization, leverage scores, and stable
pseudoinverse application.

Conventions used throughout the library:

* dense matrices are ``numpy.ndarray`` of dtype float64 in C (row-major)
  storage order;
* sparse matrices are ``scipy.sparse.csc_array`` in canonical form
  (sorted row indices, no duplicates);
* the relative cutoff for every rank decision is the single constant
  ``RANK_RTOL``, taken relative to a Frobenius norm that neither overflows
  nor underflows at any scale of the input;
* :func:`orth` and the samplers, with the block sampler's QR, run on
  numpy's BLAS and LAPACK. numpy and scipy each bundle their own OpenBLAS,
  whose idle worker threads spin for about 0.1 s after a threaded call; on
  a two-core machine a threaded call into the other library meanwhile runs
  several times slower, which a sampler called right after ``orth`` would
  pay.
"""

import math

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    InvalidParamError,
    RankDeficientError,
)

RANK_RTOL = 1e-12
BLOCK_ENTRIES = 2**21  # float64 entries in one block of a blocked pass: 16 MB
SCALE_FREE_EXP = 256  # norms leave max|x| in [2**-256, 2**256] unscaled


def _scale_exponent(x):
    """Exponent ``e`` of ``max|x|`` when that lies outside
    ``[2**-SCALE_FREE_EXP, 2**SCALE_FREE_EXP]``, else 0.

    Dividing by ``2**e`` keeps sums of squares clear of overflow and
    underflow. It is exact, and inputs inside the window are not scaled at
    all, so their results keep their bits.
    """
    if not x.size:
        return 0
    e = math.frexp(max(float(x.max()), -float(x.min())))[1]
    return e if abs(e) > SCALE_FREE_EXP else 0


def _scaled(x, e):
    return np.ldexp(x, -e) if e else x


def _unscaled_root(sumsq, e):
    """``sqrt(sumsq) * 2**e``; inf, not an error, past the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(sumsq), e))


def vector_norm(x):
    """Euclidean norm of the 1-D float64 array ``x``, free of overflow and
    underflow. Inside the unscaled window it equals ``np.linalg.norm(x)``
    bit for bit."""
    e = _scale_exponent(x)
    x = _scaled(x, e)
    return _unscaled_root(float(x.dot(x)), e)


def _canonical(A, array_type):
    """Sparse ``A`` as ``array_type`` with sorted, duplicate-free indices.
    ``A`` itself is never modified: duplicates are summed in a copy."""
    A = array_type(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def orth(B):
    """Orthonormal basis for the range of ``B``.

    Householder QR ``B = Q R``; the numerical rank is the number of
    singular values of ``R``, which are those of ``B``, above
    ``RANK_RTOL * ||B||_F``. The norm is scale-safe, so the rank of ``B``
    and of ``2**j * B`` agree. If ``B`` is numerically rank deficient, the
    basis is narrower than ``B``: its leading left singular vectors.

    Parameters
    ----------
    B : (m, n) ndarray, m >= n

    Returns
    -------
    Q : (m, r) ndarray, r <= n
        Orthonormal columns spanning range(B).

    Raises
    ------
    InvalidParamError
        ``B`` has a NaN or infinite entry, or a norm past the float range.
    """
    B = _as_matrix(B, "B")
    m, n = B.shape
    if n == 0:
        raise EmptyMatrixError("cannot orthonormalize a matrix with zero columns")
    if m < n:
        raise DimensionMismatchError(f"need rows >= cols, got {m}x{n}")
    tol = RANK_RTOL * vector_norm(B.ravel(order="K"))
    if not math.isfinite(tol):
        raise InvalidParamError(
            "B has a NaN or infinite entry, or a norm past the float range")
    h, tau = np.linalg.qr(B, mode="raw")
    F = h.T  # R on and above the diagonal, the reflectors' tails below
    R = np.triu(F[:n])
    rank = int(np.count_nonzero(np.linalg.svd(R, compute_uv=False) > tol))
    # Q = (H_1 ... H_n)[:, :n] = E - V T V[:n]^T, with T from the recurrence
    # of LAPACK's dlarft, which numpy does not expose
    V = F  # overwritten: the unit lower trapezoid of reflectors
    V[np.triu_indices(n)] = 0.0
    np.fill_diagonal(V, 1.0)
    G = V.T @ V
    T = np.zeros((n, n))
    for j, t in enumerate(tau.tolist()):
        T[:j, j] = -t * (T[:j, :j] @ G[:j, j])
        T[j, j] = t
    Q = V @ (T @ V[:n].T)
    np.negative(Q, out=Q)
    Q[:n] += np.eye(n)
    if rank < n:
        Q = Q @ np.linalg.svd(R)[0][:, :rank]
    return np.ascontiguousarray(Q)


def squared_row_norms(Q):
    """Entry ``j`` is ``||Q[j, :]||^2``.

    For ``Q`` with orthonormal columns these are the leverage scores and sum
    to the number of columns.
    """
    Q = _as_matrix(Q, "Q")
    return np.einsum("ij,ij->i", Q, Q)


def apply_pinv_right(A, B):
    """Compute ``A @ pinv(B)`` for a full-row-rank ``B`` via QR of ``B^T``.

    Never forms normal equations. ``A`` may be dense or a scipy sparse
    matrix; the result is dense.

    Parameters
    ----------
    A : (m, n) array or sparse
    B : (k, n) ndarray, k <= n

    Raises
    ------
    RankDeficientError
        B's numerical row rank is below k (an R diagonal entry of the QR of
        ``B^T`` falls below ``RANK_RTOL * ||B||_F``). The caller decides the
        fallback.
    """
    B = _as_matrix(B, "B")
    kb, n = B.shape
    if kb > n:
        raise DimensionMismatchError(f"B must have rows <= cols, got {kb}x{n}")
    if A.shape[1] != n:
        raise DimensionMismatchError(
            f"A has {A.shape[1]} columns but B has {n}"
        )
    Qb, Rb = sla.qr(B.T, mode="economic")
    diag = np.abs(np.diag(Rb))
    if kb == 0 or np.min(diag) <= RANK_RTOL * vector_norm(B.ravel(order="K")):
        raise RankDeficientError(
            "B is numerically row rank deficient; pseudoinverse via QR refused"
        )
    Y = A @ Qb
    # A B^+ = (A Q_b) R_b^{-T}; transpose to a standard triangular solve
    return np.ascontiguousarray(sla.solve_triangular(Rb, np.asarray(Y).T, lower=False).T)


def svd_pinv_apply(A, B):
    """Fallback ``A @ pinv(B)`` through a truncated SVD of ``B``.

    Singular values below ``RANK_RTOL`` times the largest are treated as
    zero. Used when :func:`apply_pinv_right` refuses a rank-deficient ``B``.
    """
    B = _as_matrix(B, "B")
    return np.asarray(A @ np.linalg.pinv(B, rcond=RANK_RTOL))
