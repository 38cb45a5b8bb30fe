"""Dense matrix kernels: orthonormalization and a stable pseudoinverse.

Conventions used throughout the library:

* dense matrices are ``numpy.ndarray`` of dtype float64 in C (row-major)
  storage order;
* sparse matrices are ``scipy.sparse.csc_array`` in canonical form
  (sorted row indices, no duplicates);
* the relative cutoff for every rank decision is the single constant
  ``RANK_RTOL``, taken relative to a Frobenius norm that neither overflows
  nor underflows at any scale of the input;
* :func:`orth` factors an input taller than one leaf of ``QR_LEAF_ROWS``
  rows (``2 n`` for an ``n``-column input, if that is more) as a
  tall-skinny QR over near-equal leaves of at most that height, so beyond
  its output ``Q`` it needs a few leaves of memory. An input of at most
  one leaf is one Householder QR. The leaf height is a constant of its
  own, not an option and not tied to ``BLOCK_ENTRIES``, so a basis keeps
  its bits whatever the block size of the other passes;
* :func:`pinv` forms the ``n x k`` pseudoinverse of a ``k x n`` ``B`` by
  QR or, for a rank-deficient ``B``, SVD, and says which; a caller's
  ``X @ pinv(B)`` is then one product;
* this module and the samplers, with the block sampler's QR, run on
  numpy's BLAS and LAPACK only. numpy and scipy each bundle their own
  OpenBLAS, whose idle worker threads spin for about 0.1 s after a
  threaded call; on a two-core machine a threaded call into the other
  library meanwhile runs several times slower, which a ``W`` built right
  after the sampler would pay.
"""

import math

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, EmptyMatrixError, InvalidParamError

RANK_RTOL = 1e-12
BLOCK_ENTRIES = 2**21  # float64 entries in one block of a blocked pass: 16 MB
QR_LEAF_ROWS = 4096  # rows of one leaf of orth's tall-skinny QR
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


def _even_blocks(m, block_rows):
    """``(lo, hi)`` ranges splitting ``m`` rows into the fewest near-equal
    blocks of at most ``block_rows`` rows; when there are several, each
    has at least ``block_rows // 2``."""
    count = -(-m // block_rows)
    for i in range(count):
        yield m * i // count, m * (i + 1) // count


def _row_blocks(A, block_rows):
    """``(lo, hi)`` ranges of at most ``block_rows`` rows of ``A``; for
    sparse (CSR) ``A`` also of at most ``BLOCK_ENTRIES`` stored entries,
    unless one row alone holds more."""
    m = A.shape[0]
    lo = 0
    while lo < m:
        hi = min(lo + block_rows, m)
        if sp.issparse(A):
            end = A.indptr[lo] + BLOCK_ENTRIES
            hi = min(hi, max(lo + 1, int(np.searchsorted(A.indptr, end, "right")) - 1))
        yield lo, hi
        lo = hi


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

    A ``B`` taller than one leaf, ``max(QR_LEAF_ROWS, 2 n)`` rows, is
    factored as a tall-skinny QR (see :func:`_tsqr`), so beyond ``Q`` it
    needs a few leaves of memory, where one QR of all of ``B`` needs two
    more ``m x n`` arrays. A ``B`` of at most one leaf is that one QR.

    Parameters
    ----------
    B : (m, n) ndarray, m >= n; never written

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
    Q, R = _tsqr(B, max(QR_LEAF_ROWS, 2 * n))
    rank = int(np.count_nonzero(np.linalg.svd(R, compute_uv=False) > tol))
    if rank < n:
        Q = Q @ np.linalg.svd(R)[0][:, :rank]
    return np.ascontiguousarray(Q)


def _householder(X):
    """Householder QR ``X = (I - V T V^T)[:, :n] R`` of ``X`` (rows >= n
    cols): ``V`` the unit lower trapezoid of reflectors, in a new array,
    ``T`` upper triangular, from the recurrence of LAPACK's dlarft, which
    numpy does not expose. It factors :func:`orth`'s TSQR leaves and each
    block the rejection sampler's ``HouseholderQR`` absorbs."""
    n = X.shape[1]
    h, tau = np.linalg.qr(X, mode="raw")
    V = h.T  # R on and above the diagonal, the reflectors' tails below
    R = np.triu(V[:n])
    V[:n] -= R  # exact zeros on and above the diagonal
    np.fill_diagonal(V, 1.0)
    G = V.T @ V
    T = np.zeros((n, n))
    for j, t in enumerate(tau.tolist()):
        T[:j, j] = -t * (T[:j, :j] @ G[:j, j])
        T[j, j] = t
    return V, T, R


def _tsqr(B, leaf):
    """``(Q, R)`` with ``B = Q R``, ``Q`` (m x n) explicit and C-order.

    A ``B`` of at most ``leaf`` rows is one Householder QR. A taller one is
    split into near-equal leaves of at most ``leaf`` rows (and at least
    ``leaf / 2 >= n``), each factored alone, its reflectors kept in its
    rows of ``Q``; the stacked ``R`` of the leaves is factored by this
    same function, ``[R_1; R_2; ...] = Qhat R``, and each leaf's rows of
    ``Q`` become ``(I - V T V^T)[:, :n] Qhat_i`` in place: the
    sequential TSQR of Demmel, Grigori, Hoemmen and Langou (2012).
    """
    m, n = B.shape
    if m <= leaf:
        V, T, R = _householder(B)
        Q = V @ (T @ V[:n].T)
        np.negative(Q, out=Q)
        Q[:n] += np.eye(n)
        return Q, R
    leaves = list(_even_blocks(m, leaf))
    Q = np.empty((m, n))
    Ts, Rs = [], []
    for lo, hi in leaves:
        V, T, R = _householder(B[lo:hi])
        Q[lo:hi] = V  # until the leaf's rows of Q replace its reflectors
        Ts.append(T)
        Rs.append(R)
    Qhat, R = _tsqr(np.vstack(Rs), leaf)
    for (lo, hi), T, Qh in zip(leaves, Ts, np.split(Qhat, len(leaves))):
        V = Q[lo:hi]
        np.negative(V @ (T @ (V[:n].T @ Qh)), out=V)
        V[:n] += Qh
    return Q, R


def pinv(B):
    """``(P, fallback)``: the ``n x k`` pseudoinverse ``P`` of a ``k x n``
    ``B`` (k <= n), so that ``X @ P`` is ``X @ pinv(B)`` in one product.

    Never forms normal equations. When every diagonal entry of ``R_b`` in
    the QR ``B^T = Q_b R_b`` clears ``RANK_RTOL * ||B||_F``, ``P`` is
    ``Q_b R_b^{-T}``, ``Q_b`` times the inverse of the triangular ``R_b``
    (whose LU makes no row swaps), and ``fallback`` is False. Otherwise
    ``B`` is numerically row rank deficient, ``P`` comes from a truncated
    SVD with singular values below ``RANK_RTOL`` times the largest taken
    as zero, and ``fallback`` is True.
    """
    B = _as_matrix(B, "B")
    kb, n = B.shape
    if kb > n:
        raise DimensionMismatchError(f"B must have rows <= cols, got {kb}x{n}")
    Qb, Rb = np.linalg.qr(B.T)
    if kb == 0 or np.abs(np.diag(Rb)).min() <= RANK_RTOL * vector_norm(B.ravel(order="K")):
        return np.linalg.pinv(B, rcond=RANK_RTOL), True
    return Qb @ np.linalg.inv(Rb).T, False
