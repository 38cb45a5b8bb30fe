"""Dense matrix kernels: orthonormalization, appendable Householder QR,
projections, and stable pseudoinverse application.

Conventions used throughout the library:

* dense matrices are ``numpy.ndarray`` of dtype float64 in C (row-major)
  storage order;
* sparse matrices are ``scipy.sparse.csc_array`` in canonical form
  (sorted row indices, no duplicates);
* the relative cutoff for every rank decision is the single constant
  ``RANK_RTOL``, taken relative to a Frobenius norm that neither overflows
  nor underflows at any scale of the input;
* :func:`orth`, :class:`HouseholderQR` and the samplers run on numpy's BLAS
  and LAPACK. numpy and scipy each bundle their own OpenBLAS, whose idle
  worker threads spin for about 0.1 s after a threaded call; on a two-core
  machine a threaded call into the other library meanwhile runs several
  times slower, which a sampler called right after ``orth`` would pay.
"""

import math

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    InvalidParamError,
    RankDeficientError,
    RankDeficientUpdateError,
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


class HouseholderQR:
    """QR factorization of a growing set of columns in ambient dimension ``d``.

    Columns are absorbed append-only via :meth:`update`; previously stored
    reflectors are never modified. The orthogonal factor is kept implicitly
    as a compact product ``I - V T V^T`` of Householder reflectors and is
    never formed; :meth:`project_out`, :meth:`apply_qt` and :meth:`apply_q`
    apply it through matrix products with the stored blocks.

    A freshly constructed object represents the empty factorization:
    ``k_cur == 0`` and ``project_out`` is the identity.
    """

    def __init__(self, d, capacity=8):
        d = int(d)
        if d < 1:
            raise DimensionMismatchError("ambient dimension must be >= 1")
        cap = min(int(capacity), d)
        self.d = d
        self.k_cur = 0
        self._V = np.zeros((d, cap))  # unit-diagonal Householder vectors
        self._T = np.zeros((cap, cap))  # upper-triangular WY block
        self._Rfull = np.zeros((cap, cap))

    @property
    def R(self):
        """The current k_cur x k_cur upper-triangular factor (a view)."""
        k = self.k_cur
        return self._Rfull[:k, :k]

    def _ensure_capacity(self, k_new):
        cap = self._V.shape[1]
        if k_new <= cap:
            return
        new_cap = min(self.d, max(k_new, 2 * cap))
        V = np.zeros((self.d, new_cap))
        T = np.zeros((new_cap, new_cap))
        R = np.zeros((new_cap, new_cap))
        V[:, :cap] = self._V
        T[:cap, :cap] = self._T
        R[:cap, :cap] = self._Rfull
        self._V, self._T, self._Rfull = V, T, R

    def _apply_product_t(self, M):
        # (H_k ... H_1) M = M - V T^T (V^T M)
        k = self.k_cur
        V = self._V[:, :k]
        T = self._T[:k, :k]
        return M - V @ (T.T @ (V.T @ M))

    def _complement_t(self, M):
        # P^T M = _apply_product_t(M)[k:] for P = (H_1 ... H_k)[:, k:], the
        # orthonormal complement of the absorbed columns; forming P costs
        # d k (d - k) multiply-adds, so it pays once k passes about d / 2
        k = self.k_cur
        V = self._V[:, :k]
        P = -(V @ (self._T[:k, :k] @ V[k:].T))
        P[k:].flat[:: self.d - k + 1] += 1.0  # P[k:] is the identity less a product
        return P.T @ M

    def _apply_product(self, M):
        # (H_1 ... H_k) M = M - V T (V^T M)
        k = self.k_cur
        V = self._V[:, :k]
        T = self._T[:k, :k]
        return M - V @ (T @ (V.T @ M))

    def update(self, new_cols):
        """Absorb ``new_cols`` (d x a) so the factorization represents the
        concatenation of everything absorbed so far.

        Raises
        ------
        DimensionMismatchError
            Wrong row count, or more columns than the ambient dimension holds.
        RankDeficientUpdateError
            A new column is numerically in the span of the absorbed ones
            (its fresh diagonal entry is below ``RANK_RTOL`` relative to the
            column's norm), the signature of a duplicate pivot. Nothing of
            the block is absorbed then.
        """
        C = np.asarray(new_cols, dtype=np.float64)
        if C.ndim == 1:
            C = C[:, None]
        if C.ndim != 2 or C.shape[0] != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} rows, got shape {C.shape}"
            )
        a = C.shape[1]
        if a == 0:
            return
        i0 = self.k_cur
        if i0 + a > self.d:
            raise DimensionMismatchError(
                f"cannot absorb {a} more columns: {i0} of {self.d} used"
            )
        self._absorb(C)

    def _absorb(self, C):
        # update() on a checked float64 block with room for its columns
        i0 = self.k_cur
        i1 = i0 + C.shape[1]
        self._ensure_capacity(i1)
        W = self._apply_product_t(C) if i0 else C.copy()
        self._factor(W, i0, 0)
        V, T = self._V, self._T
        if i0:  # couple the new reflectors to the stored ones
            T[:i0, i0:i1] = -(T[:i0, :i0] @ (V[i0:, :i0].T @ V[i0:, i0:i1])
                              @ T[i0:i1, i0:i1])
        self.k_cur = i1

    def _factor(self, W, i0, j):
        # Householder QR of the columns j, j+1, ... of an update whose first
        # column goes to position i0; W holds them in the coordinates of the
        # reflectors before position i0 + j. Halving the block recursively,
        # as LAPACK's dgeqrt3 does, turns the trailing updates and the
        # coupling of the two halves' T blocks into matrix products.
        V, T, R = self._V, self._T, self._Rfull
        i = i0 + j
        a = W.shape[1]
        if a > 1:
            h = a // 2
            self._factor(W[:, :h], i0, j)
            V1, T1 = V[i:, i:i + h], T[i:i + h, i:i + h]
            rest = W[i:, h:]
            rest -= V1 @ (T1.T @ (V1.T @ rest))
            self._factor(W[:, h:], i0, j + h)
            V2, T2 = V[i + h:, i + h:i + a], T[i + h:i + a, i + h:i + a]
            T[i:i + h, i + h:i + a] = -(T1 @ (V1[h:].T @ V2) @ T2)
            return
        x = W[i:, 0]
        normx2 = float(x.dot(x))
        # reflections keep column norms, so the norm of the whole column
        # of W is the norm of the new column
        above = W[:i, 0]
        norm2 = normx2 + float(above.dot(above)) if i else normx2
        if normx2 <= (RANK_RTOL * RANK_RTOL) * norm2 or norm2 == 0.0:
            raise RankDeficientUpdateError(
                f"column {j} of the update is numerically dependent "
                f"(residual^2 {normx2:.3e} vs norm^2 {norm2:.3e})"
            )
        alpha = x.item(0)
        beta = -math.copysign(math.sqrt(normx2), alpha)
        v0 = alpha - beta  # no cancellation: signs of alpha and -beta agree
        v = V[i:, i]  # the reflector's rows above i stay zero
        v[0] = 1.0
        if i + 1 < self.d:  # a reflector of the last row has no tail
            np.divide(x[1:], v0, out=v[1:])
        T[i, i] = -v0 / beta
        if i:
            R[:i, i] = above
        R[i, i] = beta

    def project_out(self, M):
        """Return ``(I - U U^T) M`` where U is the implicit orthonormal factor.

        Computed via reflector products; the empty factorization returns a
        copy of ``M``.
        """
        M = _as_matrix(M, "M")
        if M.shape[0] != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} rows, got {M.shape[0]}"
            )
        if self.k_cur == 0:
            return M.copy()
        W = self._apply_product_t(M)
        W[: self.k_cur, :] = 0.0
        return self._apply_product(W)

    def apply_qt(self, M):
        """Return ``U^T M`` (k_cur x cols) without forming U."""
        M = _as_matrix(M, "M")
        if M.shape[0] != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} rows, got {M.shape[0]}"
            )
        return self._apply_product_t(M)[: self.k_cur, :]

    def apply_q(self, C):
        """Return ``U C`` (d x cols) for a coefficient block with k_cur rows."""
        C = _as_matrix(C, "C")
        if C.shape[0] != self.k_cur:
            raise DimensionMismatchError(
                f"expected {self.k_cur} rows, got {C.shape[0]}"
            )
        X = np.zeros((self.d, C.shape[1]))
        X[: self.k_cur, :] = C
        return self._apply_product(X)

    def reconstruct(self):
        """The absorbed columns, rebuilt as ``U R`` from the stored factors."""
        return self.apply_q(self.R)


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


def svd_pinv_apply(A, B, rcond=RANK_RTOL):
    """Fallback ``A @ pinv(B)`` through a truncated SVD of ``B``.

    Singular values below ``rcond`` times the largest are treated as zero.
    Used when :func:`apply_pinv_right` refuses a rank-deficient ``B``.
    """
    B = _as_matrix(B, "B")
    return np.asarray(A @ np.linalg.pinv(B, rcond=rcond))
