"""Brute-force enumeration ground truth for the distributional and
expectation identities the samplers and the decomposition driver rely on.

Everything here is desk-scale by design: subsets are enumerated exhaustively
up to a C(m, k) <= 1e6 guard, and determinants are evaluated directly.
"""

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPSDError,
    RankDeficientError,
    TooLargeError,
)
from .linalg import _as_matrix

ENUMERATION_GUARD = 10**6
DET_RTOL = 1e-14  # volumes below this times the Hadamard bound count as zero

# The expectation identities are asserted to 1e-10 relative, and a single
# ill-conditioned subset solved in double precision can eat that budget.
# The per-subset enumeration therefore runs in extended precision, with a
# hand-rolled elimination because LAPACK only speaks float32/64.


def _lu_factor_ld(A):
    """Partial-pivot LU of a small square matrix in extended precision.

    Returns (factored matrix, pivot rows, determinant). A zero pivot marks
    the matrix singular via det = 0.
    """
    A = np.array(A, dtype=np.longdouble)
    k = A.shape[0]
    piv = np.arange(k)
    det = np.longdouble(1.0)
    for i in range(k):
        p = i + int(np.argmax(np.abs(A[i:, i])))
        if A[p, i] == 0.0:
            return A, piv, np.longdouble(0.0)
        if p != i:
            A[[i, p]] = A[[p, i]]
            piv[[i, p]] = piv[[p, i]]
            det = -det
        det *= A[i, i]
        factors = A[i + 1:, i] / A[i, i]
        A[i + 1:, i] = factors
        A[i + 1:, i + 1:] -= factors[:, None] * A[i, i + 1:]
    return A, piv, det


def _lu_solve_ld(lu, piv, B):
    """Solve with a factorization from :func:`_lu_factor_ld`."""
    k = lu.shape[0]
    X = np.array(B, dtype=np.longdouble)
    if X.ndim == 1:
        X = X[:, None]
    X = X[piv, :]
    for i in range(1, k):
        X[i, :] -= lu[i, :i] @ X[:i, :]
    for i in range(k - 1, -1, -1):
        X[i, :] -= lu[i, i + 1:] @ X[i + 1:, :]
        X[i, :] /= lu[i, i]
    return X


def _square_subsets_ld(X):
    """``(idx, det**2, lu, piv)`` for each size-k row subset ``idx`` of the
    ``m x k`` ``X`` of nonzero volume, with the extended-precision LU of
    ``X[idx, :]`` from :func:`_lu_factor_ld`; subsets whose volume falls
    below ``DET_RTOL`` times the product of their row norms are skipped."""
    m, k = X.shape
    _guard_enumeration(m, k)
    X = np.asarray(X, dtype=np.longdouble)
    row_norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    for T in itertools.combinations(range(m), k):
        idx = list(T)
        lu, piv, det = _lu_factor_ld(X[idx, :])
        if abs(det) > DET_RTOL * np.prod(row_norms[idx]):
            yield idx, det * det, lu, piv


@dataclass(frozen=True)
class SubsetDistribution:
    """Probabilities over size-``k`` subsets of ``{0, ..., m-1}``.

    ``probs`` maps sorted index tuples to probabilities; only subsets with
    nonzero mass appear.
    """

    m: int
    k: int
    probs: dict

    def prob(self, subset):
        return self.probs.get(tuple(sorted(subset)), 0.0)

    def total_variation(self, other):
        """TV distance to another distribution or to an empirical
        frequency map (any mapping from sorted tuples to probabilities)."""
        if isinstance(other, SubsetDistribution):
            other = other.probs
        keys = set(self.probs) | set(other)
        return 0.5 * sum(
            abs(self.probs.get(t, 0.0) - other.get(t, 0.0)) for t in keys
        )

    def support(self):
        return sorted(self.probs)


def _guard_enumeration(m, k):
    if comb(m, k) > ENUMERATION_GUARD:
        raise TooLargeError(
            f"C({m},{k}) = {comb(m, k)} subsets exceeds the enumeration guard"
        )


def enumerate_volume_probs(B, k):
    """Exact subset distribution with mass proportional to the squared
    volume ``det(B[T,:] B[T,:]^T)`` of each size-``k`` row subset.

    Subsets whose volume falls below ``1e-14`` times the product of their
    row norms are assigned exactly zero mass (they carry none analytically;
    the threshold absorbs roundoff).
    """
    B = _as_matrix(B, "B")
    m, n = B.shape
    k = int(k)
    if not 1 <= k <= min(m, n):
        raise DimensionMismatchError(f"need 1 <= k <= min{B.shape}, got {k}")
    _guard_enumeration(m, k)
    row_norms = np.linalg.norm(B, axis=1)
    weights = {}
    for T in itertools.combinations(range(m), k):
        sub = B[T, :]
        det = float(np.linalg.det(sub @ sub.T))
        vol = np.sqrt(max(det, 0.0))
        if vol <= DET_RTOL * np.prod(row_norms[list(T)]):
            continue
        weights[T] = vol * vol
    total = sum(weights.values())
    if total <= 0.0:
        raise RankDeficientError("every size-k subset has zero volume")
    return SubsetDistribution(m, k, {t: w / total for t, w in weights.items()})


def enumerate_kdpp_probs(H, k):
    """Exact subset distribution with mass proportional to the principal
    minors ``det(H[T, T])`` of a symmetric psd kernel.

    Raises
    ------
    NotPSDError
        ``H`` is materially asymmetric or has an eigenvalue below
        ``-1e-10 * ||H||_2``.
    """
    H = _as_matrix(H, "H")
    m = H.shape[0]
    if H.shape[1] != m:
        raise DimensionMismatchError("kernel must be square")
    k = int(k)
    if not 1 <= k <= m:
        raise DimensionMismatchError(f"need 1 <= k <= {m}, got {k}")
    _guard_enumeration(m, k)
    scale = np.max(np.abs(np.linalg.eigvalsh((H + H.T) / 2.0))) if m else 0.0
    if np.max(np.abs(H - H.T)) > 1e-10 * max(scale, 1e-300):
        raise NotPSDError("kernel is not symmetric")
    if np.min(np.linalg.eigvalsh(H)) < -1e-10 * scale:
        raise NotPSDError("kernel has a materially negative eigenvalue")
    weights = {}
    for T in itertools.combinations(range(m), k):
        idx = list(T)
        minor = float(np.linalg.det(H[np.ix_(idx, idx)]))
        if minor > 0.0:
            weights[T] = minor
    total = sum(weights.values())
    if total <= 0.0:
        raise RankDeficientError("every principal minor is zero")
    return SubsetDistribution(m, k, {t: w / total for t, w in weights.items()})


def expected_type1_error(A, Q):
    """Both sides of the expected squared-error identity for the
    basis-interpolation approximation.

    Returns ``(lhs, rhs)`` where ``lhs`` sums, over the volume-sampling
    distribution of ``Q``'s row subsets, the squared Frobenius error of
    ``Q @ inv(Q[T,:]) @ A[T,:]``, and ``rhs = (k+1) * ||(I - QQ^T) A||_F^2``.
    Singular subsets carry zero mass and are skipped. The two agree to
    1e-10 relative.
    """
    A = _as_matrix(A, "A")
    Q = _as_matrix(Q, "Q")
    if A.shape[0] != Q.shape[0]:
        raise DimensionMismatchError("A and Q must have the same row count")
    k = Q.shape[1]
    Ao = np.asarray(A, dtype=np.longdouble)
    Qo = np.asarray(Q, dtype=np.longdouble)
    lhs = total = np.longdouble(0.0)
    for idx, w, lu, piv in _square_subsets_ld(Q):
        diff = Ao - Qo @ _lu_solve_ld(lu, piv, Ao[idx, :])
        lhs += w * np.einsum("ij,ij->", diff, diff)
        total += w
    resid = Ao - Qo @ (Qo.T @ Ao)
    rhs = (k + 1) * np.einsum("ij,ij->", resid, resid)
    return float(lhs / total), float(rhs)


def check_active_regression(X, y):
    """Enumeration check of the subsampled least-squares identities.

    Returns ``(expected_beta, true_beta, lhs_err, rhs_err)``:
    ``expected_beta`` is the volume-sampling average of the square-subset
    solutions and must equal the full least-squares solution
    (unbiasedness); ``lhs_err`` is the expected squared residual and must
    equal ``rhs_err = (k+1) * ||(I - X X^+) y||^2``. Both to 1e-10.
    """
    X = _as_matrix(X, "X")
    y = np.asarray(y, dtype=np.float64).ravel()
    m, k = X.shape
    if y.size != m:
        raise DimensionMismatchError("y must have one entry per row of X")
    sv = np.linalg.svd(X, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficientError("X must have full column rank")
    Xo = np.asarray(X, dtype=np.longdouble)
    yo = np.asarray(y, dtype=np.longdouble)
    # full least squares via extended-precision normal equations; X is
    # explicitly well conditioned here, so this is accurate
    lu, piv, _ = _lu_factor_ld(Xo.T @ Xo)
    beta_true = _lu_solve_ld(lu, piv, Xo.T @ yo)[:, 0]
    expected_beta = np.zeros(k, dtype=np.longdouble)
    lhs_err = total = np.longdouble(0.0)
    for idx, w, lu, piv in _square_subsets_ld(X):
        beta_hat = _lu_solve_ld(lu, piv, yo[idx])[:, 0]
        expected_beta += w * beta_hat
        r = Xo @ beta_hat - yo
        lhs_err += w * (r @ r)
        total += w
    r_opt = yo - Xo @ beta_true
    rhs_err = (k + 1) * (r_opt @ r_opt)
    return (
        np.asarray(expected_beta / total, dtype=np.float64),
        np.asarray(beta_true, dtype=np.float64),
        float(lhs_err / total),
        float(rhs_err),
    )


def optimality_instance(k):
    """The worst-case instance on which every square row subset attains the
    same (k+1)-fold suboptimality.

    Returns ``(X, y)`` with ``y`` the all-ones vector of length ``k+1`` and
    ``X`` the (k+1) x k forward-difference basis of its orthogonal
    complement: ``X[i, i] = 1``, ``X[i+1, i] = -1``. ``X^T y == 0`` exactly.
    """
    k = int(k)
    if k < 1:
        raise DimensionMismatchError("k must be >= 1")
    X = np.zeros((k + 1, k))
    idx = np.arange(k)
    X[idx, idx] = 1.0
    X[idx + 1, idx] = -1.0
    y = np.ones(k + 1)
    return X, y


def check_optimality(k):
    """True iff, on :func:`optimality_instance`, every size-k row subset's
    squared residual equals ``(k+1)**2`` and the optimal squared residual
    equals ``k+1``, both to 1e-10 relative (so their ratio is exactly the
    k+1 suboptimality factor).
    """
    k = int(k)
    if k > 12:
        raise TooLargeError("check_optimality enumerates k+1 subsets; k <= 12")
    X, y = optimality_instance(k)
    beta_true, *_ = np.linalg.lstsq(X, y, rcond=None)
    opt = float(np.linalg.norm(y - X @ beta_true) ** 2)
    if abs(opt - (k + 1)) > 1e-10 * (k + 1):
        return False
    target = float((k + 1) ** 2)
    for T in itertools.combinations(range(k + 1), k):
        idx = list(T)
        beta_hat = np.linalg.solve(X[idx, :], y[idx])
        res = float(np.linalg.norm(X @ beta_hat - y) ** 2)
        if abs(res - target) > 1e-10 * target:
            return False
        if abs(res / opt - (k + 1)) > 1e-10 * (k + 1):
            return False
    return True
