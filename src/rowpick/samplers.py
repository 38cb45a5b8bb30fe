"""Pivot selection: sequential randomly pivoted QR and the block
rejection sampler that draws volume-sampled row subsets from an
orthonormal basis, with the appendable Householder QR of the rows it
chooses.

Both samplers own their generator stream for the duration of a call;
independent calls with independent streams are safe to run concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    InvalidParamError,
    MaxRoundsExceededError,
    NotOrthonormalError,
    RankDeficientError,
    RankDeficientUpdateError,
)
from .linalg import BLOCK_ENTRIES, RANK_RTOL, _canonical, squared_row_norms

ACCEPT_SLACK = 1e-12  # roundoff allowance on acceptance ratios
MAX_ROUNDS = 64  # proposal rounds of the block sampler before it gives up


@dataclass(frozen=True, eq=False)
class PivotSet:
    """Ordered, duplicate-free row indices in ``[0, m)``.

    ``indices`` preserves selection order, and equality and hashing respect
    it: ``[1, 2]`` and ``[2, 1]`` are different pivot sets.
    """

    indices: np.ndarray
    m: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise DimensionMismatchError("pivot indices must be 1-D")
        if idx.size:
            values = idx.tolist()
            if min(values) < 0 or max(values) >= self.m:
                raise IndexError(f"pivot index out of range [0, {self.m})")
            if len(set(values)) != idx.size:
                raise ValueError("pivot indices must be distinct")

    def _key(self):
        return tuple(self.indices.tolist()), self.m

    def __eq__(self, other):
        if not isinstance(other, PivotSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self):
        return self.indices.size

    def __iter__(self):
        return iter(self.indices.tolist())

    def as_tuple(self):
        """Sorted tuple form, the key used by distribution enumerations."""
        return tuple(sorted(self.indices.tolist()))


def _draw_from_cumulative(edges, total, count, rng):
    """``count`` iid indices from the cumulative weights ``[*edges, total]``.

    Searching ``edges``, which omits the last cumulative weight, clamps a
    draw past the end onto the last index.
    """
    return edges.searchsorted(rng.random(count) * total, side="right")


def _draw_one(cum, total, rng):
    idx = int(cum.searchsorted(rng.random() * total, side="right"))
    return idx if idx < cum.size else cum.size - 1


def _accept_pass(H, lev, rng, accept_bias, room):
    """Accept/reject walk over the residual Gram ``H`` (symmetric, left
    unchanged) and the proposals' leverage scores ``lev`` (a list of
    floats). Returns the accepted positions in order, at most ``room``.

    Proposal ``i`` is accepted when a uniform draw scaled by its leverage
    score lands below its current residual diagonal: ``H[i, i]`` less its
    Schur-complement downdates by the proposals accepted before it, so a
    duplicate of an accepted proposal carries zero residual and is never
    accepted itself. Every proposal consumes one uniform, in order, drawn
    up front. The walk is left-looking: it keeps the diagonal ``d`` of the
    Schur complement of the accepted positions, and an acceptance at ``i``
    computes one column ``c`` of that complement from ``H`` and the columns
    kept so far, then downdates ``d`` below ``i`` by ``c**2 / d[i]``.

    ``accept_bias`` is a test-only corruption hook: a positive value turns
    the strict accept comparison into a ``<=`` with that much slack, which
    detectably skews the sampled distribution. The samplers pass 0.
    """
    nb = H.shape[0]
    draws = rng.random(nb).tolist()
    d = H.diagonal().copy()
    L = None  # the Schur complement's columns, scaled: d -= L[:, a]**2
    a = 0
    accepted = []
    for i, lev_i in enumerate(lev):
        hii = d.item(i)
        # ratio validity: projections never grow norms beyond roundoff
        if not hii <= lev_i + ACCEPT_SLACK:
            raise NotOrthonormalError(
                "acceptance ratio above 1: residual diagonal exceeds leverage score")
        draw = lev_i * draws[i]
        if (draw < hii) if accept_bias == 0.0 else (draw <= hii + accept_bias):
            accepted.append(i)
            if len(accepted) == room:
                break
            if hii > 0.0 and i + 1 < nb:
                c = H[i, i + 1:]
                if a:
                    c = c - L[i + 1:, :a] @ L[i, :a]
                d[i + 1:] -= (c / hii) * c
                if i + 2 < nb:  # a later acceptance reads this column
                    if L is None:
                        L = np.empty((nb, min(nb, room)))
                    L[i + 1:, a] = c / math.sqrt(hii)
                    a += 1
    return accepted


class HouseholderQR:
    """The block sampler's QR factorization of the columns it has absorbed,
    the chosen rows of ``Q`` as columns of ``Q^T``, in dimension ``d``.

    Columns are appended by :meth:`_absorb`; stored reflectors are never
    modified. The orthogonal factor ``U`` is kept implicitly as a compact
    product ``I - V T V^T`` of Householder reflectors and is never formed.
    The sampler reads each round's proposal residuals through
    :meth:`_complement_t`; the ``type1`` interpolation matrix reads :attr:`R`
    and :meth:`apply_qt`. All buffers are ``d x d``.
    """

    def __init__(self, d):
        self.d = d
        self.k_cur = 0
        self._V = np.zeros((d, d))  # unit-diagonal Householder vectors
        self._T = np.zeros((d, d))  # upper-triangular WY block
        self._Rfull = np.zeros((d, d))

    @property
    def R(self):
        """The current k_cur x k_cur upper-triangular factor (a view)."""
        k = self.k_cur
        return self._Rfull[:k, :k]

    def apply_qt(self, M):
        """Return ``U^T M`` (k_cur x cols) for a ``d``-row ``M``, without
        forming U."""
        return self._apply_product_t(M)[: self.k_cur, :]

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

    def _absorb(self, C):
        # append the columns of the float64 block C (d x a, k_cur + a <= d);
        # raises RankDeficientUpdateError when a column is numerically in
        # the span of the absorbed ones, the signature of a duplicate pivot
        i0 = self.k_cur
        i1 = i0 + C.shape[1]
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


def rejection_rpqr(Q, rng, _accept_bias=0.0):
    """Draw a volume-sampled pivot set from an orthonormal-column ``Q``.

    Each round proposes ``k = Q.shape[1]`` rows iid from the leverage score
    distribution and filters them through an accept/reject pass over the
    Gram of their residuals, keeping a :class:`HouseholderQR` of the chosen
    rows as columns of ``Q^T``. The returned subset of ``k`` rows follows
    the distribution with probability proportional to ``det(Q[S, :])**2``.
    ``MAX_ROUNDS`` rounds that leave pivots missing signal a numerically
    deficient ``Q``.

    Parameters
    ----------
    Q : (m, k) ndarray with orthonormal columns (checked to 1e-8)
    rng : numpy Generator

    Returns
    -------
    (PivotSet, HouseholderQR)
        The pivots in selection order, and the QR factorization of
        ``Q^T[:, S]`` accumulated while sampling.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    if Q.ndim != 2:
        raise DimensionMismatchError("Q must be 2-D")
    m, k = Q.shape
    if k < 1:
        raise DimensionMismatchError("Q must have at least one column")
    gap = (Q.T @ Q).ravel()
    diag = gap[:: k + 1]
    diag -= 1.0
    if not gap.dot(gap) <= 1e-16:  # ||Q^T Q - I||_F <= 1e-8, and no NaN
        raise NotOrthonormalError(
            "columns of Q are not orthonormal to 1e-8"
        )
    lev = squared_row_norms(Q)
    cum = lev.cumsum()
    edges, total = cum[:-1], cum[-1]
    lev = lev.tolist()
    qr = HouseholderQR(k)
    chosen = []
    for _ in range(MAX_ROUNDS):
        room = k - len(chosen)
        if not room:
            break
        proposals = _draw_from_cumulative(edges, total, k, rng)
        cols = Q.take(proposals, axis=0).T
        # the proposals' residuals in the coordinates the reflectors leave
        # free: their Gram is that of the projected-out columns
        C = qr._complement_t(cols) if qr.k_cur else cols
        proposals = proposals.tolist()
        accepted = _accept_pass(
            C.T @ C, [lev[t] for t in proposals], rng, _accept_bias, room
        )
        if accepted:
            new_rows = [proposals[i] for i in accepted]
            qr._absorb(Q.take(new_rows, axis=0).T)
            chosen.extend(new_rows)
    if len(chosen) < k:
        raise MaxRoundsExceededError(
            f"{MAX_ROUNDS} proposal rounds yielded only {len(chosen)} of {k} "
            "pivots; Q is likely numerically deficient"
        )
    return PivotSet(chosen, m), qr


def _residual_norms2(M, cols, basis):
    """Squared norms of the columns ``cols`` of ``M - basis.T @ (basis @ M)``,
    for ``basis`` with orthonormal rows, one block of columns at a time."""
    width = max(1, BLOCK_ENTRIES // M.shape[0])
    out = np.empty(cols.size)
    for lo in range(0, cols.size, width):
        B = M[:, cols[lo:lo + width]]
        B = B.toarray() if sp.issparse(B) else B
        R = basis.T @ (basis @ B)
        np.subtract(B, R, out=R)
        out[lo:lo + width] = np.einsum("ij,ij->j", R, R)
    return out


def rpqr_sequential(M, k, rng):
    """Randomly pivoted QR column selection on ``M`` (d x m), dense or
    sparse.

    Each step samples a column with probability proportional to its current
    squared residual norm, where the residual is what is left after
    projecting out the columns already chosen. The algorithm is
    left-looking: it keeps an orthonormal basis of the chosen columns,
    orthogonalizes only the drawn column against it (two Gram-Schmidt
    passes), and downdates the squared norms with that column's projection
    ``q @ M``. ``M`` is never copied or written; sparse ``M`` is read in CSC
    form, converted once if it comes in another.

    A downdated norm that dips below 1e-8 of its value when last computed
    has lost its digits to cancellation, and is replaced by the true
    residual norm (cancellation guard), computed in column blocks of at
    most 16 MB.

    Raises
    ------
    InvalidParamError
        ``M`` has a NaN or infinite entry, or a squared norm past the float
        range.
    RankDeficientError
        The total squared residual norm fell below ``1e-12 * ||M||_F^2``
        before ``k`` pivots were found.
    """
    # ndarray first: issparse's abstract-class check alone is 2% of a k=2 draw
    sparse = not isinstance(M, np.ndarray) and sp.issparse(M)
    if sparse:
        M = _canonical(M, sp.csc_array).astype(np.float64, copy=False)
    else:
        M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionMismatchError("M must be 2-D")
    d, m = M.shape
    if not 1 <= k <= min(d, m):
        raise DimensionMismatchError(f"need 1 <= k <= min{M.shape}, got {k}")
    if sparse:
        norms2 = M.multiply(M).sum(axis=0)
    else:
        norms2 = np.einsum("ij,ij->j", M, M)
    # cancellation floor: 1e-8 of each squared norm at its last computation;
    # selected columns get a negative floor so never look stale
    floor = 1e-8 * norms2
    cum = norms2.cumsum()
    total0 = total = float(cum[-1])
    if not math.isfinite(total0):
        raise InvalidParamError(
            "M has a NaN or infinite entry, or a squared norm past the float range")
    pivots = []
    basis = None  # orthonormal rows; allocated once a later step reads it
    while True:
        if total <= 1e-12 * total0:
            raise RankDeficientError(
                f"working matrix numerically exhausted after {len(pivots)} pivots"
            )
        s = _draw_one(cum, total, rng)
        pivots.append(s)
        j = len(pivots)
        if j == k:  # nothing reads the working state after this
            return PivotSet(pivots, m)
        q = M[:, [s]].toarray().ravel() if sparse else M[:, s]
        if j > 1:
            B = basis[: j - 1]
            q = q - (B @ q) @ B
            q -= (B @ q) @ B
        q = q / math.sqrt(float(q.dot(q)))
        proj = M.T @ q if sparse else q @ M
        norms2 -= proj * proj
        norms2[s] = 0.0
        floor[s] = -1.0
        below = norms2 < floor
        stale = below.any()
        if stale or j + 1 < k:  # read by the recompute or the next step
            if basis is None:
                basis = np.empty((k - 1, d))
            basis[j - 1] = q
        if stale:
            cols = np.flatnonzero(below)
            norms2[cols] = fresh = _residual_norms2(M, cols, basis[:j])
            floor[cols] = 1e-8 * fresh
        np.maximum(norms2, 0.0, out=norms2)
        cum = norms2.cumsum()
        total = float(cum[-1])
