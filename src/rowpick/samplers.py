"""Pivot selection: sequential randomly pivoted QR and the block
rejection sampler that draws volume-sampled row subsets from an
orthonormal basis.

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
)
from .linalg import BLOCK_ENTRIES, HouseholderQR, _canonical, squared_row_norms

ACCEPT_SLACK = 1e-12  # roundoff allowance on acceptance ratios


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


def rejection_rpqr(Q, rng, max_rounds=64, block_size=None, _accept_bias=0.0):
    """Draw a volume-sampled pivot set from an orthonormal-column ``Q``.

    Proposes blocks of pivots iid from the leverage score distribution and
    filters them through an accept/reject pass over the Gram of their
    residuals, maintaining an incrementally updated Householder QR of the
    selected columns of ``Q^T``.
    The returned subset of ``k = Q.shape[1]`` rows follows the distribution
    with probability proportional to ``det(Q[S, :])**2``.

    Parameters
    ----------
    Q : (m, k) ndarray with orthonormal columns (checked to 1e-8)
    rng : numpy Generator
    max_rounds : int
        Safety cap on proposal rounds; hitting it signals a numerically
        deficient ``Q``.
    block_size : int, optional
        Proposals per round; defaults to ``k``.

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
    qr = HouseholderQR(k, capacity=k)
    chosen = []
    bs = k if block_size is None else int(block_size)
    for _ in range(max_rounds):
        room = k - len(chosen)
        if not room:
            break
        proposals = _draw_from_cumulative(edges, total, bs, rng)
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
            f"{max_rounds} proposal rounds yielded only {len(chosen)} of {k} "
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
