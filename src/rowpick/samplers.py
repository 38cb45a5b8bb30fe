"""Pivot selection: sequential randomly pivoted QR and the block
rejection sampler that draws volume-sampled row subsets from an
orthonormal basis.

Both samplers own their generator stream for the duration of a call;
independent calls with independent streams are safe to run concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDistributionError,
    DimensionMismatchError,
    MaxRoundsExceededError,
    NotOrthonormalError,
    RankDeficientError,
)
from .linalg import HouseholderQR, squared_row_norms

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


@dataclass(frozen=True)
class ProposalBlock:
    """One round of block proposals for the rejection sampler.

    ``gram`` is ``C^T C`` for ``C`` the proposals' residuals after
    projecting out the already-accepted pivots; its diagonal can exceed the
    proposals' leverage scores only by roundoff.
    """

    proposals: np.ndarray
    gram: np.ndarray
    lev_scores: np.ndarray


def _draw_from_cumulative(edges, total, count, rng):
    """``count`` iid indices from the cumulative weights ``[*edges, total]``.

    Searching ``edges``, which omits the last cumulative weight, clamps a
    draw past the end onto the last index.
    """
    return edges.searchsorted(rng.random(count) * total, side="right")


def _draw_one(cum, total, rng):
    idx = int(cum.searchsorted(rng.random() * total, side="right"))
    return idx if idx < cum.size else cum.size - 1


def leverage_multinomial(lev_scores, count, rng):
    """Draw ``count`` iid indices with probability proportional to the
    scores. Zero-score rows are never drawn; tiny negative roundoff is
    treated as zero.

    Raises
    ------
    DegenerateDistributionError
        Every score is <= 0.
    """
    p = np.clip(np.asarray(lev_scores, dtype=np.float64), 0.0, None)
    if p.ndim != 1:
        raise DimensionMismatchError("scores must be 1-D")
    cum = np.cumsum(p)
    if not cum.size or cum[-1] <= 0.0:
        raise DegenerateDistributionError("all sampling weights are zero")
    return _draw_from_cumulative(cum[:-1], cum[-1], count, rng)


def _accept_pass(H, lev, rng, accept_bias):
    """Accept/reject walk over the residual Gram ``H``, which it overwrites,
    and the proposals' leverage scores ``lev`` (a list of floats).

    Each proposal consumes one uniform, in order. An acceptance applies its
    Schur-complement update to the trailing block only: the walk never reads
    entries at or before the current position again.
    """
    nb = H.shape[0]
    random = rng.random
    accepted = []
    for i, lev_i in enumerate(lev):
        hii = H.item(i, i)
        # ratio validity: projections never grow norms beyond roundoff
        if not hii <= lev_i + ACCEPT_SLACK:
            raise NotOrthonormalError(
                "acceptance ratio above 1: residual diagonal exceeds leverage score")
        draw = lev_i * random()
        if (draw < hii) if accept_bias == 0.0 else (draw <= hii + accept_bias):
            accepted.append(i)
            if hii > 0.0 and i + 1 < nb:
                rest = H[i + 1:, i + 1:]
                np.subtract(
                    rest, np.multiply.outer(H[i + 1:, i] / hii, H[i, i + 1:]),
                    out=rest,
                )
    return accepted


def rejection_sample_submatrix(block, rng, _accept_bias=0.0):
    """Run the in-block accept/reject pass over a proposal block.

    Walks the proposals in order; proposal ``i`` is accepted when a uniform
    draw scaled by its leverage score lands below the current residual
    diagonal ``H[i, i]``, after which the trailing block of ``H`` is updated
    by Schur-complement elimination so that duplicates of an accepted
    proposal carry zero residual and are never accepted themselves.
    ``block.gram`` is left unchanged.

    Returns the accepted positions (indices into the block) in order.

    ``_accept_bias`` is a test-only corruption hook: a positive value turns
    the strict accept comparison into a ``<=`` with that much slack, which
    detectably skews the sampled distribution. Leave at 0.
    """
    H = np.array(block.gram, dtype=np.float64)
    lev = np.asarray(block.lev_scores, dtype=np.float64)
    nb = H.shape[0]
    if H.shape != (nb, nb) or lev.shape != (nb,):
        raise DimensionMismatchError("gram must be square and match the scores")
    return _accept_pass(H, lev.tolist(), rng, _accept_bias)


def rejection_rpqr(Q, rng, max_rounds=64, block_size=None, _accept_bias=0.0):
    """Draw a volume-sampled pivot set from an orthonormal-column ``Q``.

    Proposes blocks of pivots iid from the leverage score distribution and
    filters them through the accept/reject pass of
    :func:`rejection_sample_submatrix`, maintaining an incrementally updated
    Householder QR of the selected columns of ``Q^T``.
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
    QT = np.ascontiguousarray(Q.T)
    qr = HouseholderQR(k, capacity=k)
    chosen = []
    bs = k if block_size is None else int(block_size)
    for _ in range(max_rounds):
        if len(chosen) == k:
            break
        proposals = _draw_from_cumulative(edges, total, bs, rng)
        cols = QT.take(proposals, axis=1)
        # before anything is accepted the projector is the identity
        C = qr.project_out(cols) if qr.k_cur else cols
        proposals = proposals.tolist()
        accepted = _accept_pass(
            C.T @ C, [lev[t] for t in proposals], rng, _accept_bias
        )
        if accepted:
            new_rows = [proposals[i] for i in accepted[: k - len(chosen)]]
            qr._absorb(QT.take(new_rows, axis=1))
            chosen.extend(new_rows)
    if len(chosen) < k:
        raise MaxRoundsExceededError(
            f"{max_rounds} proposal rounds yielded only {len(chosen)} of {k} "
            "pivots; Q is likely numerically deficient"
        )
    return PivotSet(chosen, m), qr


def rpqr_sequential(M, k, rng):
    """Randomly pivoted QR column selection on ``M`` (d x m).

    Each step samples a column with probability proportional to its current
    squared norm, then orthogonalizes the working copy against it. Squared
    norms are maintained by downdating and fully recomputed whenever a
    downdated value dips below 1e-8 of its value at the last recomputation
    (cancellation guard). The caller's ``M`` is untouched.

    Raises
    ------
    RankDeficientError
        The working matrix's total squared norm fell below
        ``1e-12 * ||M||_F^2`` before ``k`` pivots were found.
    """
    W = np.array(M, dtype=np.float64)  # working copy
    if W.ndim != 2:
        raise DimensionMismatchError("M must be 2-D")
    d, m = W.shape
    if not 1 <= k <= min(d, m):
        raise DimensionMismatchError(f"need 1 <= k <= min{W.shape}, got {k}")
    norms2 = np.einsum("ij,ij->j", W, W)
    # cancellation floor: 1e-8 of the squared norms at the last full
    # recomputation; selected columns get a negative floor so never look stale
    floor = 1e-8 * norms2
    cum = norms2.cumsum()
    total0 = total = float(cum[-1])
    pivots = []
    while True:
        if total <= 1e-12 * total0:
            raise RankDeficientError(
                f"working matrix numerically exhausted after {len(pivots)} pivots"
            )
        s = _draw_one(cum, total, rng)
        pivots.append(s)
        if len(pivots) == k:  # nothing reads the working state after this
            return PivotSet(pivots, m)
        col = W[:, s]
        q = col / math.sqrt(float(col.dot(col)))
        proj = q @ W
        norms2 -= proj * proj
        norms2[s] = 0.0
        floor[s] = -1.0
        stale = (norms2 < floor).any()
        if stale or len(pivots) + 1 < k:  # read by the recompute or next step
            W -= np.multiply.outer(q, proj)
            W[:, s] = 0.0
        if stale:
            norms2 = np.einsum("ij,ij->j", W, W)
            norms2[pivots] = 0.0
            floor = 1e-8 * norms2
            floor[pivots] = -1.0
        np.maximum(norms2, 0.0, out=norms2)
        cum = norms2.cumsum()
        total = float(cum[-1])
