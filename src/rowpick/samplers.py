"""Pivot selection: sequential randomly pivoted QR and the block
rejection sampler that draws volume-sampled row subsets from an
orthonormal basis, with the appendable Householder QR of the rows it
chooses before its last round, which only the sampler reads.

Each sampler is an object built once per basis, :class:`RejectionSampler`
(``Q``) and :class:`SequentialSampler` (``M``, ``k``), that draws one pivot
set per ``draw(rng)``. The constructor checks the basis and computes what
every draw reads (leverage scores or squared column norms, and their
cumulative sum). Every draw after an object's first stores what it reads
to choose at each step by the pivots before it, which determine it (see
:class:`_StateStore`), and later draws read it in place of recomputing it;
the working factorization is always the draw's own. A draw's uniforms,
accept decisions, pivots and errors are those of a fresh object on the
same generator, and ``draws(rng, count)`` yields what ``count`` draws
return, with the uniforms drawn in blocks (see :class:`_Blocks`). The
objects hold a reference to the basis, not a copy, so the caller must not
write it while an object is alive. :func:`rejection_rpqr` and
:func:`rpqr_sequential` are one draw of a fresh object, which stores
nothing.

Each draw owns its generator stream for the duration of the call; draws
with independent streams from independent objects are safe to run
concurrently, draws from one object are not.
"""

import math
import sys
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
from .linalg import (BLOCK_ENTRIES, RANK_RTOL, _canonical, _householder,
                     _scale_exponent, _scaled)

ACCEPT_SLACK = 1e-12  # roundoff allowance on acceptance ratios
MAX_ROUNDS = 64  # proposal rounds of the block sampler before it gives up
_OBJECT_BYTES = 128  # state store allowance: a Python object, or a key or list entry
_NORMAL_TOTAL = sys.float_info.min / 1e-12  # least ||M||_F^2 drawn unscaled


@dataclass(frozen=True, eq=False)
class PivotSet:
    """Ordered, duplicate-free row indices in ``[0, m)``.

    ``indices`` preserves selection order, and equality and hashing respect
    it: ``[1, 2]`` and ``[2, 1]`` are different pivot sets. Indices of a
    non-integer dtype, bool included, are refused.
    """

    indices: np.ndarray
    m: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size and idx.dtype.kind not in "iu":  # astype truncates floats, reads bools as 0/1
            raise InvalidParamError(f"pivot indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise DimensionMismatchError("pivot indices must be 1-D")
        if idx.size:
            values = idx.tolist()
            if min(values) < 0 or max(values) >= self.m:
                raise IndexError(f"pivot index out of range [0, {self.m})")
            if len(set(values)) != idx.size:
                raise ValueError("pivot indices must be distinct")

    @classmethod
    def _unchecked(cls, indices, m):
        """A pivot set from a list of distinct ints in ``[0, m)``, not
        validated again: for the samplers, which build it so."""
        pivots = object.__new__(cls)
        fields = pivots.__dict__  # past the frozen dataclass's __setattr__
        fields["indices"] = np.array(indices, dtype=np.intp)
        fields["m"] = m
        return pivots

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
    # below the last index: u * total < total = cum[-1] for a normal total
    return int(cum.searchsorted(rng.random() * total, side="right"))


def _accept_pass(H, lev, rng, accept_bias, room, diags=None, store=None):
    """Accept/reject walk over the residual Gram ``H`` (symmetric, left
    unchanged) and the proposals' leverage scores ``lev`` (a list of
    floats). Returns the accepted positions in order, at most ``room``.

    Proposal ``i`` is accepted when a uniform draw scaled by its leverage
    score lands below its current residual diagonal: ``H[i, i]`` less its
    Schur-complement downdates by the proposals accepted before it, so a
    duplicate of an accepted proposal carries zero residual and is never
    accepted itself. Every proposal consumes one uniform, in order, drawn
    up front by the generator ``rng`` or given as the list ``rng``. The walk
    is left-looking: it keeps the diagonal ``d`` of the Schur complement of
    the accepted positions, and an acceptance at ``i`` computes one column
    ``c`` of that complement from ``H`` and the columns kept so far, then
    downdates ``d`` below ``i`` by ``c**2 / d[i]``. A stored round's
    ``diags`` takes each ``d`` as floats, by the positions accepted before
    it, where ``store`` has room; :func:`_stored_pass` reads them.

    ``accept_bias`` is a test-only corruption hook: a positive value turns
    the strict accept comparison into a ``<=`` with that much slack, which
    detectably skews the sampled distribution. The samplers pass 0.
    """
    nb = H.shape[0]
    draws = rng if isinstance(rng, list) else rng.random(nb).tolist()
    d = H.diagonal().copy()
    L = None  # the Schur complement's columns, scaled: d -= L[:, a]**2
    a = 0
    accepted = []
    if diags is not None:
        store.keep_diagonal(diags, accepted, d)
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
                if diags is not None:
                    store.keep_diagonal(diags, accepted, d)
                if i + 2 < nb:  # a later acceptance reads this column
                    if L is None:
                        L = np.empty((nb, min(nb, room)))
                    L[i + 1:, a] = c / math.sqrt(hii)
                    a += 1
    return accepted


def _stored_pass(lev, draws, diags, accept_bias, room):
    """:func:`_accept_pass` on the uniforms ``draws`` of a stored round,
    reading each diagonal from ``diags``: floats only. None where a
    diagonal is missing or a ratio exceeds 1: the computed pass decides."""
    d = diags.get(())
    accepted = []
    for i, lev_i in enumerate(lev):
        if d is None:
            return None
        hii = d[i]
        if not hii <= lev_i + ACCEPT_SLACK:
            return None
        draw = lev_i * draws[i]
        if (draw < hii) if accept_bias == 0.0 else (draw <= hii + accept_bias):
            accepted.append(i)
            if len(accepted) == room:
                break
            if hii > 0.0 and i + 1 < len(lev):
                d = diags.get(tuple(accepted))
    return accepted


class HouseholderQR:
    """The block sampler's QR factorization of the columns it has absorbed:
    the rows of ``Q`` chosen before the sampler's last round, as columns of
    ``Q^T``, in dimension ``d``.

    Columns are appended by :meth:`_absorb`, a block at a time: the block's
    coordinates past the absorbed columns go through one
    :func:`~rowpick.linalg._householder` (LAPACK's ``geqrf``), whose ``T``
    is then coupled to the stored one. Stored reflectors are never
    modified. The orthogonal factor ``U`` is kept implicitly as a compact
    product ``I - V T V^T`` of Householder reflectors and is never formed;
    the triangular factor is read only by the rank test. The sampler
    reads each round's proposal residuals through :meth:`_complement_t`.
    Each draw builds its own, at the first round after an acceptance whose
    Gram is not stored, and absorbs the accepted row blocks in the order
    they were chosen, so a draw that finishes in one round, or reads every
    later round's Gram from the store, factors nothing. Both buffers are
    ``d x d``.
    """

    def __init__(self, d):
        self.d = d
        self.k_cur = 0
        self._V = np.zeros((d, d))  # unit-diagonal Householder vectors
        self._T = np.zeros((d, d))  # upper-triangular WY block

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
        # the span of those before it, the signature of a duplicate pivot
        i0 = self.k_cur
        i1 = i0 + C.shape[1]
        Vb, Tb, R = _householder((self._apply_product_t(C) if i0 else C)[i0:])
        # reflections keep column norms: R[j, j]**2 is column j's residual
        # against the columns before it, and ||C[:, j]||**2 its whole norm
        resid2, norm2 = R.diagonal() ** 2, np.einsum("ij,ij->j", C, C)
        bad = (resid2 <= RANK_RTOL**2 * norm2) | (norm2 == 0.0)
        if bad.any():
            j = int(bad.argmax())
            raise RankDeficientUpdateError(
                f"column {j} of the update is numerically dependent "
                f"(residual^2 {resid2[j]:.3e} vs norm^2 {norm2[j]:.3e})")
        V, T = self._V, self._T
        V[i0:, i0:i1], T[i0:i1, i0:i1] = Vb, Tb
        if i0:  # couple the new reflectors to the stored ones
            T[:i0, i0:i1] = -(T[:i0, :i0] @ (V[i0:, :i0].T @ V[i0:, i0:i1])
                              @ T[i0:i1, i0:i1])
        self.k_cur = i1


class _StateStore:
    """What a sampler object's draws read to choose, by the pivot prefix
    that determines it, shared by its draws.

    Each state is a deterministic function of its key, so a draw that reads
    it in place of recomputing it keeps every bit. For the block sampler a
    state is a round: its Gram, its proposals and their leverage scores,
    and a dict of the residual diagonals its accept pass reads after each
    prefix of acceptances, lists of floats added as draws compute them. An
    object's first draw stores nothing, so a single draw leaves the store
    empty; every later draw stores what it computes while ``BLOCK_ENTRIES``
    float64 entries' worth of bytes last, each Python object counted at a
    fixed allowance. Past that nothing more is stored, and the draws
    compute what is missing. Stored arrays and lists are never written.
    """

    __slots__ = ("states", "draws", "free")

    def __init__(self):
        self.states = {}
        self.draws = 0  # draws begun, counted by the sampler
        self.free = 8 * BLOCK_ENTRIES

    def keep(self, key, state, nbytes, states=None):
        """Store ``state`` under ``key`` in ``states`` (the store's own) unless
        this is the object's first draw or ``nbytes`` do not fit; say if so."""
        if self.draws > 1 and nbytes <= self.free:
            self.free -= nbytes
            (self.states if states is None else states)[key] = state
            return True
        return False

    def keep_diagonal(self, diags, accepted, d):
        """Keep the accept pass's diagonal ``d`` in a round's ``diags``, by
        the positions ``accepted`` before it, unless it is there."""
        key = tuple(accepted)
        if key not in diags:  # the list and its items, the key and its items, a dict entry
            self.keep(key, d.tolist(), _OBJECT_BYTES * (d.size + len(key) + 3), diags)


class _Blocks:
    """The uniforms of a ``draws`` iterator, drawn from ``rng`` in blocks
    and served in order. A block holds the ``unit`` uniforms (a draw's or a
    round's) of each draw still to make, at most ``BLOCK_ENTRIES // 512``
    uniforms, about 150 kB with the floats made of them. When the iteration
    ends, ``rng`` is reset to its state before the last block and draws the
    uniforms served from it again, as though it had drawn only those."""

    def __init__(self, rng, unit):
        self.rng, self.unit = rng, unit
        self.size = self.served = 0  # uniforms of the current block

    def _block(self):
        units = max(1, min(self.left, BLOCK_ENTRIES // 512 // self.unit))
        self.state = self.rng.bit_generator.state
        self.size, self.served = units * self.unit, 0
        return self.rng.random((units, self.unit))

    def drawn(self, draw, count):
        try:
            for self.left in range(count, 0, -1):
                yield draw()
        finally:
            if self.served < self.size:
                self.rng.bit_generator.state = self.state
                self.rng.random(self.served)

    def random(self):
        """The next uniform, as ``Generator.random()``."""
        if self.served == self.size:
            self.floats = self._block().ravel().tolist()
        self.served += 1
        return self.floats[self.served - 1]


class _RoundBlocks(_Blocks):
    """The block sampler's rounds: ``k`` uniforms that propose, all the
    block's proposals found in one search, and ``k`` for the accept pass."""

    def __init__(self, rng, edges, total, k):
        super().__init__(rng, 2 * k)
        self.edges, self.total, self.k = edges, total, k

    def proposals(self):
        """The next round's proposals, as the bytes of ``k`` intp."""
        k = self.k
        if self.served == self.size:
            U = self._block()
            found = self.edges.searchsorted(U[:, :k] * self.total, side="right")
            self.keys, self.width = found.tobytes(), k * found.itemsize
            self.floats = U[:, k:].ravel().tolist()
        at = self.served // (2 * k) * self.width
        self.served += k
        return self.keys[at:at + self.width]

    def uniforms(self):
        """The accept pass's uniforms of the round proposed last."""
        at = (self.served - self.k) // 2
        self.served += self.k
        return self.floats[at:at + self.k]


class RejectionSampler:
    """Volume-sampled pivot sets from an orthonormal-column ``Q``, one per
    :meth:`draw`, or many per :meth:`draws`.

    Each round of a draw proposes ``k = Q.shape[1]`` rows iid from the
    leverage score distribution and filters them through an accept/reject
    pass over the Gram of their residuals against the rows chosen in earlier
    rounds, read from a :class:`HouseholderQR` of those rows as columns of
    ``Q^T``. The rows accepted in the round that completes the set are never
    factored. The returned subset of ``k`` rows follows the distribution with
    probability proportional to ``det(Q[S, :])**2``. ``MAX_ROUNDS`` rounds
    that leave pivots missing signal a numerically deficient ``Q``.

    The constructor checks ``Q`` and computes its leverage scores and their
    cumulative sum once. It keeps a reference to ``Q``, converted to a
    C-order float64 array as the sampler reads it (no copy when it is one
    already): the caller must not write ``Q`` while the object is alive.
    Each round's Gram, with its proposals and their leverage scores, is a
    deterministic function of the row blocks absorbed before it and of its
    proposals, so the object stores it by them, with the residual diagonals
    its accept pass reads (see :class:`_StateStore`), and later draws read
    them; a draw factors the blocks it has absorbed only when a round's
    Gram is missing, and a round whose diagonals are all stored compares
    floats. Every draw consumes the same uniforms, makes the same accept
    decisions and raises the same errors as :func:`rejection_rpqr` on the
    same generator. One object is not safe to draw from in several threads
    at once.

    Raises
    ------
    DimensionMismatchError
        ``Q`` is not 2-D or has no column.
    NotOrthonormalError
        The columns of ``Q`` are not orthonormal to 1e-8, or hold a NaN.
    """

    def __init__(self, Q):
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
        lev = np.einsum("ij,ij->i", Q, Q)  # squared row norms: leverage scores
        cum = lev.cumsum()
        self.Q, self.m, self.k = Q, m, k
        self._edges, self._total = cum[:-1], cum[-1]
        self._lev = lev.tolist()
        self._store = _StateStore()

    def draw(self, rng, _accept_bias=0.0):
        """One pivot set, drawn with ``rng``.

        Returns
        -------
        (PivotSet, int)
            The pivots in selection order, and the number of proposal rounds
            drawn, between 1 and ``MAX_ROUNDS``; ``k = 1`` always takes one.

        Raises
        ------
        MaxRoundsExceededError
            ``MAX_ROUNDS`` rounds left pivots missing.
        RankDeficientUpdateError
            An accepted row repeats a chosen one, which only the test-only
            ``_accept_bias`` corruption (see :func:`_accept_pass`) lets
            through. A repeat accepted in a round that leaves pivots missing
            is refused when a later round's Gram is computed, after that
            round's proposals are drawn.
        """
        edges, total, k = self._edges, self._total, self.k
        return self._draw(
            lambda: _draw_from_cumulative(edges, total, k, rng).tobytes(),
            lambda: rng.random(k).tolist(), _accept_bias)

    def draws(self, rng, count, _accept_bias=0.0):
        """An iterator over ``count`` outcomes of :meth:`draw` with
        ``rng``: the same pivot sets and rounds, and the same first error,
        which ends it. It draws the uniforms of many rounds per generator
        call, finds their proposals in one search, and leaves ``rng``, once
        exhausted or closed, as ``count`` calls of :meth:`draw` would; the
        caller must not use ``rng`` in between."""
        blocks = _RoundBlocks(rng, self._edges, self._total, self.k)
        return blocks.drawn(
            lambda: self._draw(blocks.proposals, blocks.uniforms, _accept_bias), count)

    def _draw(self, propose, uniforms, _accept_bias):
        # the draw loop, over a round's proposals from propose(), as bytes,
        # and its accept pass's uniforms from uniforms(), a list
        Q, k, lev, store = self.Q, self.k, self._lev, self._store
        store.draws += 1
        blocks = ()  # the accepted row blocks, as a nested prefix
        pending = []  # the blocks this draw's QR has not absorbed yet
        qr = None
        chosen = []
        rounds = 0
        while len(chosen) < k:
            if rounds == MAX_ROUNDS:
                raise MaxRoundsExceededError(
                    f"{MAX_ROUNDS} proposal rounds yielded only {len(chosen)} "
                    f"of {k} pivots; Q is likely numerically deficient"
                )
            rounds += 1
            key = blocks, propose()
            entry = store.states.get(key)
            kept = entry is not None
            if not kept:
                proposals = np.frombuffer(key[1], dtype=np.intp)
                C = Q.take(proposals, axis=0).T
                if blocks:
                    if qr is None:
                        qr = HouseholderQR(k)
                    for rows in pending:
                        qr._absorb(Q.take(rows, axis=0).T)
                    pending.clear()
                    # the proposals' residuals in the coordinates the
                    # reflectors leave free: their Gram is that of the
                    # projected-out columns
                    C = qr._complement_t(C)
                proposals = proposals.tolist()
                entry = C.T @ C, [lev[t] for t in proposals], proposals, {}
                # the Gram's entries; it, the key, the tuple, two lists and
                # their items, and the dict of diagonals
                kept = store.keep(key, entry, 8 * k * k + _OBJECT_BYTES * (7 + 3 * k))
            H, lev_p, proposals, diags = entry
            room = k - len(chosen)
            draws = uniforms()
            accepted = _stored_pass(lev_p, draws, diags, _accept_bias, room) if diags else None
            if accepted is None:
                accepted = _accept_pass(H, lev_p, draws, _accept_bias, room,
                                        diags if kept else None, store)
            if accepted:
                new_rows = [proposals[i] for i in accepted]
                chosen.extend(new_rows)
                blocks = blocks, tuple(new_rows)
                pending.append(new_rows)
        # the rows that complete the set skip the QR, and with it its refusal
        # of a duplicate, which only a corrupted accept rule lets through
        if len(set(chosen)) < k:
            raise RankDeficientUpdateError(
                f"the accepted pivots {chosen} repeat a row")
        return PivotSet._unchecked(chosen, self.m), rounds


def rejection_rpqr(Q, rng, _accept_bias=0.0):
    """Draw a volume-sampled pivot set from an orthonormal-column ``Q``: one
    draw of a fresh :class:`RejectionSampler`, which stores no state for a
    single draw. Draw many pivot sets on one basis through one sampler
    object instead.

    Parameters
    ----------
    Q : (m, k) ndarray with orthonormal columns (checked to 1e-8)
    rng : numpy Generator

    Returns
    -------
    (PivotSet, int)
        The pivots in selection order, and the number of proposal rounds
        drawn (see :meth:`RejectionSampler.draw`).

    Raises
    ------
    The errors of :class:`RejectionSampler` and its :meth:`~RejectionSampler.draw`.
    """
    return RejectionSampler(Q).draw(rng, _accept_bias)


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


class SequentialSampler:
    """Randomly pivoted QR column selections of ``k`` columns of ``M``
    (d x m), dense or sparse, one per :meth:`draw`.

    Each step samples a column with probability proportional to its current
    squared residual norm, where the residual is what is left after
    projecting out the columns already chosen. The algorithm is
    left-looking: it keeps an orthonormal basis of the chosen columns,
    orthogonalizes only the drawn column against it (two Gram-Schmidt
    passes), and downdates the squared norms with that column's projection
    ``q @ M``. Sparse ``M`` is read in CSC form, converted once if it comes
    in another.

    A downdated norm that dips below 1e-8 of its value when last computed
    has lost its digits to cancellation, and is replaced by the true
    residual norm (cancellation guard), computed in column blocks of at
    most 16 MB. A column whose true residual is exactly zero is spent, and
    gets the selected columns' negative floor, so the guard never
    recomputes it again.

    The constructor checks ``M`` and ``k`` and computes the squared column
    norms, their floors and cumulative sum once. It keeps a reference to
    ``M`` (a dense float64 ``M`` is not copied) and never writes it: the
    caller must not write ``M`` while the object is alive. An ``M`` whose
    squared norms sum below ``sys.float_info.min / 1e-12`` or overflow is
    kept scaled instead, by the power of two that brings its largest entry
    into ``[1/2, 1)``, which draws the pivots ``M`` would in exact
    arithmetic. The cumulative norms after each pivot prefix, which the
    next step draws from, are a deterministic function of that prefix, so
    the object stores them by it (see :class:`_StateStore`) and later draws
    read them. A draw copies the norms and floors at its first missing step
    and takes in the pivots before it there, in order. Every draw consumes
    the same uniforms and raises the same errors as :func:`rpqr_sequential`
    on the same generator. One object is not safe to draw from in several
    threads at once.

    Raises
    ------
    DimensionMismatchError
        ``M`` is not 2-D, or ``k`` is not in ``[1, min(M.shape)]``.
    InvalidParamError
        ``M`` has a NaN or infinite entry.
    """

    def __init__(self, M, k):
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
        cum = norms2.cumsum()
        total = float(cum[-1])
        if not _NORMAL_TOTAL <= total < math.inf:
            # M scaled by a power of two draws the same pivots, in the window
            e = _scale_exponent(M.data if sparse else M)  # 0 if M is zero or not finite
            if e:
                if sparse:
                    M = sp.csc_array((_scaled(M.data, e), M.indices, M.indptr), shape=M.shape)
                return self.__init__(M if sparse else _scaled(M, e), k)
            if not math.isfinite(total):
                raise InvalidParamError("M has a NaN or infinite entry")
        self.M, self.k, self._sparse = M, k, sparse
        # cancellation floor: 1e-8 of each squared norm at its last computation;
        # selected and spent columns get a negative floor so never look stale
        self._norms2, self._floor = norms2, 1e-8 * norms2
        self._cum, self._total = cum, total
        # a residual mass at or below this is exhausted; keeping it a normal
        # float keeps u * total < total, so no draw lands on a spent column
        self._spent = max(1e-12 * total, sys.float_info.min)
        self._store = _StateStore()

    def draws(self, rng, count):
        """``count`` outcomes of :meth:`draw`, as
        :meth:`RejectionSampler.draws` yields them: the uniforms of many
        draws per generator call, and ``rng`` left as those calls leave it."""
        blocks = _Blocks(rng, self.k)
        return blocks.drawn(lambda: self.draw(blocks), count)

    def draw(self, rng):
        """One pivot set, drawn with ``rng``: the columns in selection order.
        (:meth:`draws` passes its :class:`_Blocks` as ``rng``.)

        Raises
        ------
        RankDeficientError
            The total squared residual norm fell below ``1e-12 * ||M||_F^2``,
            or below the normal float range, before ``k`` pivots were found.
        """
        M, k, sparse, store = self.M, self.k, self._sparse, self._store
        d, m = M.shape
        store.draws += 1
        cum, total = self._cum, self._total
        key = ()  # the pivot prefix, nested
        norms2 = None  # this draw's working state, made at its first miss
        done = 0  # the pivots the working state has taken in
        pivots = []
        while True:
            if total <= self._spent:
                raise RankDeficientError(
                    f"working matrix numerically exhausted after {len(pivots)} pivots"
                )
            s = _draw_one(cum, total, rng)
            pivots.append(s)
            if len(pivots) == k:  # nothing reads the working state after this
                # distinct, since a spent column weighs zero (see _spent)
                return PivotSet._unchecked(pivots, m)
            key = key, s
            state = store.states.get(key)
            if state is not None:
                cum, total = state
                continue
            if norms2 is None:
                norms2, floor = self._norms2.copy(), self._floor.copy()
                basis = None
            for j, p in enumerate(pivots[done:], done + 1):
                q = M[:, [p]].toarray().ravel() if sparse else M[:, p]
                if j > 1:
                    B = basis[: j - 1]
                    q = q - (B @ q) @ B
                    q -= (B @ q) @ B
                q = q / math.sqrt(float(q.dot(q)))
                proj = M.T @ q if sparse else q @ M
                norms2 -= proj * proj
                norms2[p] = 0.0
                floor[p] = -1.0
                below = norms2 < floor
                stale = below.any()
                if stale or j + 1 < k:  # read by the recompute or the next step
                    if basis is None:
                        basis = np.empty((k - 1, d))
                    basis[j - 1] = q
                if stale:
                    cols = np.flatnonzero(below)
                    norms2[cols] = fresh = _residual_norms2(M, cols, basis[:j])
                    floor[cols] = np.where(fresh > 0.0, 1e-8 * fresh, -1.0)
                np.maximum(norms2, 0.0, out=norms2)
            done = len(pivots)
            cum = norms2.cumsum()
            total = float(cum[-1])
            # the array, the key, the tuple, the float and a dict entry
            store.keep(key, (cum, total), 8 * m + 5 * _OBJECT_BYTES)


def rpqr_sequential(M, k, rng):
    """Randomly pivoted QR column selection of ``k`` columns of ``M`` (d x m),
    dense or sparse: one draw of a fresh :class:`SequentialSampler`, which
    stores no state for a single draw and never copies or writes ``M``.
    Draw many selections on one ``M`` through one sampler object instead.

    Returns
    -------
    PivotSet
        The columns in selection order.

    Raises
    ------
    The errors of :class:`SequentialSampler` and its :meth:`~SequentialSampler.draw`.
    """
    return SequentialSampler(M, k).draw(rng)
