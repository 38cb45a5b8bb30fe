"""End-to-end driver: sketch-based rangefinder, volume-sampled pivot
selection, and construction of the interpolation matrix W for the three
output variants, plus residual evaluation.

Variants
--------
Each ``W`` is ``X @ P``, one product with the ``P`` that
:func:`~rowpick.linalg.pinv` forms from ``X[S, :]``.

``type1``
    ``W = Q @ inv(Q[S, :])`` for the rangefinder's basis ``Q``.
``type2``
    ``W = A @ pinv(A[S, :])``; the row-span-optimal projection, never worse
    than type1 in Frobenius norm for the same pivots.
``osid``
    ``W = Y @ pinv(Y[S, :])`` for the sketch ``Y = A @ Phi`` by a fresh
    embedding ``Phi`` of width ``2k``; a fast approximation to type2.

Empty rows
----------
A row of ``A`` with no nonzero has zero leverage in every basis of the
range of ``A`` and zero norm, so no sampler pivots it, and every variant
gives it a zero row of ``W``. :func:`arp_decompose` (like ``run_method``
and ``run_bench``) decomposes the other rows, ``A[rows]``, as a matrix of
their own (see :func:`_nonempty_rows`) and lifts the result back to ``m``
rows, so an empty row costs nothing. The phases :func:`select_pivots` and
:func:`build_w` run on every row they are given: on an ``A`` with empty
rows they still give a valid decomposition, but not always bit for bit
the one :func:`arp_decompose` gives.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParamError, RankDeficientError
from .linalg import (
    BLOCK_ENTRIES,
    _canonical,
    _row_blocks,
    _scale_exponent,
    _scaled,
    _unscaled_root,
    orth,
    pinv,
    vector_norm,
)
from .samplers import PivotSet, rejection_rpqr
from .sketch import sketch_apply, sketch_times, sparse_sign_embedding

VARIANTS = ("type1", "type2", "osid")


@dataclass(frozen=True)
class ArpConfig:
    """Knobs for :func:`arp_decompose`; the ``osid`` sketch width is ``2k``.

    ``zeta = 1`` sends each of ``A``'s ``n`` columns to one of the ``k``
    sketch columns, so about ``k * (1 - 1/k)**n`` of them stay empty and
    the basis loses that much rank when ``k`` is near ``n``: on a 30 x 20
    Gaussian at ``k = 20`` the mean ``effective_rank`` is 12.85, against
    19.57 with ``zeta = 4``.
    """

    k: int
    zeta: int = 4
    variant: str = "osid"
    seed: object = None

    def __post_init__(self):
        for name in ("k", "zeta"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidParamError(f"{name} must be an integer >= 1, got {value!r}")
        if self.variant not in VARIANTS:
            raise InvalidParamError(f"variant must be one of {VARIANTS}")


@dataclass(frozen=True, eq=False)
class InterpolativeDecomposition:
    """A row interpolative decomposition ``A ~= W @ A[S, :]``.

    In the decompositions this library builds, ``w[S, :]`` is exactly the
    identity unless ``pinv_fallback`` is set. ``variant`` is
    ``config.variant``. ``effective_rank`` is the number of pivots actually
    produced, which drops below ``config.k`` when the rangefinder detects
    lower numerical rank. ``pinv_fallback`` flags that the factor ``W``
    inverts or pseudoinverts (``Q[S, :]`` for ``type1``, ``A[S, :]`` or its
    sketch for the others) was numerically rank deficient, so its
    pseudoinverse came from a truncated SVD and the pivot rows of ``w`` are
    left as computed.

    Two decompositions are equal, and hash alike, when their pivots,
    config and fallback flag are equal and ``w`` has the same shape and the
    same bytes.
    """

    pivots: PivotSet
    w: np.ndarray
    config: ArpConfig
    pinv_fallback: bool = False

    @property
    def variant(self):
        return self.config.variant

    @property
    def effective_rank(self):
        return len(self.pivots)

    def _key(self):
        w = np.asarray(self.w)
        return (self.pivots, w.shape, w.tobytes(), self.config,
                self.pinv_fallback)

    def __eq__(self, other):
        if not isinstance(other, InterpolativeDecomposition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _round_up_multiple(k, zeta):
    return ((k + zeta - 1) // zeta) * zeta


def _take_rows(A, idx):
    if sp.issparse(A):
        return sp.csr_array(A)[idx, :].toarray().astype(np.float64, copy=False)
    return np.asarray(A[idx, :], dtype=np.float64)


def _nonempty_rows(A, k, zeta):
    """``(rows, A[rows])`` for the ascending indices ``rows`` of the rows
    of ``A`` that hold a nonzero, or ``(None, A)`` when every row does, or
    fewer than the rangefinder's sketch width ``round_up(k, zeta)`` do, or
    ``k`` exceeds the column count.

    A NaN counts as a nonzero and a stored zero does not. A sparse
    ``A[rows]`` is a canonical CSR array. The fallbacks keep ``A`` whole,
    and with it the arithmetic on the whole ``A``: the rangefinder narrows
    its sketch on fewer rows than its width, which would change its draws,
    and a ``k`` past the column count is refused with ``A``'s own shape.
    """
    m = A.shape[0]
    if sp.issparse(A):
        C = _canonical(A, sp.csr_array)
        live = np.zeros(m, dtype=bool)
        live[np.repeat(np.arange(m), np.diff(C.indptr))[C.data != 0]] = True
    else:
        C = np.asarray(A)
        if C[:, :1].all():  # a nonzero in the first column: every row has one
            return None, A
        live = C.any(axis=1)
    rows = np.flatnonzero(live)
    if k > A.shape[1] or not _round_up_multiple(k, zeta) <= rows.size < m:
        return None, A
    return rows, C[rows]


def _lift_decomposition(rows, m, dec):
    """The decomposition ``dec`` of ``A[rows]`` as one of the ``m``-row
    ``A`` whose other rows are zero: its pivots mapped through ``rows``,
    its ``W`` lifted to ``m`` rows with zeros; ``dec`` itself when ``rows``
    is None."""
    if rows is None:
        return dec
    w = np.zeros((m, dec.w.shape[1]))
    w[rows] = dec.w
    return InterpolativeDecomposition(
        pivots=PivotSet(rows[dec.pivots.indices], m), w=w,
        config=dec.config, pinv_fallback=dec.pinv_fallback)


def rangefinder(A, k, zeta, rng):
    """Orthonormal ``Q`` approximating the range of ``A`` from one sketch.

    The sketch width is ``k`` rounded up to a multiple of ``zeta``, or
    ``k`` itself with row sparsity ``gcd(k, zeta)`` when that multiple
    exceeds the row count; after orthonormalization the basis is truncated
    back to at most ``k`` columns. A width below ``k`` reports numerical
    rank deficiency of the sketch and is not an error; a width of 0 is.

    Raises
    ------
    RankDeficientError
        The sketch of ``A`` is zero.
    """
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise DimensionMismatchError(f"need 1 <= k <= min{A.shape}, got {k}")
    width = _round_up_multiple(k, zeta)
    if width > m:
        width, zeta = k, math.gcd(k, zeta)
    emb = sparse_sign_embedding(n, width, zeta, rng)
    Q = orth(sketch_apply(A, emb))
    if not Q.shape[1]:
        raise RankDeficientError("A is numerically zero: its sketch has rank 0")
    if Q.shape[1] > k:
        Q = np.ascontiguousarray(Q[:, :k])
    return Q


def build_type1_w(Q, pivots):
    """``(W, fallback)`` for ``W = Q @ inv(Q[S, :])``, as ``Q @ P`` with
    ``(P, fallback)`` the :func:`~rowpick.linalg.pinv` of ``Q[S, :]``."""
    P, fallback = pinv(Q[pivots.indices])
    return Q @ P, fallback


def select_pivots(A, cfg, rng):
    """The pivot phase of :func:`arp_decompose`: the rangefinder's basis
    ``Q``, then a volume-sampled pivot set of ``Q``'s rows.

    Returns ``(Q, pivots)``. Draws from ``rng`` in that order: the sketch,
    then the sampler, both on every row of ``A`` (see Empty rows in the
    module docstring).
    """
    Q = rangefinder(A, cfg.k, cfg.zeta, rng)
    return Q, rejection_rpqr(Q, rng)[0]


def build_w(A, pivots, cfg, rng, basis=None):
    """The decomposition of ``A`` on ``pivots`` with the interpolation
    matrix ``W`` of ``cfg.variant``.

    ``type1`` needs ``basis``, the ``Q`` :func:`select_pivots` returns with
    the pivots. Only ``osid`` draws from ``rng``: one embedding of the fixed
    width ``2 * cfg.k``, padded up to a multiple of ``cfg.zeta``. So after
    one :func:`select_pivots`, building the variants in the order of
    ``VARIANTS`` gives what separate :func:`arp_decompose` calls with the
    same seed give.

    Every variant is ``X @ P`` for ``(P, fallback)`` the
    :func:`~rowpick.linalg.pinv` of ``X[S, :]``, with ``X`` the basis
    ``Q``, ``A`` itself, or the sketch ``A @ Phi``: the ``n x k``
    pseudoinverse is formed once, then multiplied by ``X``. When ``X[S, :]``
    has full numerical rank, the pivot rows of ``W``, which then equal the
    identity in exact arithmetic, are set to it; otherwise ``P`` comes from
    the truncated-SVD fallback, ``W`` is left as computed, and
    ``pinv_fallback`` is set. ``osid`` takes ``X[S, :]`` as the sketch of
    ``A[S, :]``, which has its bytes, and forms ``X @ P`` by
    :func:`~rowpick.sketch.sketch_times`, so it never forms the whole
    sketch.

    ``W`` is built on every row of ``A`` (see Empty rows in the module
    docstring), whose rows ``pivots`` and ``basis`` must index; other row
    counts raise :class:`DimensionMismatchError`.
    """
    m = A.shape[0]
    if pivots.m != m or (basis is not None and basis.shape[0] != m):
        raise DimensionMismatchError("pivots and basis must index the rows of A")
    S = pivots.indices
    if cfg.variant == "type1":
        if basis is None:
            raise InvalidParamError("type1 needs the basis Q")
        W, fallback = build_type1_w(basis, pivots)
    elif cfg.variant == "type2":
        P, fallback = pinv(_take_rows(A, S))
        W = np.ascontiguousarray(A @ P)
    else:
        omega = sparse_sign_embedding(
            A.shape[1], _round_up_multiple(2 * cfg.k, cfg.zeta), cfg.zeta, rng)
        P, fallback = pinv(sketch_apply(_take_rows(A, S), omega))
        W = sketch_times(A, omega, P)
    if not fallback:
        W[S, :] = np.eye(len(pivots))
    return InterpolativeDecomposition(
        pivots=pivots, w=W, config=cfg, pinv_fallback=fallback)


def arp_decompose(A, cfg, rng=None):
    """Compute a row interpolative decomposition of ``A``:
    :func:`select_pivots`, then :func:`build_w` of ``cfg.variant``.

    A pure function of ``(A, cfg, seed)``: the rangefinder sketch, the
    pivot sampler, and (for ``osid``) the width-``2k`` sketch all consume
    one generator stream seeded from ``cfg.seed`` unless an explicit ``rng``
    is supplied. Both phases run on the rows of ``A`` that hold a nonzero
    (see Empty rows in the module docstring).
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    rows, B = _nonempty_rows(A, cfg.k, cfg.zeta)
    Q, pivots = select_pivots(B, cfg, rng)
    return _lift_decomposition(rows, A.shape[0], build_w(B, pivots, cfg, rng, basis=Q))


def fro_norm(A):
    """Frobenius norm of dense or sparse ``A``, free of overflow and
    underflow at any scale of ``A``."""
    if sp.issparse(A):
        x = _canonical(A, sp.csc_array).data
    else:
        x = np.asarray(A, dtype=np.float64).ravel(order="K")
    return vector_norm(x)


def residual_fro(A, dec):
    """Frobenius norm of ``A - W @ A[S, :]``, dense or sparse ``A``.

    Runs over blocks of as many rows as fit ``BLOCK_ENTRIES`` float64
    entries (16 MB) of the product ``W @ A[S, :]`` and of the rows of ``W``
    gathered for it when rows are skipped (below). The memory it needs is
    that one block plus ``A[S, :]``, and for sparse ``A`` a canonical CSR
    copy when ``A`` is not one, whatever the row count.
    Each block is scaled by the power of two :func:`fro_norm` uses, so
    ``residual_fro(A, dec) / fro_norm(A)`` does not change when ``A`` is
    scaled by a power of two.

    For sparse ``A`` the product runs only over the set ``C`` of columns
    that ``A[S, :]`` touches: outside ``C`` the residual is ``A`` itself,
    whose stored squares are summed as they stream past. The cost is
    ``nnz(A)`` plus ``m * |C| * k`` in place of ``m * n * k``. A row where
    sparse ``A`` stores no entry and ``W`` is zero adds exactly zero, so
    such rows are skipped: a row of ``A`` with no nonzero costs nothing
    beyond the check of its row of ``W``. The result agrees with the dense
    one to summation order, and bit for bit when ``C`` holds every column
    and no row is skipped.
    """
    S = dec.pivots.indices
    W = dec.w
    if A.shape[0] != W.shape[0]:
        raise DimensionMismatchError("W row count must match A")
    if len(S) != W.shape[1]:
        raise DimensionMismatchError("W column count must match the pivot count")
    sparse = sp.issparse(A)
    rows = None
    if sparse:
        A = _canonical(A, sp.csr_array)
        e = _scale_exponent(A.data)
    else:
        A = np.asarray(A, dtype=np.float64)
        e = _scale_exponent(A)
    R = _scaled(_take_rows(A, S), e)
    if sparse:
        # column c of W @ A[S, :] is exactly zero where column c of A[S, :] is
        support = R.any(axis=0)
        slot = np.cumsum(support) - 1  # column of A -> column of R[:, C]
        R = np.ascontiguousarray(R[:, support])
        live = np.diff(A.indptr) > 0
        if not live.all():
            live |= (W != 0).any(axis=1)
        if not live.all():
            rows = np.flatnonzero(live)
            # the skipped rows store no entry, so A's data and indices serve
            A = sp.csr_array((A.data, A.indices, A.indptr[np.append(rows, A.shape[0])]),
                             shape=(rows.size, A.shape[1]))
    width = R.shape[1]
    # the block of the product, and the rows of W gathered for it
    gathered = 0 if rows is None else W.shape[1]
    block_rows = max(1, BLOCK_ENTRIES // max(width + gathered, 1))
    buf = np.empty((min(block_rows, A.shape[0]), width))
    total = 0.0
    for lo, hi in _row_blocks(A, block_rows):
        D = np.matmul(W[lo:hi] if rows is None else W[rows[lo:hi]], R,
                      out=buf[:hi - lo])
        f = D.reshape(-1)
        if sparse:
            ptr = A.indptr[lo:hi + 1]
            x = _scaled(A.data[ptr[0]:ptr[-1]], e)
            col = A.indices[ptr[0]:ptr[-1]]
            on = support[col]
            off = x[~on]
            total += float(off.dot(off))
            at = np.repeat(np.arange(hi - lo) * width, np.diff(ptr))[on]
            at += slot[col[on]]
            f[at] -= x[on]
        else:
            D -= _scaled(A[lo:hi], e)
        total += float(f.dot(f))
    return _unscaled_root(total, e)
