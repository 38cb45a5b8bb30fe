"""End-to-end driver: sketch-based rangefinder, volume-sampled pivot
selection, and construction of the interpolation matrix W for the three
output variants, plus residual evaluation.

Variants
--------
``type1``
    ``W = Q @ inv(Q[S, :])``, built from the sampler's QR factors with one
    orthogonal apply and one triangular solve, with no extra factorization.
``type2``
    ``W = A @ pinv(A[S, :])``; the row-span-optimal projection, never worse
    than type1 in Frobenius norm for the same pivots.
``osid``
    ``W = (A @ Phi) @ pinv(A[S, :] @ Phi)`` for a fresh oversampled sketch
    ``Phi``; a fast approximation to type2.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParamError, RankDeficientError
from .linalg import (
    BLOCK_ENTRIES,
    _canonical,
    _scale_exponent,
    _scaled,
    _unscaled_root,
    apply_pinv_right,
    orth,
    svd_pinv_apply,
    vector_norm,
)
from .samplers import PivotSet, rejection_rpqr
from .sketch import sparse_sign_embedding, sketch_apply

VARIANTS = ("type1", "type2", "osid")


@dataclass(frozen=True)
class ArpConfig:
    """Knobs for :func:`arp_decompose`.

    ``oversample`` only matters for the ``osid`` variant (sketch width
    ``round(oversample * k)``, padded up to a multiple of ``zeta``).
    """

    k: int
    zeta: int = 4
    oversample: float = 2.0
    variant: str = "osid"
    seed: object = None

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParamError("k must be >= 1")
        if self.zeta < 1:
            raise InvalidParamError("zeta must be >= 1")
        if self.oversample < 1.0:
            raise InvalidParamError("oversample must be >= 1")
        if self.variant not in VARIANTS:
            raise InvalidParamError(f"variant must be one of {VARIANTS}")


@dataclass(frozen=True, eq=False)
class InterpolativeDecomposition:
    """A row interpolative decomposition ``A ~= W @ A[S, :]``.

    In the decompositions this library builds, ``w[S, :]`` is exactly the
    identity unless ``pinv_fallback`` is set. ``effective_rank`` is the
    number of pivots actually produced, which drops below ``config.k`` when
    the rangefinder detects lower numerical rank. ``pinv_fallback`` flags
    that a rank-deficient pseudoinverse was replaced by its truncated-SVD
    variant, whose pivot rows are left as computed.

    Two decompositions are equal, and hash alike, when their pivots,
    variant, rank, config and fallback flag are equal and ``w`` has the
    same shape and the same bytes.
    """

    pivots: PivotSet
    w: np.ndarray
    variant: str
    effective_rank: int
    config: ArpConfig
    pinv_fallback: bool = False

    def _key(self):
        w = np.asarray(self.w)
        return (self.pivots, w.shape, w.tobytes(), self.variant,
                self.effective_rank, self.config, self.pinv_fallback)

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


def _pinv_apply(A, B):
    """``A @ pinv(B)`` with the documented rank-deficiency fallback."""
    try:
        return apply_pinv_right(A, B), False
    except RankDeficientError:
        return svd_pinv_apply(A, B), True


def build_type1_w(Q, qr):
    """Interpolation matrix ``Q @ inv(Q[S, :])`` from the sampler's QR of
    ``Q^T[:, S]``: one implicit orthogonal apply and one triangular solve.
    """
    Z = qr.apply_qt(Q.T).T  # = Q @ U
    return np.ascontiguousarray(
        sla.solve_triangular(qr.R, Z.T, lower=False).T
    )


def select_pivots(A, cfg, rng):
    """The pivot phase of :func:`arp_decompose`: the rangefinder's basis
    ``Q``, then a volume-sampled pivot set of ``Q``'s rows.

    Returns ``(Q, pivots, qr)``, with ``qr`` the sampler's QR of
    ``Q^T[:, S]``. Draws from ``rng`` in that order: the sketch, then the
    sampler.
    """
    Q = rangefinder(A, cfg.k, cfg.zeta, rng)
    pivots, qr = rejection_rpqr(Q, rng)
    return Q, pivots, qr


def build_w(A, pivots, variant, cfg, rng, basis=None):
    """The decomposition of ``A`` on ``pivots`` with the ``variant``'s
    interpolation matrix ``W``.

    ``type1`` needs ``basis``, the ``(Q, qr)`` pair :func:`select_pivots`
    returns with the pivots. Only ``osid`` draws from ``rng``: one embedding
    of width ``round(cfg.oversample * cfg.k)``, padded up to a multiple of
    ``cfg.zeta``. So after one :func:`select_pivots`, building the variants
    in the order of ``VARIANTS`` gives what separate :func:`arp_decompose`
    calls with the same seed give.

    The pivot rows of ``W`` are set to the identity, which they equal in
    exact arithmetic whenever the inverted or pseudoinverted factor has full
    numerical rank, so everywhere but after the truncated-SVD fallback.
    """
    if variant not in VARIANTS:
        raise InvalidParamError(f"variant must be one of {VARIANTS}")
    fallback = False
    if variant == "type1":
        if basis is None:
            raise InvalidParamError("type1 needs the basis and its QR")
        W = build_type1_w(*basis)
    else:
        rows = _take_rows(A, pivots.indices)
        if variant == "type2":
            W, fallback = _pinv_apply(A, rows)
        else:
            width = _round_up_multiple(int(round(cfg.oversample * cfg.k)), cfg.zeta)
            phi = sparse_sign_embedding(A.shape[1], width, cfg.zeta, rng)
            W, fallback = _pinv_apply(sketch_apply(A, phi), sketch_apply(rows, phi))
    if not fallback:
        W[pivots.indices, :] = np.eye(len(pivots))
    return InterpolativeDecomposition(
        pivots=pivots, w=W, variant=variant, effective_rank=len(pivots),
        config=cfg, pinv_fallback=fallback,
    )


def arp_decompose(A, cfg, rng=None):
    """Compute a row interpolative decomposition of ``A``:
    :func:`select_pivots`, then :func:`build_w` of ``cfg.variant``.

    A pure function of ``(A, cfg, seed)``: the rangefinder sketch, the
    pivot sampler, and (for ``osid``) the oversampling sketch all consume
    one generator stream seeded from ``cfg.seed`` unless an explicit ``rng``
    is supplied.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    Q, pivots, qr = select_pivots(A, cfg, rng)
    return build_w(A, pivots, cfg.variant, cfg, rng, basis=(Q, qr))


def fro_norm(A):
    """Frobenius norm of dense or sparse ``A``, free of overflow and
    underflow at any scale of ``A``."""
    if sp.issparse(A):
        x = _canonical(A, sp.csc_array).data
    else:
        x = np.asarray(A, dtype=np.float64).ravel(order="K")
    return vector_norm(x)


def residual_fro(A, dec, block_rows=None):
    """Frobenius norm of ``A - W @ A[S, :]``, dense or sparse ``A``.

    Runs over blocks of ``block_rows`` rows, by default as many as fit
    ``BLOCK_ENTRIES`` float64 entries (16 MB). The memory it needs
    is that one block plus ``A[S, :]``, and for sparse ``A`` a canonical
    CSR copy when ``A`` is not one, whatever the row count. Each block is
    scaled by the power of two :func:`fro_norm` uses, so
    ``residual_fro(A, dec) / fro_norm(A)`` does not change when ``A`` is
    scaled by a power of two.
    """
    S = dec.pivots.indices
    W = dec.w
    if A.shape[0] != W.shape[0]:
        raise DimensionMismatchError("W row count must match A")
    if len(S) != W.shape[1]:
        raise DimensionMismatchError("W column count must match the pivot count")
    m, n = A.shape
    if block_rows is None:
        block_rows = max(1, BLOCK_ENTRIES // max(n, 1))
    if block_rows < 1:
        raise InvalidParamError("block_rows must be >= 1")
    sparse = sp.issparse(A)
    if sparse:
        A = _canonical(A, sp.csr_array)
        e = _scale_exponent(A.data)
    else:
        A = np.asarray(A, dtype=np.float64)
        e = _scale_exponent(A)
    R = _scaled(_take_rows(A, S), e)
    buf = np.empty((min(block_rows, m), n))
    total = 0.0
    for lo in range(0, m, block_rows):
        hi = min(lo + block_rows, m)
        D = np.matmul(W[lo:hi], R, out=buf[:hi - lo])
        f = D.reshape(-1)
        if sparse:
            ptr = A.indptr[lo:hi + 1]
            at = np.repeat(np.arange(0, (hi - lo) * n, n), np.diff(ptr))
            at += A.indices[ptr[0]:ptr[-1]]
            f[at] -= _scaled(A.data[ptr[0]:ptr[-1]], e)
        else:
            D -= _scaled(A[lo:hi], e)
        total += float(f.dot(f))
    return _unscaled_root(total, e)
