"""Structured sparse sign embeddings, and their application over row
blocks in a canonical accumulation order, alone or times a small matrix.

An embedding of dimension ``k`` with row sparsity ``zeta`` (``zeta | k``)
is an ``n x k`` sparse matrix with exactly ``zeta`` nonzeros in every row:
one per contiguous column block of width ``b = k / zeta``, each equal to
``+-zeta**-0.5``. Every row therefore has unit Euclidean norm.

Floating-point reproducibility contract: products against the embedding
accumulate each output entry's contributions in ascending input-column
order ``j`` of ``A``. :func:`sketch_apply` sketches a dense row block as
``(Omega^T @ A[lo:hi]^T)^T`` with ``Omega^T`` in CSR form with sorted
indices, so scipy's ``csr_matvecs`` kernel adds up each output entry over
the nonzeros of one ``Omega^T`` row in ascending column order. It sketches
a sparse row block as ``A[lo:hi] @ Omega`` with both in CSR form with
sorted indices, so the ``csr_matmat`` kernel adds up each output entry over
the nonzeros of one row of ``A``, again in ascending ``j``. A sparse ``A``
and its dense copy therefore give the same bits: the zero entries only add
exact zeros. Each row of the sketch depends on the same row of ``A`` alone,
so any row blocks give the same bits, and the rows ``S`` of the sketch of
``A`` have the bytes of the sketch of ``A[S, :]``.
"""

from math import sqrt

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParamError, InvalidSparsityError
from .linalg import BLOCK_ENTRIES, _canonical, _even_blocks, _row_blocks


def sparse_sign_embedding(n, k, zeta, rng):
    """Sample a fresh embedding, fully determined by ``(n, k, zeta)`` and
    the generator state (or seed) ``rng``, as an ``n x k`` canonical CSC
    matrix with ``n * zeta`` stored entries.

    Draw order is fixed: one uniform stream consumed row-major over
    ``(i, j)``, sign before block index, so a given seed always yields the
    same embedding.

    Raises
    ------
    InvalidSparsityError
        ``zeta`` does not divide ``k`` or exceeds it.
    """
    n, k, zeta = int(n), int(k), int(zeta)
    if n < 1 or k < 1 or zeta < 1:
        raise InvalidParamError("n, k and zeta must all be >= 1")
    if zeta > k or k % zeta != 0:
        raise InvalidSparsityError(
            f"row sparsity {zeta} must divide the embedding dimension {k}"
        )
    rng = np.random.default_rng(rng)
    b = k // zeta
    u = rng.random((n, zeta, 2))
    signs = np.where(u[:, :, 0] < 0.5, -1.0, 1.0)
    block_indices = np.minimum((u[:, :, 1] * b).astype(np.int64), b - 1)
    rows = np.repeat(np.arange(n), zeta)
    cols = (np.arange(zeta) * b + block_indices).ravel()
    vals = signs.ravel() * (1.0 / sqrt(zeta))
    out = sp.csc_array((vals, (rows, cols)), shape=(n, k), dtype=np.float64)
    out.sort_indices()
    return out


def _sketch_input(A, n):
    """``A`` as a float64 dense array or a canonical CSR array of ``n``
    columns."""
    if sp.issparse(A):
        A = _canonical(A, sp.csr_array).astype(np.float64, copy=False)
    else:
        A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionMismatchError(f"A must be m x {n}, got shape {A.shape}")
    return A


def _rows(A, lo, hi):
    """Rows ``lo:hi`` of dense or CSR ``A``, as a view of its arrays."""
    if not sp.issparse(A):
        return A[lo:hi]
    ptr = A.indptr[lo:hi + 1]
    return sp.csr_array(
        (A.data[ptr[0]:ptr[-1]], A.indices[ptr[0]:ptr[-1]], ptr - ptr[0]),
        shape=(hi - lo, A.shape[1]))


def sketch_apply(A, omega):
    """``A @ omega`` for dense or sparse ``A`` and an embedding ``omega``
    from :func:`sparse_sign_embedding`, in the canonical accumulation order
    of the module docstring.

    The product runs over row blocks of ``A`` into one preallocated C-order
    output, so beyond its output it needs about one block of
    ``BLOCK_ENTRIES`` float64 entries (16 MB). Sparse ``A`` is read once as
    a canonical CSR copy, so duplicate entries are summed first, as in its
    dense copy.

    Every entry of ``A`` reaches the product, so a NaN or infinite entry
    leaves one in its block, which is refused with
    :class:`InvalidParamError`.
    """
    A = _sketch_input(A, omega.shape[0])
    n, width = omega.shape
    out = np.empty((A.shape[0], width))
    if sp.issparse(A):
        omega = sp.csr_array(omega)
        block_rows = BLOCK_ENTRIES // width
    else:
        omega = omega.T
        block_rows = BLOCK_ENTRIES // (n + width)
    for lo, hi in _row_blocks(A, max(1, block_rows)):
        if sp.issparse(A):
            block = (_rows(A, lo, hi) @ omega).toarray(out=out[lo:hi])
        else:
            block = out[lo:hi]
            block[...] = (omega @ A[lo:hi].T).T
        if not np.isfinite(block).all():
            raise InvalidParamError(
                "A has a NaN or infinite entry, or its sketch overflows")
    return out


def sketch_times(A, omega, P):
    """``sketch_apply(A, omega) @ P`` for a small ``P`` (width x r), as a
    C-order array, without forming the whole sketch.

    Runs over near-equal row blocks of the sketch, each of at most
    ``BLOCK_ENTRIES`` entries and, when there are several, at least half
    that. Each block is :func:`sketch_apply` of those rows of ``A``, so it
    has their bytes in the whole sketch, and its product with ``P`` is
    written into its rows of the result. Near-equal blocks make each
    product take the BLAS kernel the whole sketch would take: OpenBLAS has
    other kernels, with other rounding, for one-row products and for
    products of at most 10**6 multiply-adds.
    """
    A = _sketch_input(A, omega.shape[0])
    out = np.empty((A.shape[0], P.shape[1]))
    for lo, hi in _even_blocks(A.shape[0], max(1, BLOCK_ENTRIES // omega.shape[1])):
        np.matmul(sketch_apply(_rows(A, lo, hi), omega), P, out=out[lo:hi])
    return out
