"""Structured sparse sign embeddings, and their application as one sparse
product.

An embedding of dimension ``k`` with row sparsity ``zeta`` (``zeta | k``)
is an ``n x k`` sparse matrix with exactly ``zeta`` nonzeros in every row:
one per contiguous column block of width ``b = k / zeta``, each equal to
``+-zeta**-0.5``. Every row therefore has unit Euclidean norm.

Floating-point reproducibility contract: products against the embedding
accumulate each output column's contributions in ascending input-row order.
:func:`sketch_apply` computes ``A @ Omega`` as ``(Omega^T @ A^T)^T`` with
``Omega^T`` in CSR form with sorted indices, so scipy's ``csr_matvecs``
(dense ``A``) and ``csr_matmat`` (sparse ``A``) kernels add up each output
entry over the nonzeros of one ``Omega^T`` row in ascending column order,
which is that canonical order. A sparse ``A`` and its dense copy therefore
give the same bits: the zero entries only add exact zeros. Each row of the
sketch depends on the same row of ``A`` alone, so the rows ``S`` of the
sketch of ``A`` have the bytes of the sketch of ``A[S, :]``.
"""

from math import sqrt

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParamError, InvalidSparsityError
from .linalg import _canonical


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


def sketch_apply(A, omega):
    """``A @ omega`` for dense or sparse ``A`` and an embedding ``omega``
    from :func:`sparse_sign_embedding`, as one sparse product in the
    canonical accumulation order.

    Sparse ``A`` is read in canonical CSC form, so duplicate entries are
    summed first, as in its dense copy. Every entry of ``A`` reaches the
    product, so a NaN or infinite entry leaves one in the output, which is
    refused with :class:`InvalidParamError`.
    """
    if sp.issparse(A):
        A = _canonical(A, sp.csc_array).astype(np.float64, copy=False)
    else:
        A = np.asarray(A, dtype=np.float64)
    n = omega.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionMismatchError(f"A must be m x {n}, got shape {A.shape}")
    out_t = omega.T @ A.T
    if sp.issparse(out_t):
        out_t = out_t.toarray()
    if not np.isfinite(out_t).all():
        raise InvalidParamError(
            "A has a NaN or infinite entry, or its sketch overflows")
    return np.ascontiguousarray(out_t.T)
