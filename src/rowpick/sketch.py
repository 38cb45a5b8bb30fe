"""Structured sparse sign embeddings, and their application as one sparse
product.

An embedding of dimension ``k`` with row sparsity ``zeta`` (``zeta | k``)
places exactly ``zeta`` nonzeros in every row of the implied ``n x k``
matrix: one per contiguous column block of width ``b = k / zeta``, each
equal to ``+-zeta**-0.5``. Every row therefore has unit Euclidean norm.

Floating-point reproducibility contract: products against the embedding
accumulate each output column's contributions in ascending input-row order.
:func:`sketch_apply` computes ``A @ Omega`` as ``(Omega^T @ A^T)^T`` with
``Omega^T`` in CSR form with sorted indices, so scipy's ``csr_matvecs``
(dense ``A``) and ``csr_matmat`` (sparse ``A``) kernels add up each output
entry over the nonzeros of one ``Omega^T`` row in ascending column order,
which is that canonical order. A sparse ``A`` and its dense copy therefore
give the same bits: the zero entries only add exact zeros.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParamError, InvalidSparsityError
from .linalg import _canonical


@dataclass(frozen=True)
class SparseSignEmbedding:
    """Implicit representation of one sampled embedding.

    ``signs[i, j]`` and ``block_indices[i, j]`` give the sign and the
    within-block column (0-based, in ``[0, b)``) of row ``i``'s nonzero in
    block ``j``; the actual column is ``j * b + block_indices[i, j]`` and the
    value is ``signs[i, j] * zeta**-0.5``.

    ``seed`` records the constructing seed when one was given, else None
    (determinism then rests with the caller's generator state).
    """

    n: int
    k: int
    zeta: int
    b: int
    signs: np.ndarray
    block_indices: np.ndarray
    seed: object = None


def sparse_sign_embedding(n, k, zeta, rng):
    """Sample a fresh embedding, fully determined by ``(n, k, zeta)`` and
    the generator state.

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
    if isinstance(rng, np.random.Generator):
        seed = None
    else:
        seed = rng
        rng = np.random.default_rng(rng)
    b = k // zeta
    u = rng.random((n, zeta, 2))
    signs = np.where(u[:, :, 0] < 0.5, -1.0, 1.0)
    block_indices = np.minimum((u[:, :, 1] * b).astype(np.int64), b - 1)
    return SparseSignEmbedding(
        n=n, k=k, zeta=zeta, b=b, signs=signs, block_indices=block_indices,
        seed=seed,
    )


def materialize(emb):
    """Explicit ``n x k`` sparse matrix (canonical CSC) with ``n * zeta``
    stored entries."""
    n, zeta, b = emb.n, emb.zeta, emb.b
    scale = 1.0 / sqrt(zeta)
    rows = np.repeat(np.arange(n), zeta)
    cols = (np.arange(zeta) * b + emb.block_indices).ravel()
    vals = emb.signs.ravel() * scale
    out = sp.csc_array(
        (vals, (rows, cols)), shape=(n, emb.k), dtype=np.float64
    )
    out.sort_indices()
    return out


def sketch_apply(A, emb):
    """``A @ Omega`` for dense or sparse ``A``, as one sparse product against
    :func:`materialize`'s output in the canonical accumulation order.

    Sparse ``A`` is read in canonical CSC form, so duplicate entries are
    summed first, as in its dense copy.
    """
    if sp.issparse(A):
        A = _canonical(A, sp.csc_array).astype(np.float64, copy=False)
    else:
        A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != emb.n:
        raise DimensionMismatchError(
            f"A must be m x {emb.n}, got shape {A.shape}"
        )
    out_t = materialize(emb).T @ A.T
    if sp.issparse(out_t):
        out_t = out_t.toarray()
    return np.ascontiguousarray(out_t.T)
