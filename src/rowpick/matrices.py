"""Test-matrix generators and the matrix descriptors of the benchmark
harness, including ``file:`` for a matrix saved to disk.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidParamError
from .linalg import _canonical


def gen_decay_dense(m, n, rng):
    """Dense Gaussian matrix with row ``i`` (1-based) scaled by ``i**-2``.

    Seeded-deterministic: the Gaussian block is drawn row-major in one call.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise InvalidParamError("m and n must be >= 1")
    scale = np.arange(1, m + 1, dtype=np.float64) ** -2.0
    A = rng.standard_normal((m, n))
    A *= scale[:, None]
    return A


def gen_decay_sparse(m, n, nnz_per_col, rng):
    """Sparse analogue of :func:`gen_decay_dense` in canonical CSC form.

    Each column holds ``nnz_per_col`` Gaussian values at distinct uniform
    row positions, then row ``i`` (1-based) is scaled by ``i**-2``. Columns
    are drawn in order (positions, then values).
    """
    m, n, nnz_per_col = int(m), int(n), int(nnz_per_col)
    if m < 1 or n < 1:
        raise InvalidParamError("m and n must be >= 1")
    if not 1 <= nnz_per_col <= m:
        raise InvalidParamError(f"need 1 <= nnz_per_col <= {m}")
    indptr = np.arange(0, n * nnz_per_col + 1, nnz_per_col)
    indices = np.empty(n * nnz_per_col, dtype=np.int64)
    data = np.empty(n * nnz_per_col)
    for j in range(n):
        lo = j * nnz_per_col
        pos = np.sort(rng.choice(m, size=nnz_per_col, replace=False))
        vals = rng.standard_normal(nnz_per_col)
        indices[lo: lo + nnz_per_col] = pos
        data[lo: lo + nnz_per_col] = vals * (pos + 1.0) ** -2.0
    return sp.csc_array((data, indices, indptr), shape=(m, n))


def gen_kernel(grid_side):
    """Inverse-distance kernel between two disjoint planar grids.

    Source points are the ``g x g`` equispaced grid on ``[0,1)^2`` (spacing
    ``1/g``, origin 0, row-major over (row, col) coordinates); targets are
    the same grid shifted to ``[1,2) x [0,1)``. Entry ``(i, j)`` is the
    reciprocal distance between source ``i`` and target ``j``; the grids
    never meet, so all entries are finite and positive. Deterministic.
    """
    g = int(grid_side)
    if g < 1:
        raise InvalidParamError("grid side must be >= 1")
    t = np.arange(g, dtype=np.float64) / g
    # point (a, b) is row a * g + b; its squared distance to target (c, e)
    # is (t[a] - (t[c] + 1))**2 + (t[b] - t[e])**2, summed into the one
    # g^2 x g^2 array, then rooted and inverted in place
    dx2 = np.square(np.subtract.outer(t, t + 1.0))
    dy2 = np.square(np.subtract.outer(t, t))
    K = np.add(dx2[:, None, :, None], dy2[None, :, None, :]).reshape(g * g, g * g)
    np.sqrt(K, out=K)
    return np.reciprocal(K, out=K)


# descriptor defaults: (desk scale, full scale)
_DENSE_SIZES = ((2000, 2000), (10000, 10000))
_SPARSE_SIZES = ((100000, 2000, 30), (1000000, 10000, 30))
_KERNEL_SIDES = (40, 100)

KINDS = ("dense-decay", "sparse-decay", "kernel", "file")


@dataclass(frozen=True)
class MatrixSpec:
    """Descriptor for a benchmark matrix; parse/describe round-trips.

    Generator kinds (``dense-decay``, ``sparse-decay``, ``kernel``) build
    deterministically from their parameters and ``seed``; ``file`` loads
    from ``path``.
    """

    kind: str
    m: int = None
    n: int = None
    nnz_per_col: int = None
    grid_side: int = None
    path: str = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParamError(f"unknown matrix kind {self.kind!r}")
        for name in ("m", "n", "nnz_per_col", "grid_side"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InvalidParamError(f"{name} must be positive")
        if self.seed < 0:
            raise InvalidParamError(f"seed must be >= 0, got {self.seed}")
        if self.kind == "file" and not self.path:
            raise InvalidParamError(f"kind {self.kind!r} requires a path")

    @classmethod
    def parse(cls, text, full_scale=False):
        """Parse ``kind[:key=value,...]`` descriptors, e.g.
        ``kernel:g=40``, ``dense-decay:m=500,n=300,seed=7``,
        ``file:path=A.npz``. Missing sizes fall
        back to desk-scale defaults (paper-scale with ``full_scale``).
        A ``file`` path is everything after ``path=``, commas included.
        """
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind == "file":
            key, eq, path = rest.partition("=")
            if not eq or key.strip() != "path":
                raise InvalidParamError(f"{kind} descriptor needs path=...")
            return cls(kind, path=path.strip())
        kv = {}
        if rest:
            for part in rest.split(","):
                key, eq, value = part.partition("=")
                if not eq:
                    raise InvalidParamError(
                        f"bad descriptor field {part!r}; expected key=value"
                    )
                kv[key.strip()] = value.strip()
        scale = 1 if full_scale else 0
        if kind == "dense-decay":
            dm, dn = _DENSE_SIZES[scale]
            return cls(kind, m=_pop_int(kv, "m", dm), n=_pop_int(kv, "n", dn),
                       seed=_pop_int(kv, "seed", 0), **_reject_extra(kv))
        if kind == "sparse-decay":
            dm, dn, dnnz = _SPARSE_SIZES[scale]
            return cls(kind, m=_pop_int(kv, "m", dm), n=_pop_int(kv, "n", dn),
                       nnz_per_col=_pop_int(kv, "nnz", dnnz),
                       seed=_pop_int(kv, "seed", 0), **_reject_extra(kv))
        if kind == "kernel":
            return cls(kind, grid_side=_pop_int(kv, "g", _KERNEL_SIDES[scale]),
                       **_reject_extra(kv))
        raise InvalidParamError(f"unknown matrix kind {kind!r}")

    def describe(self):
        if self.kind == "dense-decay":
            return f"dense-decay:m={self.m},n={self.n},seed={self.seed}"
        if self.kind == "sparse-decay":
            return (f"sparse-decay:m={self.m},n={self.n},"
                    f"nnz={self.nnz_per_col},seed={self.seed}")
        if self.kind == "kernel":
            return f"kernel:g={self.grid_side}"
        return f"{self.kind}:path={self.path}"

    def build(self):
        """Materialize the matrix (dense ndarray or CSC)."""
        if self.kind == "dense-decay":
            return gen_decay_dense(self.m, self.n, np.random.default_rng(self.seed))
        if self.kind == "sparse-decay":
            return gen_decay_sparse(
                self.m, self.n, self.nnz_per_col, np.random.default_rng(self.seed)
            )
        if self.kind == "kernel":
            return gen_kernel(self.grid_side)
        return _load_file(self.path)


def _load_file(path):
    """The matrix saved at ``path``: a ``.npy`` array as a dense array, or a
    ``.npz`` that ``scipy.sparse.save_npz`` wrote as a canonical CSC array,
    as ``np.load`` finds. Anything but a real 2-D matrix is refused."""
    try:
        A = np.load(path)
        if isinstance(A, np.lib.npyio.NpzFile):
            A.close()
            A = sp.load_npz(path)
    except (ValueError, EOFError) as exc:
        raise InvalidParamError(f"{path} does not hold a saved matrix: {exc}") from None
    if A.dtype.kind not in "biuf":
        raise InvalidParamError(f"{path} holds {A.dtype} values, not real numbers")
    if A.ndim != 2:
        raise DimensionMismatchError(f"{path} does not hold a 2-D array")
    if sp.issparse(A):
        return _canonical(A, sp.csc_array).astype(np.float64, copy=False)
    return np.asarray(A, dtype=np.float64)


def _pop_int(kv, key, default):
    value = kv.pop(key, default)
    try:
        return int(value)
    except ValueError:
        raise InvalidParamError(
            f"descriptor field {key}={value!r} is not an integer") from None


def _reject_extra(kv):
    if kv:
        raise InvalidParamError(f"unknown descriptor fields: {sorted(kv)}")
    return {}
