"""Anatomy of the structured sparse sign embedding used for sketching.

Every row of the n x k embedding has exactly zeta nonzeros, one in each
contiguous block of k/zeta columns, with values +-zeta^{-1/2}. Products
against it cost O(zeta) per matrix entry instead of O(k).
"""

import numpy as np

import rowpick as rp

rng = np.random.default_rng(3)
k, zeta = 8, 2
omega = rp.sparse_sign_embedding(n=8, k=k, zeta=zeta, rng=rng)

print(f"omega: {omega.shape[0]} x {omega.shape[1]} sparse, zeta={zeta}, "
      f"block width b={k // zeta}, {omega.nnz} stored entries")
print("signs of the embedding (0 = empty):\n")
dense = omega.toarray()
print(np.array2string(np.sign(dense).astype(int), separator=" "))
print(f"\nnonzeros per row: {np.unique(np.sum(dense != 0, axis=1))}")
print(f"row norms:        {np.unique(np.sum(dense * dense, axis=1))}")

# sketch_apply multiplies by the matrix above over row blocks of A, summed
# in the library's canonical order (ascending input column of A per output
# entry); it agrees with a dense BLAS product to roundoff
A = rng.standard_normal((5, 8))
sketch = rp.sketch_apply(A, omega)
print(f"\nmax |sketch_apply(A, omega) - A @ omega| = "
      f"{np.max(np.abs(sketch - A @ dense)):.2e}")

# sketch quality: a width-k sketch of a decaying 200x200 matrix captures
# its range nearly as well as the exact rank-k truncation
A = np.arange(1, 201.0)[:, None] ** -2.0 * rng.standard_normal((200, 200))
k = 20
Q = rp.rangefinder(A, k, rng)
sv = np.linalg.svd(A, compute_uv=False)
optimal = np.sqrt(np.sum(sv[k:] ** 2))
err = np.linalg.norm(A - Q @ (Q.T @ A))
print(f"\nrangefinder residual {err:.3e} vs optimal rank-{k} error {optimal:.3e}")
