"""Sparse sign embedding tests: structure, determinism, and exact agreement
between sketch_apply and the product in canonical order, over any row
blocks, in bounded memory."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rowpick import (
    DimensionMismatchError,
    InvalidParamError,
    InvalidSparsityError,
    MatrixSpec,
    gen_decay_dense,
    sketch_apply,
    sparse_sign_embedding,
)
from rowpick.linalg import BLOCK_ENTRIES
from rowpick.sketch import sketch_times
from rowpick.verify import _canonical_product


def assert_one_per_block(omega, zeta, b):
    """Row ``i``'s ``j``-th nonzero lies in block ``j`` of width ``b``."""
    rows = sp.csr_array(omega)
    rows.sort_indices()
    assert np.all(np.diff(rows.indptr) == zeta)
    blocks = rows.indices.reshape(-1, zeta) // b
    np.testing.assert_array_equal(blocks, np.tile(np.arange(zeta), (omega.shape[0], 1)))


def assert_row_subset_bitwise(A, omega, S):
    """The rows ``S`` of the sketch of ``A`` are the sketch of ``A[S, :]``."""
    assert sketch_apply(A, omega)[S].tobytes() == sketch_apply(A[S, :], omega).tobytes()


class TestConstruction:
    def test_countsketch_like_row(self):
        dense = sparse_sign_embedding(4, 4, 1, np.random.default_rng(0)).toarray()
        assert dense.shape == (4, 4)
        assert np.all(np.sum(dense != 0, axis=1) == 1)
        nz = dense[dense != 0]
        assert set(np.unique(nz)) <= {-1.0, 1.0}

    def test_full_sparsity_is_dense_rows(self):
        omega = sparse_sign_embedding(3, 4, 4, np.random.default_rng(1))
        assert_one_per_block(omega, 4, 1)
        dense = omega.toarray()
        assert np.all(dense != 0)
        assert set(np.unique(np.abs(dense))) == {0.5}

    def test_structure_of_generic_embedding(self):
        dense = sparse_sign_embedding(100, 20, 4, np.random.default_rng(2)).toarray()
        assert np.all(np.sum(dense != 0, axis=1) == 4)
        # one nonzero in each contiguous width-5 block
        for blk in range(4):
            assert np.all(np.sum(dense[:, blk * 5:(blk + 1) * 5] != 0, axis=1) == 1)
        np.testing.assert_allclose(np.sum(dense * dense, axis=1), 1.0, atol=1e-14)

    def test_nnz_count(self):
        omega = sparse_sign_embedding(37, 12, 3, np.random.default_rng(3))
        assert omega.nnz == 37 * 3
        assert omega.format == "csc" and omega.has_canonical_format

    def test_invalid_sparsity(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidSparsityError):
            sparse_sign_embedding(5, 10, 3, rng)
        with pytest.raises(InvalidSparsityError):
            sparse_sign_embedding(5, 2, 4, rng)

    def test_determinism_from_seed(self):
        a = sparse_sign_embedding(50, 12, 4, np.random.default_rng(123))
        b = sparse_sign_embedding(50, 12, 4, np.random.default_rng(123))
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()

    def test_block_column_membership(self):
        omega = sparse_sign_embedding(30, 12, 4, np.random.default_rng(9))
        assert_one_per_block(omega, 4, 3)


class TestApply:
    def test_zero_matrix(self):
        omega = sparse_sign_embedding(6, 4, 2, np.random.default_rng(0))
        out = sketch_apply(np.zeros((3, 6)), omega)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_identity_matrix_densifies(self):
        omega = sparse_sign_embedding(6, 4, 2, np.random.default_rng(1))
        out = sketch_apply(np.eye(6), omega)
        np.testing.assert_array_equal(out, omega.toarray())

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_bitwise_matches_materialized(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((10, 30))
        omega = sparse_sign_embedding(30, 6, 2, rng)
        implicit = sketch_apply(A, omega)
        explicit = _canonical_product(A, omega)
        assert implicit.tobytes() == explicit.tobytes()
        assert_row_subset_bitwise(A, omega, [7, 2, 9])

    def test_dense_close_to_scipy_matmul(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((20, 50))
        omega = sparse_sign_embedding(50, 8, 4, rng)
        lhs = sketch_apply(A, omega)
        rhs = A @ omega.toarray()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_single_entry_propagation(self):
        omega = sparse_sign_embedding(7, 6, 3, np.random.default_rng(4))
        A = sp.csc_array(([2.5], ([1], [3])), shape=(4, 7))
        out = sketch_apply(A, omega)
        expected = np.zeros((4, 6))
        expected[1, :] = 2.5 * omega.toarray()[3, :]
        np.testing.assert_array_equal(out, expected)

    def test_sparse_identity(self):
        omega = sparse_sign_embedding(5, 4, 2, np.random.default_rng(5))
        out = sketch_apply(sp.eye_array(5, format="csc"), omega)
        np.testing.assert_array_equal(out, omega.toarray())

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_bitwise_matches_dense_path(self, seed):
        rng = np.random.default_rng(seed)
        A = sp.random_array(
            (200, 100), density=0.01, format="csc", rng=rng,
            data_sampler=lambda size: rng.standard_normal(size),
        )
        omega = sparse_sign_embedding(100, 12, 4, rng)
        sparse_out = sketch_apply(A, omega)
        dense_out = sketch_apply(A.toarray(), omega)
        assert sparse_out.tobytes() == dense_out.tobytes()
        assert_row_subset_bitwise(A, omega, [150, 3, 77, 4])

    def test_dispatch(self):
        # every sparse format gives the bits of the dense path
        rng = np.random.default_rng(6)
        omega = sparse_sign_embedding(8, 4, 2, rng)
        A = rng.standard_normal((3, 8)) * (rng.random((3, 8)) < 0.5)
        dense_out = sketch_apply(A, omega)
        for S in (sp.csc_array(A), sp.csr_array(A), sp.coo_array(A),
                  sp.csr_matrix(A)):
            assert sketch_apply(S, omega).tobytes() == dense_out.tobytes()

    def test_sparse_duplicates_summed(self):
        # two stored entries at (0, 1) mean their sum, as in the dense copy
        A = sp.csc_array(
            (np.array([1.0, 2.0, 5.0]), np.array([0, 0, 1]), np.array([0, 2, 3, 3])),
            shape=(2, 3),
        )
        assert not A.has_canonical_format
        omega = sparse_sign_embedding(3, 2, 1, np.random.default_rng(0))
        got = sketch_apply(A, omega)
        assert got.tobytes() == sketch_apply(A.toarray(), omega).tobytes()
        assert_row_subset_bitwise(A, omega, [1, 0])
        assert A.data.tolist() == [1.0, 2.0, 5.0]  # the caller's copy is kept

    def test_shape_mismatch(self):
        omega = sparse_sign_embedding(8, 4, 2, np.random.default_rng(7))
        with pytest.raises(DimensionMismatchError):
            sketch_apply(np.zeros((3, 9)), omega)
        with pytest.raises(DimensionMismatchError):
            sketch_apply(sp.csc_array((3, 9)), omega)
        with pytest.raises(DimensionMismatchError):
            sketch_apply(np.zeros(8), omega)


class TestRowBlocks:
    # with BLOCK_ENTRIES = 100, a 51 x 30 input sketched at width 10 runs in
    # blocks of 2 rows (dense) and 10 rows (sparse), each with a one-row
    # last block, and sketch_times runs in 6 blocks of 8 or 9 rows
    @staticmethod
    def _input(sparse):
        rng = np.random.default_rng(11)
        D = rng.standard_normal((51, 30)) * (rng.random((51, 30)) < 0.3)
        return D, (sp.csc_array(D) if sparse else D)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_blocks_keep_bits(self, block_entries, sparse):
        D, A = self._input(sparse)
        omega = sparse_sign_embedding(30, 10, 2, np.random.default_rng(12))
        whole = sketch_apply(A, omega)
        block_entries(100)
        assert sketch_apply(A, omega).tobytes() == whole.tobytes()
        assert whole.tobytes() == _canonical_product(D, omega).tobytes()
        P = np.random.default_rng(13).standard_normal((10, 4))
        assert sketch_times(A, omega, P).tobytes() == (whole @ P).tobytes()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_in_last_block_refused(self, block_entries, sparse):
        D, _ = self._input(sparse)
        D[-1, 4] = np.nan
        A = sp.csc_array(D) if sparse else D
        omega = sparse_sign_embedding(30, 10, 2, np.random.default_rng(12))
        block_entries(100)
        with pytest.raises(InvalidParamError, match="^A has a NaN or infinite entry"):
            sketch_apply(A, omega)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_memory_above_output_is_one_block(self, sparse):
        # the sketch of all of A at once held two to three times its output
        if sparse:
            A = MatrixSpec.parse("sparse-decay:m=40000,n=1000,nnz=30,seed=0").build()
        else:
            A = gen_decay_dense(3000, 2000, np.random.default_rng(0))
        omega = sparse_sign_embedding(A.shape[1], 120, 4, np.random.default_rng(1))
        tracemalloc.start()
        try:
            out = sketch_apply(A, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 1.25 * 8 * BLOCK_ENTRIES


class TestStatisticalIsotropy:
    def test_mean_gram_near_identity(self):
        # average of Omega Omega^T over many seeds approaches I_n
        n, k, zeta, seeds = 10, 8, 4, 2000
        acc = np.zeros((n, n))
        for seed in range(seeds):
            omega = sparse_sign_embedding(n, k, zeta, np.random.default_rng(seed)).toarray()
            acc += omega @ omega.T
        acc /= seeds
        assert np.max(np.abs(acc - np.eye(n))) < 0.1
