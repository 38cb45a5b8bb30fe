"""Dense kernel tests: orthonormalization, the block sampler's appendable
Householder QR, and the pseudoinverse against an independent SVD
oracle."""

import tracemalloc

import numpy as np
import pytest

from rowpick import (
    DimensionMismatchError,
    EmptyMatrixError,
    InvalidParamError,
    RankDeficientUpdateError,
    orth,
    pinv,
)
from rowpick import linalg
from rowpick.samplers import HouseholderQR


class TestOrth:
    def test_identity_is_fixed_point(self):
        Q = orth(np.eye(3))
        np.testing.assert_allclose(np.abs(Q), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-14)

    def test_scaled_orthogonal_columns(self):
        B = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
        Q = orth(B)
        assert Q.shape == (3, 2)
        np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-14)
        # columns are +-e1 and +-e3 in some order
        support = {tuple(np.flatnonzero(np.abs(Q[:, j]) > 1e-12)) for j in range(2)}
        assert support == {(0,), (2,)}

    def test_random_tall_matrix(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((50, 8))
        Q = orth(B)
        assert Q.shape == (50, 8)
        assert np.linalg.norm(Q.T @ Q - np.eye(8)) <= 1e-12
        resid = B - Q @ (Q.T @ B)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(B)

    def test_rank_deficient_input_reports_reduced_width(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((20, 3))
        B = np.hstack([base, base @ rng.standard_normal((3, 2))])
        Q = orth(B)
        assert Q.shape == (20, 3)
        resid = B - Q @ (Q.T @ B)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        B = np.random.default_rng(9).standard_normal((8, 3))
        B[2, 1] = bad
        with pytest.raises(InvalidParamError, match="NaN or infinite"):
            orth(B)

    def test_empty_and_bad_shapes(self):
        with pytest.raises(EmptyMatrixError):
            orth(np.zeros((4, 0)))
        with pytest.raises(DimensionMismatchError):
            orth(np.zeros((2, 5)))

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormality_invariant(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((30, 6))
        Q = orth(B)
        k = Q.shape[1]
        assert np.linalg.norm(Q.T @ Q - np.eye(k)) <= 1e-12 * np.sqrt(k)


class TestTallOrth:
    """``orth`` of inputs taller than one leaf. ``QR_LEAF_ROWS`` is patched
    to 64, so a 3000-row input spans 47 leaves, whose 376 stacked ``R`` rows
    span 6 more, and the 48 rows of those are one QR."""

    LEAF = 64

    @pytest.fixture
    def leaf_rows(self, monkeypatch):
        def set_to(rows):
            monkeypatch.setattr(linalg, "QR_LEAF_ROWS", rows)
        return set_to

    @staticmethod
    def _both(B, leaf_rows, leaf):
        """``orth(B)`` in one leaf and in leaves of ``leaf`` rows."""
        leaf_rows(B.shape[0])
        one = orth(B)
        leaf_rows(leaf)
        return one, orth(B)

    def test_leaves_recurse_once(self, leaf_rows, monkeypatch):
        heights = []
        real = linalg._tsqr

        def spy(B, leaf):
            heights.append(B.shape[0])
            return real(B, leaf)

        monkeypatch.setattr(linalg, "_tsqr", spy)
        leaf_rows(self.LEAF)
        orth(np.random.default_rng(0).standard_normal((3000, 8)))
        assert heights == [3000, 47 * 8, 6 * 8]

    @pytest.mark.parametrize("seed", range(3))
    def test_orthonormal_and_same_projection(self, leaf_rows, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((3000, 8)) * np.logspace(0, 6, 8)
        B_before = B.copy()
        one, Q = self._both(B, leaf_rows, self.LEAF)
        np.testing.assert_array_equal(B, B_before)
        assert Q.shape == one.shape and Q.flags.c_contiguous
        assert np.linalg.norm(Q.T @ Q - np.eye(8)) <= 1e-13
        norm = np.linalg.norm(B)
        resid = np.linalg.norm(B - Q @ (Q.T @ B))
        resid_one = np.linalg.norm(B - one @ (one.T @ B))
        assert resid <= 4 * max(resid_one, 1e-16 * norm)
        assert np.linalg.norm(one - Q @ (Q.T @ one)) <= 1e-12

    def test_rank_deficient_input(self, leaf_rows):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((3000, 5))
        B = np.hstack([base, base @ rng.standard_normal((5, 3))])
        B[1000:1400] = 0.0  # whole leaves of zeros
        one, Q = self._both(B, leaf_rows, self.LEAF)
        assert one.shape == Q.shape == (3000, 5)
        assert np.linalg.norm(Q.T @ Q - np.eye(5)) <= 1e-13
        assert np.linalg.norm(one - Q @ (Q.T @ one)) <= 1e-12

    def test_graded_input_keeps_rank(self, leaf_rows):
        # singular values from 1 to 1e-16: 27 of 36 clear RANK_RTOL
        rng = np.random.default_rng(4)
        U = np.linalg.qr(rng.standard_normal((3000, 36)))[0]
        V = np.linalg.qr(rng.standard_normal((36, 36)))[0]
        B = (U * np.logspace(0, -16, 36)) @ V.T
        one, Q = self._both(B, leaf_rows, 80)
        assert one.shape == Q.shape == (3000, 27)
        assert np.linalg.norm(Q.T @ Q - np.eye(27)) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_a_late_leaf_rejected(self, leaf_rows, bad):
        B = np.random.default_rng(9).standard_normal((3000, 8))
        B[2990, 3] = bad
        leaf_rows(self.LEAF)
        with pytest.raises(InvalidParamError, match="NaN or infinite"):
            orth(B)

    @pytest.mark.parametrize("m, n, leaf", [(64, 8, 64), (40, 8, 64), (80, 40, 16)])
    def test_one_leaf_keeps_bits(self, leaf_rows, m, n, leaf):
        # at most max(QR_LEAF_ROWS, 2 n) rows is one leaf: the last case is
        # taller than QR_LEAF_ROWS, but not than twice its width
        rng = np.random.default_rng(m + n)
        B = rng.standard_normal((m, n))
        B[:, -1] = B[:, 0]
        one, Q = self._both(B, leaf_rows, leaf)
        assert Q.tobytes() == one.tobytes()

    def test_memory_is_q_and_a_few_leaves(self):
        # one QR of the whole input held a raw-QR copy of it beside Q
        B = np.random.default_rng(10).standard_normal((40000, 60))
        tracemalloc.start()
        try:
            Q = orth(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Q.nbytes + 4 * linalg.QR_LEAF_ROWS * 60 * 8


class TestHouseholderQR:
    """The block sampler's QR, through the calls the sampler makes:
    ``_absorb``, ``_complement_t`` and ``_apply_product_t``, the transpose
    ``U^T`` of its orthogonal factor, which triangularizes what it absorbed."""

    def test_empty_object(self):
        qr = HouseholderQR(5)
        assert qr.k_cur == 0
        M = np.random.default_rng(0).standard_normal((5, 3))
        np.testing.assert_array_equal(qr._apply_product_t(M), M)
        np.testing.assert_array_equal(qr._complement_t(M), M)

    def test_absorb_identity(self):
        qr = HouseholderQR(3)
        qr._absorb(np.eye(3))
        assert qr.k_cur == 3
        R = qr._apply_product_t(np.eye(3))
        np.testing.assert_allclose(np.abs(R), np.eye(3), atol=1e-14)
        # R^T R must match the Gram matrix of the absorbed columns
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-14)

    def test_incremental_append_reconstructs(self):
        # U^T [M v] is upper triangular and nothing of [M v] is left in the
        # complement, so the absorbed columns are U R
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 1))
        qr = HouseholderQR(6)
        qr._absorb(M)
        qr._absorb(v)
        target = np.hstack([M, v])
        scale = np.linalg.norm(target)
        R = qr._apply_product_t(target)
        assert np.linalg.norm(np.tril(R, -1)) <= 1e-12 * scale
        assert np.linalg.norm(qr._complement_t(target)) <= 1e-12 * scale
        np.testing.assert_allclose(R.T @ R, target.T @ target, atol=1e-12 * scale**2)

    def test_coordinate_projection(self):
        qr = HouseholderQR(3)
        qr._absorb(np.array([[1.0], [0.0], [0.0]]))
        C = qr._complement_t(np.array([[1.0], [2.0], [3.0]]))
        assert C.shape == (2, 1)
        np.testing.assert_allclose(C.T @ C, [[13.0]], atol=1e-13)

    def test_projection_annihilates_absorbed_columns(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((8, 3))
        qr = HouseholderQR(8)
        qr._absorb(M)
        out = qr._complement_t(M)
        assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(M)

    def test_projection_output_orthogonal_to_absorbed(self):
        # the Gram of the complement coordinates is the Gram of the
        # projected-out columns, the one the accept pass reads
        rng = np.random.default_rng(12)
        for absorbed in (1, 2, 5, 8):
            cols = rng.standard_normal((9, absorbed))
            X = rng.standard_normal((9, 4))
            qr = HouseholderQR(9)
            qr._absorb(cols)
            C = qr._complement_t(X)
            U = np.linalg.qr(cols)[0]  # an independent basis of the span
            ref = X - U @ (U.T @ X)
            np.testing.assert_allclose(C.T @ C, ref.T @ ref, atol=1e-12)

    def test_project_out_leaves_argument_unchanged(self):
        rng = np.random.default_rng(13)
        qr = HouseholderQR(6)
        M = rng.standard_normal((6, 3))
        cols = rng.standard_normal((6, 2))
        before, cols_before = M.copy(), cols.copy()
        qr._absorb(cols)
        qr._absorb(M[:, :1])
        qr._complement_t(M)
        qr._apply_product_t(M)
        np.testing.assert_array_equal(M, before)
        np.testing.assert_array_equal(cols, cols_before)

    def test_duplicate_column_raises(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((5, 1))
        qr = HouseholderQR(5)
        qr._absorb(c)
        with pytest.raises(RankDeficientUpdateError):
            qr._absorb(c)

    def test_dependence_inside_one_block_raises(self):
        # the rank test reads every column of a block against those before
        # it in the same block, and names the first dependent one
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 6))
        with pytest.raises(RankDeficientUpdateError, match="column 2 of the update"):
            HouseholderQR(6)._absorb(np.column_stack([a, b, a + b]))
        with pytest.raises(RankDeficientUpdateError, match="column 1 of the update"):
            HouseholderQR(6)._absorb(np.column_stack([a, np.zeros(6), b]))
        with pytest.raises(RankDeficientUpdateError, match="column 0 of the update"):
            HouseholderQR(6)._absorb(np.zeros((6, 1)))

    def test_reflectors_are_append_only(self):
        rng = np.random.default_rng(5)
        qr = HouseholderQR(7)
        qr._absorb(rng.standard_normal((7, 2)))
        v_before = qr._V[:, :2].copy()
        t_before = qr._T[:2, :2].copy()
        qr._absorb(rng.standard_normal((7, 3)))
        np.testing.assert_array_equal(qr._V[:, :2], v_before)
        np.testing.assert_array_equal(qr._T[:2, :2], t_before)

    def test_apply_q_qt_roundtrip(self):
        # U^T X on top of the complement coordinates P^T X is [U P]^T X,
        # an orthogonal transform: it keeps the Gram of X
        rng = np.random.default_rng(6)
        qr = HouseholderQR(10)
        qr._absorb(rng.standard_normal((10, 4)))
        X = rng.standard_normal((10, 3))
        Y = np.vstack([qr._apply_product_t(X)[:4], qr._complement_t(X)])
        np.testing.assert_allclose(Y.T @ Y, X.T @ X, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_blockwise_equals_columnwise(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((12, 5))
        X = rng.standard_normal((12, 3))
        block = HouseholderQR(12)
        block._absorb(M)
        onebyone = HouseholderQR(12)
        for j in range(5):
            onebyone._absorb(M[:, j: j + 1])
        for Y in (M, X):
            np.testing.assert_allclose(
                block._apply_product_t(Y), onebyone._apply_product_t(Y), atol=1e-12)
        np.testing.assert_allclose(
            block._complement_t(X).T @ block._complement_t(X),
            onebyone._complement_t(X).T @ onebyone._complement_t(X), atol=1e-12
        )


class TestApplyPinvRight:
    """``pinv(B)`` applied on the right, as the one product ``A @ P``."""

    def test_padded_identity(self):
        k, n = 3, 6
        B = np.hstack([np.eye(k), np.zeros((k, n - k))])
        A = np.random.default_rng(0).standard_normal((4, n))
        P, fallback = pinv(B)
        assert not fallback
        np.testing.assert_allclose(A @ P, A[:, :k], atol=1e-13)

    def test_projector_reproduces_own_rows(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 9))
        W = B @ pinv(B)[0]
        np.testing.assert_allclose(
            W @ B, B, atol=1e-12 * np.linalg.norm(B)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_against_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        kb = int(rng.integers(2, 10))
        n = kb + int(rng.integers(1, 40))
        B = rng.standard_normal((kb, n))
        A = rng.standard_normal((int(rng.integers(1, 50)), n))
        P, fallback = pinv(B)
        got = A @ P
        assert not fallback
        oracle = A @ np.linalg.pinv(B)  # SVD-based, independent path
        assert np.linalg.norm(got - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)

    def test_inputs_unchanged_result_row_major(self):
        # P is a new C-order array; B is never written
        B = np.random.default_rng(9).standard_normal((3, 7))
        B_before = B.copy()
        P, _ = pinv(B)
        np.testing.assert_array_equal(B, B_before)
        assert P.flags.c_contiguous and P.shape == (7, 3)
        np.testing.assert_allclose(P, np.linalg.pinv(B), atol=1e-12)

    @pytest.mark.parametrize("B", [
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]),
        np.vstack([np.random.default_rng(0).standard_normal(6), np.zeros(6)]),
        np.zeros((0, 4)),
    ], ids=["parallel-rows", "zero-row", "no-rows"])
    def test_rank_deficient_falls_back(self, B):
        # the rank test's verdict is the flag; P is the truncated SVD's
        P, fallback = pinv(B)
        assert fallback
        np.testing.assert_array_equal(P, np.linalg.pinv(B, rcond=linalg.RANK_RTOL))
        # the truncated pseudoinverse still projects onto the usable row span
        np.testing.assert_allclose(B @ P @ B, B, atol=1e-10)

    def test_wide_requirement(self):
        with pytest.raises(DimensionMismatchError):
            pinv(np.zeros((3, 2)))
