"""Dense kernel tests: orthonormalization, the appendable Householder QR,
and pseudoinverse application against an independent SVD oracle."""

import numpy as np
import pytest

from rowpick import (
    DimensionMismatchError,
    EmptyMatrixError,
    HouseholderQR,
    InvalidParamError,
    RankDeficientError,
    RankDeficientUpdateError,
    apply_pinv_right,
    orth,
    squared_row_norms,
)


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


class TestHouseholderQR:
    def test_empty_object(self):
        qr = HouseholderQR(5)
        assert qr.k_cur == 0
        M = np.random.default_rng(0).standard_normal((5, 3))
        np.testing.assert_array_equal(qr.project_out(M), M)

    def test_absorb_identity(self):
        qr = HouseholderQR(3)
        qr.update(np.eye(3))
        assert qr.k_cur == 3
        np.testing.assert_allclose(np.abs(qr.R), np.eye(3), atol=1e-14)
        # R^T R must match the Gram matrix of the absorbed columns
        np.testing.assert_allclose(qr.R.T @ qr.R, np.eye(3), atol=1e-14)

    def test_incremental_append_reconstructs(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 1))
        qr = HouseholderQR(6)
        qr.update(M)
        qr.update(v)
        rebuilt = qr.reconstruct()
        target = np.hstack([M, v])
        assert np.linalg.norm(rebuilt - target) <= 1e-12 * np.linalg.norm(target)

    def test_coordinate_projection(self):
        qr = HouseholderQR(3)
        qr.update(np.array([[1.0], [0.0], [0.0]]))
        out = qr.project_out(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out, [[0.0], [2.0], [3.0]], atol=1e-14)

    def test_projection_annihilates_absorbed_columns(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((8, 3))
        qr = HouseholderQR(8)
        qr.update(M)
        out = qr.project_out(M)
        assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(M)

    def test_projection_output_orthogonal_to_absorbed(self):
        rng = np.random.default_rng(12)
        cols = rng.standard_normal((9, 2))
        qr = HouseholderQR(9)
        qr.update(cols)
        out = qr.project_out(rng.standard_normal((9, 4)))
        assert np.max(np.abs(cols.T @ out)) <= 1e-12

    def test_project_out_leaves_argument_unchanged(self):
        rng = np.random.default_rng(13)
        qr = HouseholderQR(6)
        M = rng.standard_normal((6, 3))
        before = M.copy()
        qr.project_out(M)[:] = 7.0  # empty factorization: a copy, not M
        qr.update(rng.standard_normal((6, 2)))
        qr.project_out(M)
        np.testing.assert_array_equal(M, before)

    def test_duplicate_column_raises(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((5, 1))
        qr = HouseholderQR(5)
        qr.update(c)
        with pytest.raises(RankDeficientUpdateError):
            qr.update(c)

    def test_reflectors_are_append_only(self):
        rng = np.random.default_rng(5)
        qr = HouseholderQR(7)
        qr.update(rng.standard_normal((7, 2)))
        v_before = qr._V[:, :2].copy()
        t_before = qr._T[:2, :2].copy()
        r_before = qr.R[:2, :2].copy()
        qr.update(rng.standard_normal((7, 3)))
        np.testing.assert_array_equal(qr._V[:, :2], v_before)
        np.testing.assert_array_equal(qr._T[:2, :2], t_before)
        np.testing.assert_array_equal(qr.R[:2, :2], r_before)

    def test_dimension_errors(self):
        qr = HouseholderQR(4)
        with pytest.raises(DimensionMismatchError):
            qr.update(np.zeros((3, 1)))
        qr.update(np.eye(4))
        with pytest.raises(DimensionMismatchError):
            qr.update(np.ones((4, 1)))
        with pytest.raises(DimensionMismatchError):
            qr.project_out(np.zeros((5, 2)))

    def test_apply_q_qt_roundtrip(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((10, 4))
        qr = HouseholderQR(10)
        qr.update(M)
        X = rng.standard_normal((10, 3))
        # U (U^T X) + (I - U U^T) X == X
        back = qr.apply_q(qr.apply_qt(X)) + qr.project_out(X)
        np.testing.assert_allclose(back, X, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_blockwise_equals_columnwise(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((12, 5))
        block = HouseholderQR(12)
        block.update(M)
        onebyone = HouseholderQR(12)
        for j in range(5):
            onebyone.update(M[:, j: j + 1])
        np.testing.assert_allclose(block.R, onebyone.R, atol=1e-12)
        np.testing.assert_allclose(
            block.reconstruct(), onebyone.reconstruct(), atol=1e-12
        )


class TestApplyPinvRight:
    def test_padded_identity(self):
        k, n = 3, 6
        B = np.hstack([np.eye(k), np.zeros((k, n - k))])
        A = np.random.default_rng(0).standard_normal((4, n))
        np.testing.assert_allclose(apply_pinv_right(A, B), A[:, :k], atol=1e-13)

    def test_projector_reproduces_own_rows(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 9))
        W = apply_pinv_right(B, B)
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
        got = apply_pinv_right(A, B)
        oracle = A @ np.linalg.pinv(B)  # SVD-based, independent path
        assert np.linalg.norm(got - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)

    def test_rank_deficient_rejected(self):
        B = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficientError):
            apply_pinv_right(np.eye(3)[:2], B)

    def test_wide_requirement(self):
        with pytest.raises(DimensionMismatchError):
            apply_pinv_right(np.eye(2), np.zeros((3, 2)))


class TestSquaredRowNorms:
    def test_identity(self):
        np.testing.assert_array_equal(squared_row_norms(np.eye(3)), [1.0, 1.0, 1.0])

    def test_partial_identity(self):
        Q = np.eye(3)[:, :2]
        np.testing.assert_array_equal(squared_row_norms(Q), [1.0, 1.0, 0.0])
        assert squared_row_norms(Q).sum() == 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_leverage_scores_sum_to_width(self, seed):
        rng = np.random.default_rng(seed)
        Q = orth(rng.standard_normal((20, 4)))
        k = Q.shape[1]
        assert abs(squared_row_norms(Q).sum() - k) <= 1e-12 * k
