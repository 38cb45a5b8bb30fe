"""Generator and matrix-descriptor tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from rowpick import (
    InvalidParamError,
    MatrixSpec,
    gen_decay_dense,
    gen_decay_sparse,
    gen_kernel,
)


class TestDecayDense:
    def test_single_row(self):
        A = gen_decay_dense(1, 5, np.random.default_rng(0))
        assert A.shape == (1, 5)

    def test_determinism(self):
        a = gen_decay_dense(10, 7, np.random.default_rng(42))
        b = gen_decay_dense(10, 7, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_row_norm_moments(self):
        # E||row i||^2 = n * i^-4; check decile averages over 50 seeds
        m, n, seeds = 100, 200, 50
        acc = np.zeros(m)
        for seed in range(seeds):
            A = gen_decay_dense(m, n, np.random.default_rng(seed))
            acc += np.einsum("ij,ij->i", A, A)
        acc /= seeds
        expected = n * np.arange(1, m + 1.0) ** -4.0
        for lo in range(0, m, 10):
            ratio = acc[lo: lo + 10].sum() / expected[lo: lo + 10].sum()
            assert 0.8 <= ratio <= 1.2


class TestDecaySparse:
    def test_structure(self):
        A = gen_decay_sparse(50, 30, 7, np.random.default_rng(0))
        assert A.shape == (50, 30)
        assert A.nnz == 30 * 7
        counts = np.diff(A.indptr)
        assert np.all(counts == 7)

    def test_dense_pattern_when_saturated(self):
        A = gen_decay_sparse(6, 4, 6, np.random.default_rng(1))
        assert np.all(A.toarray() != 0)

    def test_row_frequencies_uniform(self):
        m, n, nnz = 100, 10000, 5
        A = gen_decay_sparse(m, n, nnz, np.random.default_rng(2))
        freq = np.bincount(A.tocoo().row, minlength=m) / n
        np.testing.assert_allclose(freq, nnz / m, rtol=0.15)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParamError):
            gen_decay_sparse(5, 5, 6, rng)
        with pytest.raises(InvalidParamError):
            gen_decay_sparse(5, 5, 0, rng)


class TestKernel:
    def test_unit_separation(self):
        A = gen_kernel(1)
        np.testing.assert_array_equal(A, [[1.0]])

    def test_extreme_entries_match_brute_force(self):
        g = 5
        A = gen_kernel(g)
        t = np.arange(g) / g
        xx, yy = np.meshgrid(t, t, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        dst = pts + [1.0, 0.0]
        dists = np.sqrt(
            (pts[:, None, 0] - dst[None, :, 0]) ** 2
            + (pts[:, None, 1] - dst[None, :, 1]) ** 2
        )
        assert A.max() == pytest.approx(1.0 / dists.min(), rel=1e-14)
        assert A.max() == pytest.approx(g, rel=1e-14)  # closest pair is 1/g apart

    def test_entry_bounds(self):
        A = gen_kernel(4)
        assert A.min() >= 1.0 / np.sqrt(5.0)
        assert np.all(np.isfinite(A))
        assert np.all(A > 0)

    def test_deterministic(self):
        assert gen_kernel(3).tobytes() == gen_kernel(3).tobytes()


class TestMatrixSpec:
    def test_parse_describe_roundtrip(self):
        spec = MatrixSpec.parse("dense-decay:m=50,n=30,seed=7")
        assert spec.describe() == "dense-decay:m=50,n=30,seed=7"
        assert MatrixSpec.parse(spec.describe()) == spec

    def test_kernel_parse(self):
        spec = MatrixSpec.parse("kernel:g=6")
        A = spec.build()
        assert A.shape == (36, 36)

    def test_desk_vs_full_scale_defaults(self):
        desk = MatrixSpec.parse("dense-decay")
        full = MatrixSpec.parse("dense-decay", full_scale=True)
        assert (desk.m, desk.n) == (2000, 2000)
        assert (full.m, full.n) == (10000, 10000)
        assert MatrixSpec.parse("kernel").grid_side == 40
        assert MatrixSpec.parse("kernel", full_scale=True).grid_side == 100
        sparse = MatrixSpec.parse("sparse-decay")
        assert (sparse.m, sparse.n, sparse.nnz_per_col) == (100000, 2000, 30)

    def test_build_generators(self):
        A = MatrixSpec.parse("dense-decay:m=9,n=5,seed=3").build()
        assert A.shape == (9, 5)
        S = MatrixSpec.parse("sparse-decay:m=40,n=12,nnz=4,seed=1").build()
        assert S.shape == (40, 12) and S.nnz == 48

    def test_file_kind(self, tmp_path):
        arr = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "a.npy"
        np.save(path, arr)
        spec = MatrixSpec.parse(f"file:path={path}")
        np.testing.assert_array_equal(spec.build(), arr)
        # a .npz as scipy saves a sparse matrix loads as a canonical CSC array
        sp.save_npz(tmp_path / "s.npz", sp.csr_matrix(arr))
        B = MatrixSpec.parse(f"file:path={tmp_path / 's.npz'}").build()
        assert isinstance(B, sp.csc_array) and B.has_canonical_format
        np.testing.assert_array_equal(B.toarray(), arr)

    def test_file_path_with_comma(self, tmp_path):
        # the path is everything after path=, so a comma is part of it
        path = tmp_path / "a,b.npy"
        np.save(path, np.eye(3))
        spec = MatrixSpec.parse(f"file:path={path}")
        assert spec.path == str(path)
        assert MatrixSpec.parse(spec.describe()) == spec
        np.testing.assert_array_equal(spec.build(), np.eye(3))

    def test_bad_descriptors(self):
        with pytest.raises(InvalidParamError):
            MatrixSpec.parse("unknown-kind")
        with pytest.raises(InvalidParamError):
            MatrixSpec.parse("kernel:g=6,bogus=1")
        with pytest.raises(InvalidParamError, match="needs path"):
            MatrixSpec.parse("file")
        with pytest.raises(InvalidParamError, match="unknown matrix kind"):
            MatrixSpec.parse("geo-file:path=x")

    @pytest.mark.parametrize("text, field", [
        ("dense-decay:m=abc", "m="), ("sparse-decay:nnz=3x", "nnz="),
        ("kernel:g=2.5", "g="), ("dense-decay:seed=-1", "seed"),
    ])
    def test_malformed_fields_name_the_field(self, text, field):
        with pytest.raises(InvalidParamError, match=field):
            MatrixSpec.parse(text)
