"""Driver tests: rangefinder quality, the three interpolation variants,
the enumeration-scale expectation identity, and residual evaluation."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rowpick import (
    ArpConfig,
    DimensionMismatchError,
    InterpolativeDecomposition,
    InvalidParamError,
    RankDeficientError,
    VARIANTS,
    arp_decompose,
    build_w,
    enumerate_volume_probs,
    expected_type1_error,
    fro_norm,
    gen_decay_sparse,
    orth,
    rangefinder,
    residual_fro,
    select_pivots,
)
from rowpick.decompose import build_type1_w
from rowpick.samplers import rejection_rpqr


class TestArpConfig:
    def test_defaults(self):
        cfg = ArpConfig(k=5)
        assert cfg.zeta == 4 and cfg.oversample == 2.0 and cfg.variant == "osid"

    def test_validation(self):
        with pytest.raises(InvalidParamError):
            ArpConfig(k=0)
        with pytest.raises(InvalidParamError):
            ArpConfig(k=3, zeta=0)
        with pytest.raises(InvalidParamError):
            ArpConfig(k=3, oversample=0.5)
        with pytest.raises(InvalidParamError):
            ArpConfig(k=3, variant="type3")


class TestRangefinder:
    def test_identity_full_rank(self):
        # a nondegenerate sketch of the identity spans all of R^m; seed 1
        # gives a full-rank draw (sparsity-1 sketches at k = m almost always
        # leave a column empty, which the reduced width reports instead)
        rng = np.random.default_rng(1)
        m = 12
        Q = rangefinder(np.eye(m), m, 4, rng)
        assert Q.shape == (m, m)
        resid = np.eye(m) - Q @ Q.T
        assert np.linalg.norm(resid) <= 1e-10 * np.sqrt(m)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_rank_reproduced(self, seed):
        rng = np.random.default_rng(seed)
        left = orth(rng.standard_normal((40, 3)))
        right = orth(rng.standard_normal((30, 3))).T
        A = left @ np.diag([3.0, 2.0, 1.0]) @ right
        Q = rangefinder(A, 3, 1, rng)
        resid = A - Q @ (Q.T @ A)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(A)

    def test_decay_spectrum_near_optimal(self):
        # sketch residual within 10x of the optimal error at half the rank
        m = n = 300
        k = 50
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = np.arange(1, m + 1.0)[:, None] ** -2.0 * rng.standard_normal((m, n))
            sv = np.linalg.svd(A, compute_uv=False)
            opt_half = np.sqrt(np.sum(sv[k // 2:] ** 2))
            Q = rangefinder(A, k, 4, rng)
            err = np.linalg.norm(A - Q @ (Q.T @ A))
            if err <= 10.0 * opt_half:
                hits += 1
        assert hits >= 9

    def test_width_never_exceeds_k(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 15))
        Q = rangefinder(A, 5, 4, rng)  # sketch width padded to 8, cut to 5
        assert Q.shape == (20, 5)

    def test_rank_deficient_width_reported(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((25, 2))
        A = base @ rng.standard_normal((2, 18))  # exact rank 2
        Q = rangefinder(A, 6, 2, rng)
        assert Q.shape[1] == 2


class TestArpDecompose:
    def test_canonical_rows_exact(self):
        # A = [I_k; 0] padded with zero columns: the only nonzero-volume
        # subset is the first k rows, and all variants are exact
        k, m, n = 3, 8, 6
        A = np.zeros((m, n))
        A[:k, :k] = np.eye(k)
        for variant in ("type1", "type2", "osid"):
            cfg = ArpConfig(k=k, zeta=1, variant=variant, seed=11)
            dec = arp_decompose(A, cfg)
            assert dec.pivots.as_tuple() == (0, 1, 2)
            np.testing.assert_allclose(
                dec.w[dec.pivots.indices, :], np.eye(k), atol=1e-10
            )
            assert residual_fro(A, dec) <= 1e-10 * np.linalg.norm(A)

    @pytest.mark.parametrize("variant", ["type1", "type2", "osid"])
    @pytest.mark.parametrize("seed", range(4))
    def test_interpolation_property(self, variant, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((25, 18))
        cfg = ArpConfig(k=4, zeta=2, variant=variant)
        dec = arp_decompose(A, cfg, rng)
        sub = dec.w[dec.pivots.indices, :]
        np.testing.assert_array_equal(sub, np.eye(len(dec.pivots)))

    @pytest.mark.parametrize("variant", ["type1", "type2", "osid"])
    def test_interpolation_exact_when_ill_conditioned(self, variant):
        # singular values from 1 down to 1e-9: A[S, :] has full numerical
        # rank, but its pseudoinverse puts roundoff of about 5e-8 into the
        # pivot rows of W, which are pinned to the identity
        rng = np.random.default_rng(3)
        U = np.linalg.qr(rng.standard_normal((40, 8)))[0]
        V = np.linalg.qr(rng.standard_normal((30, 8)))[0]
        A = (U * np.logspace(0, -9, 8)) @ V.T
        dec = arp_decompose(A, ArpConfig(k=8, variant=variant, seed=0))
        assert not dec.pinv_fallback
        np.testing.assert_array_equal(dec.w[dec.pivots.indices, :], np.eye(8))
        assert residual_fro(A, dec) <= 1e-6 * fro_norm(A)

    @pytest.mark.parametrize("j", [600, -600])
    def test_extreme_scales_keep_pivots(self, j):
        A = np.random.default_rng(0).standard_normal((30, 20))
        cfg = ArpConfig(k=4, seed=1)
        base, scaled = arp_decompose(A, cfg), arp_decompose(A * 2.0**j, cfg)
        np.testing.assert_array_equal(scaled.pivots.indices, base.pivots.indices)
        assert scaled.effective_rank == 4 and not scaled.pinv_fallback

    def test_equality_and_hash(self):
        A = np.random.default_rng(2).standard_normal((30, 20))
        cfg = ArpConfig(k=4, seed=7)
        a, b = arp_decompose(A, cfg), arp_decompose(A, cfg)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other_w = a.w.copy()
        other_w[0, 0] += 1.0
        changed = [
            InterpolativeDecomposition(a.pivots, other_w, a.variant, 4, cfg),
            InterpolativeDecomposition(a.pivots, a.w, "type2", 4, cfg),
            InterpolativeDecomposition(a.pivots, a.w, a.variant, 3, cfg),
            InterpolativeDecomposition(a.pivots, a.w, a.variant, 4, ArpConfig(k=4, seed=8)),
            InterpolativeDecomposition(a.pivots, a.w, a.variant, 4, cfg, True),
            arp_decompose(A, ArpConfig(k=4, seed=8)),
        ]
        for c in changed:
            assert a != c
        assert a != a.pivots

    def test_seeded_determinism_bitwise(self):
        A = np.random.default_rng(0).standard_normal((20, 14))
        cfg = ArpConfig(k=4, zeta=2, variant="osid", seed=123)
        a = arp_decompose(A, cfg)
        b = arp_decompose(A, cfg)
        np.testing.assert_array_equal(a.pivots.indices, b.pivots.indices)
        assert a.w.tobytes() == b.w.tobytes()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_matrix_refused(self, sparse):
        A = sp.csc_array((20, 10)) if sparse else np.zeros((20, 10))
        with pytest.raises(RankDeficientError, match="numerically zero"):
            arp_decompose(A, ArpConfig(k=3, seed=0))

    @pytest.mark.parametrize("zeta", [1, 2, 4, 8])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tiny_shapes(self, variant, zeta):
        # every valid k on every shape up to 8x8, including those where the
        # sketch width k rounded up to a multiple of zeta exceeds the rows
        rng = np.random.default_rng(zeta)
        for m in range(1, 9):
            for n in range(1, 9):
                A = rng.standard_normal((m, n))
                for k in range(1, min(m, n) + 1):
                    dec = arp_decompose(A, ArpConfig(k=k, zeta=zeta, variant=variant, seed=k))
                    r = len(dec.pivots)
                    assert 1 <= r <= k and dec.w.shape == (m, r)
                    if not dec.pinv_fallback:
                        assert np.array_equal(dec.w[dec.pivots.indices], np.eye(r))
                    assert np.isfinite(residual_fro(A, dec))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_pipeline_phases_keep_the_stream(self, sparse):
        A = gen_decay_sparse(60, 40, 6, np.random.default_rng(3))
        A = A if sparse else A.toarray()
        configs = [ArpConfig(k=6, zeta=2, variant=v, seed=9) for v in VARIANTS]
        for cfg in configs:
            rng = np.random.default_rng(9)
            Q, pivots, qr = select_pivots(A, cfg, rng)
            dec = build_w(A, pivots, cfg.variant, cfg, rng, basis=(Q, qr))
            assert dec == arp_decompose(A, cfg)
        # only osid draws, after the sampler: one pivot draw serves all
        # three variants in the order of VARIANTS
        rng = np.random.default_rng(9)
        Q, pivots, qr = select_pivots(A, configs[0], rng)
        for cfg in configs:
            dec = build_w(A, pivots, cfg.variant, cfg, rng, basis=(Q, qr))
            assert dec == arp_decompose(A, cfg)

    def test_variants_share_pivots_for_shared_seed(self):
        A = np.random.default_rng(1).standard_normal((20, 14))
        picks = {
            v: arp_decompose(A, ArpConfig(k=4, zeta=2, variant=v, seed=5)).pivots.as_tuple()
            for v in ("type1", "type2", "osid")
        }
        assert len(set(picks.values())) == 1

    def test_type2_never_worse_than_type1(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = np.arange(1, 31.0)[:, None] ** -1.0 * rng.standard_normal((30, 22))
            res = {}
            for variant in ("type1", "type2"):
                cfg = ArpConfig(k=5, zeta=1, variant=variant, seed=seed)
                res[variant] = residual_fro(A, arp_decompose(A, cfg))
            assert res["type2"] <= res["type1"] + 1e-12 * np.linalg.norm(A)

    def test_effective_rank_drops_on_degenerate_input(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((30, 2))
        A = base @ rng.standard_normal((2, 20))
        cfg = ArpConfig(k=5, zeta=1, variant="type2")
        dec = arp_decompose(A, cfg, rng)
        assert dec.effective_rank == 2
        assert len(dec.pivots) == 2
        assert residual_fro(A, dec) <= 1e-8 * np.linalg.norm(A)

    def test_expected_error_matches_enumeration(self):
        # volume-sampling average of the type1 squared error equals
        # (k+1) x the basis residual, checked against the oracle
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 6))
        Q = orth(rng.standard_normal((8, 2)))
        lhs, rhs = expected_type1_error(A, Q)
        assert abs(lhs - rhs) <= 1e-10 * rhs
        # and a direct weighted sum over the sampler's own W agrees
        dist = enumerate_volume_probs(Q, 2)
        acc = 0.0
        for T, p in dist.probs.items():
            idx = np.array(T)
            W = Q @ np.linalg.inv(Q[idx, :])
            acc += p * np.linalg.norm(A - W @ A[idx, :]) ** 2
        assert abs(acc - rhs) <= 1e-8 * rhs

    def test_type1_w_from_sampler_factors(self):
        rng = np.random.default_rng(8)
        Q = orth(rng.standard_normal((15, 4)))
        pivots, qr = rejection_rpqr(Q, rng)
        W = build_type1_w(Q, qr)
        direct = Q @ np.linalg.inv(Q[pivots.indices, :])
        assert np.linalg.norm(W - direct) <= 1e-10 * np.linalg.norm(direct)


class TestPinvFallback:
    def test_rank_deficient_rows_fall_back_to_svd(self):
        from rowpick.decompose import _pinv_apply
        from rowpick import svd_pinv_apply

        rng = np.random.default_rng(0)
        B = np.vstack([rng.standard_normal(6), np.zeros(6)])  # rank 1
        A = rng.standard_normal((4, 6))
        W, fell_back = _pinv_apply(A, B)
        assert fell_back
        np.testing.assert_allclose(W, svd_pinv_apply(A, B), atol=1e-12)
        # truncated pseudoinverse still projects onto the usable row span
        np.testing.assert_allclose(
            (W @ B) @ np.linalg.pinv(B) @ B, W @ B, atol=1e-10
        )

    def test_full_rank_does_not_fall_back(self):
        from rowpick.decompose import _pinv_apply

        rng = np.random.default_rng(1)
        W, fell_back = _pinv_apply(
            rng.standard_normal((3, 8)), rng.standard_normal((2, 8))
        )
        assert not fell_back


class TestResidualFro:
    def test_zero_w_gives_matrix_norm(self):
        from rowpick import InterpolativeDecomposition, PivotSet

        A = np.random.default_rng(0).standard_normal((10, 8))
        dec = InterpolativeDecomposition(
            pivots=PivotSet(np.array([0, 1]), 10),
            w=np.zeros((10, 2)),
            variant="type2",
            effective_rank=2,
            config=ArpConfig(k=2),
        )
        assert residual_fro(A, dec) == pytest.approx(np.linalg.norm(A), rel=1e-14)

    @staticmethod
    def _inputs(A):
        """``A`` (canonical CSC) in every form ``residual_fro`` accepts,
        the last two holding each entry as two equal halves."""
        halves = np.repeat(A.data / 2, 2)
        rows = np.repeat(A.indices, 2)
        cols = np.repeat(np.repeat(np.arange(A.shape[1]), np.diff(A.indptr)), 2)
        return {
            "dense": A.toarray(),
            "csc": A,
            "csr": sp.csr_array(A),
            "coo-duplicates": sp.coo_array((halves, (rows, cols)), shape=A.shape),
            "csc-duplicates": sp.csc_array((halves, rows, 2 * A.indptr), shape=A.shape),
        }

    @pytest.mark.parametrize("block", [1, 37, "m", "m+5"])
    @pytest.mark.parametrize(
        "form", ["dense", "csc", "csr", "coo-duplicates", "csc-duplicates"])
    def test_row_blocks_match_dense(self, form, block):
        rng = np.random.default_rng(1)
        A = gen_decay_sparse(300, 120, 10, rng)
        cfg = ArpConfig(k=6, zeta=2, variant="type2", seed=3)
        dec = arp_decompose(A, cfg)
        block_rows = {"m": 300, "m+5": 305}.get(block, block)
        blocked = residual_fro(self._inputs(A)[form], dec, block_rows=block_rows)
        dense = np.linalg.norm(A.toarray() - dec.w @ A.toarray()[dec.pivots.indices, :])
        assert blocked == pytest.approx(dense, rel=1e-12)

    def test_block_rows_validated(self):
        A = np.eye(4)
        dec = arp_decompose(A, ArpConfig(k=2, zeta=1, variant="type1", seed=0))
        with pytest.raises(InvalidParamError):
            residual_fro(A, dec, block_rows=0)

    def test_sparse_memory_bounded(self):
        A = gen_decay_sparse(20000, 2000, 30, np.random.default_rng(0))
        dec = arp_decompose(A, ArpConfig(k=60, variant="type1", seed=0))
        tracemalloc.start()
        try:
            residual_fro(A, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("sparse", [False, True])
    def test_relative_residual_scale_invariant(self, sparse):
        rng = np.random.default_rng(2)
        A = gen_decay_sparse(200, 50, 8, rng)
        if not sparse:
            A = A.toarray()
        dec = arp_decompose(A, ArpConfig(k=5, zeta=1, variant="type2", seed=1))
        rel = residual_fro(A, dec) / fro_norm(A)
        assert 0.0 < rel < 1.0
        for j in (-600, 600):
            scaled = A * 2.0**j
            assert residual_fro(scaled, dec) / fro_norm(scaled) == rel

    def test_shape_checks(self):
        from rowpick import InterpolativeDecomposition, PivotSet

        dec = InterpolativeDecomposition(
            pivots=PivotSet(np.array([0]), 5),
            w=np.zeros((5, 1)),
            variant="type1",
            effective_rank=1,
            config=ArpConfig(k=1),
        )
        with pytest.raises(DimensionMismatchError):
            residual_fro(np.zeros((6, 3)), dec)


class TestFroNorm:
    def test_matches_numpy_bit_for_bit(self):
        A = np.random.default_rng(0).standard_normal((40, 30))
        assert fro_norm(A) == float(np.linalg.norm(A))
        assert fro_norm(np.asfortranarray(A)) == float(np.linalg.norm(np.asfortranarray(A)))
        S = sp.csc_array(A * (np.abs(A) > 1))
        assert fro_norm(S) == float(np.linalg.norm(S.data))

    def test_duplicates_summed(self):
        S = sp.coo_array((np.array([1.0, 2.0, 4.0]), ([0, 0, 1], [0, 0, 1])), shape=(2, 2))
        assert fro_norm(S) == 5.0

    @pytest.mark.parametrize("j", [-1070, -600, 600, 1000])
    def test_extreme_scales(self, j):
        A = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert fro_norm(A * 2.0**j) == 5.0 * 2.0**j
        assert fro_norm(sp.csr_array(A) * 2.0**j) == 5.0 * 2.0**j

    def test_norm_past_float_range_is_inf(self):
        from rowpick import InterpolativeDecomposition, PivotSet

        A = np.full((2, 2), 2.0**1023)
        assert fro_norm(A) == np.inf
        dec = InterpolativeDecomposition(
            pivots=PivotSet([0], 2),
            w=np.zeros((2, 1)),
            variant="type2",
            effective_rank=1,
            config=ArpConfig(k=1),
        )
        assert residual_fro(A, dec) == np.inf

    def test_zero_and_empty(self):
        assert fro_norm(np.zeros((3, 2))) == 0.0
        assert fro_norm(np.zeros((0, 2))) == 0.0
        assert fro_norm(sp.csc_array((3, 2))) == 0.0
