"""Driver tests: rangefinder quality, the three interpolation variants,
the enumeration-scale expectation identity, and residual evaluation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from rowpick import (
    ArpConfig,
    DimensionMismatchError,
    InterpolativeDecomposition,
    InvalidParamError,
    PivotSet,
    RANK_RTOL,
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
from rowpick.decompose import _lift_decomposition, _nonempty_rows, build_type1_w
from rowpick.linalg import BLOCK_ENTRIES
from rowpick.samplers import rejection_rpqr


class TestArpConfig:
    def test_defaults(self):
        cfg = ArpConfig(k=5)
        assert cfg.variant == "osid" and cfg.seed is None

    def test_validation(self):
        with pytest.raises(InvalidParamError):
            ArpConfig(k=0)
        with pytest.raises(InvalidParamError, match="^seed must be an integer >= 0"):
            ArpConfig(k=3, seed=-1)
        with pytest.raises(InvalidParamError):
            ArpConfig(k=3, variant="type3")

    @pytest.mark.parametrize("kwargs", [
        {"k": 2.5}, {"k": 2.0}, {"k": "2"}, {"k": float("nan")},
    ])
    def test_non_integer_or_non_finite_refused(self, kwargs):
        with pytest.raises(InvalidParamError):
            ArpConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = ArpConfig(k=np.int64(3), seed=np.int32(2))
        dec = arp_decompose(np.random.default_rng(0).standard_normal((20, 10)), cfg,
                            np.random.default_rng(1))
        assert len(dec.pivots) == 3


class TestRangefinder:
    def test_identity_full_rank(self):
        # a nondegenerate sketch of the identity spans all of R^m; seed 1
        # gives a full-rank draw (sparsity-1 sketches at k = m almost always
        # leave a column empty, which the reduced width reports instead)
        rng = np.random.default_rng(1)
        m = 12
        Q = rangefinder(np.eye(m), m, rng)
        assert Q.shape == (m, m)
        resid = np.eye(m) - Q @ Q.T
        assert np.linalg.norm(resid) <= 1e-10 * np.sqrt(m)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_rank_reproduced(self, seed):
        rng = np.random.default_rng(seed)
        left = orth(rng.standard_normal((40, 3)))
        right = orth(rng.standard_normal((30, 3))).T
        A = left @ np.diag([3.0, 2.0, 1.0]) @ right
        Q = rangefinder(A, 3, rng)
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
            Q = rangefinder(A, k, rng)
            err = np.linalg.norm(A - Q @ (Q.T @ A))
            if err <= 10.0 * opt_half:
                hits += 1
        assert hits >= 9

    def test_width_never_exceeds_k(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 15))
        Q = rangefinder(A, 5, rng)  # sketch width padded to 8, cut to 5
        assert Q.shape == (20, 5)

    def test_rank_deficient_width_reported(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((25, 2))
        A = base @ rng.standard_normal((2, 18))  # exact rank 2
        Q = rangefinder(A, 6, rng)
        assert Q.shape[1] == 2


class TestArpDecompose:
    def test_canonical_rows_exact(self):
        # A = [I_k; 0] padded with zero columns: the only nonzero-volume
        # subset is the first k rows, and all variants are exact
        k, m, n = 3, 8, 6
        A = np.zeros((m, n))
        A[:k, :k] = np.eye(k)
        for variant in ("type1", "type2", "osid"):
            cfg = ArpConfig(k=k, variant=variant, seed=11)
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
        cfg = ArpConfig(k=4, variant=variant)
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
            InterpolativeDecomposition(a.pivots, other_w, cfg),
            InterpolativeDecomposition(a.pivots, a.w, ArpConfig(k=4, seed=7, variant="type2")),
            InterpolativeDecomposition(a.pivots, a.w, ArpConfig(k=4, seed=8)),
            InterpolativeDecomposition(a.pivots, a.w, cfg, True),
            arp_decompose(A, ArpConfig(k=4, seed=8)),
        ]
        for c in changed:
            assert a != c
        assert a != a.pivots

    def test_seeded_determinism_bitwise(self):
        A = np.random.default_rng(0).standard_normal((20, 14))
        cfg = ArpConfig(k=4, variant="osid", seed=123)
        a = arp_decompose(A, cfg)
        b = arp_decompose(A, cfg)
        np.testing.assert_array_equal(a.pivots.indices, b.pivots.indices)
        assert a.w.tobytes() == b.w.tobytes()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_matrix_refused(self, sparse):
        A = sp.csc_array((20, 10)) if sparse else np.zeros((20, 10))
        with pytest.raises(RankDeficientError, match="numerically zero"):
            arp_decompose(A, ArpConfig(k=3, seed=0))

    @pytest.mark.parametrize("seed", [1, 2, 4, 8])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tiny_shapes(self, variant, seed):
        # every valid k on every shape up to 8x8, including those where the
        # sketch width k rounded up to a multiple of 4 exceeds the rows
        rng = np.random.default_rng(seed)
        for m in range(1, 9):
            for n in range(1, 9):
                A = rng.standard_normal((m, n))
                for k in range(1, min(m, n) + 1):
                    dec = arp_decompose(A, ArpConfig(k=k, variant=variant, seed=k))
                    r = len(dec.pivots)
                    assert 1 <= r <= k and dec.w.shape == (m, r)
                    if not dec.pinv_fallback:
                        assert np.array_equal(dec.w[dec.pivots.indices], np.eye(r))
                    assert np.isfinite(residual_fro(A, dec))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_pipeline_phases_keep_the_stream(self, sparse):
        A = gen_decay_sparse(60, 40, 6, np.random.default_rng(3))
        A = A if sparse else A.toarray()
        # the phases run on the rows they are given; arp_decompose runs
        # them on the rows of A that hold a nonzero and lifts the result
        rows, B = _nonempty_rows(A, 6)
        assert rows is not None
        configs = [ArpConfig(k=6, variant=v, seed=9) for v in VARIANTS]
        for cfg in configs:
            rng = np.random.default_rng(9)
            Q, pivots = select_pivots(B, cfg, rng)
            dec = build_w(B, pivots, cfg, rng, basis=Q)
            assert dec == arp_decompose(B, cfg)
            assert _lift_decomposition(rows, A.shape[0], dec) == arp_decompose(A, cfg)
        # only osid draws, after the sampler: one pivot draw serves all
        # three variants in the order of VARIANTS
        rng = np.random.default_rng(9)
        Q, pivots = select_pivots(B, configs[0], rng)
        for cfg in configs:
            dec = build_w(B, pivots, cfg, rng, basis=Q)
            assert dec == arp_decompose(B, cfg)

    @pytest.mark.parametrize("pivots, basis_rows", [
        (PivotSet([1, 2, 3, 4], 50), None),  # another m, indices in range
        (PivotSet([1, 2, 3, 70], 80), None),  # an index past A's rows
        (PivotSet([1, 2, 3, 4], 60), 50),  # a basis of another row count
    ])
    def test_build_w_refuses_another_row_count(self, pivots, basis_rows):
        A = np.random.default_rng(4).standard_normal((60, 20))
        basis = None if basis_rows is None else orth(A[:basis_rows])
        for variant in VARIANTS:
            cfg = ArpConfig(k=4, variant=variant)
            rng = np.random.default_rng(0)
            with pytest.raises(DimensionMismatchError):
                build_w(A, pivots, cfg, rng, basis=basis)
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_variants_share_pivots_for_shared_seed(self):
        A = np.random.default_rng(1).standard_normal((20, 14))
        picks = {
            v: arp_decompose(A, ArpConfig(k=4, variant=v, seed=5)).pivots.as_tuple()
            for v in ("type1", "type2", "osid")
        }
        assert len(set(picks.values())) == 1

    def test_type2_never_worse_than_type1(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = np.arange(1, 31.0)[:, None] ** -1.0 * rng.standard_normal((30, 22))
            res = {}
            for variant in ("type1", "type2"):
                cfg = ArpConfig(k=5, variant=variant, seed=seed)
                res[variant] = residual_fro(A, arp_decompose(A, cfg))
            assert res["type2"] <= res["type1"] + 1e-12 * np.linalg.norm(A)

    def test_effective_rank_drops_on_degenerate_input(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((30, 2))
        A = base @ rng.standard_normal((2, 20))
        cfg = ArpConfig(k=5, variant="type2")
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

    def test_type1_w_on_sampler_pivots(self):
        rng = np.random.default_rng(8)
        Q = orth(rng.standard_normal((15, 4)))
        pivots, _ = rejection_rpqr(Q, rng)
        W, fallback = build_type1_w(Q, pivots)
        direct = Q @ np.linalg.inv(Q[pivots.indices, :])
        assert not fallback
        assert np.linalg.norm(W - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_type1_singular_pivot_rows_fall_back(self):
        # two equal rows of Q, pivoted on both: Q[S, :] is singular
        Q = orth(np.random.default_rng(9).standard_normal((6, 2)))
        Q[1] = Q[0]
        dec = build_w(Q, PivotSet(np.array([0, 1]), 6),
                      ArpConfig(k=2, variant="type1"), None, basis=Q)
        assert dec.pinv_fallback
        assert dec.w.shape == (6, 2) and np.isfinite(dec.w).all()
        np.testing.assert_allclose(dec.w, Q @ np.linalg.pinv(Q[:2]), atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_type2_inputs_unchanged_w_row_major(self, sparse):
        # W is a new C-order array, also for sparse A; A is never written
        A = np.random.default_rng(9).standard_normal((12, 7))
        A_in = sp.csr_array(A) if sparse else A
        A_before = A.copy()
        dec = build_w(A_in, PivotSet(np.array([4, 0, 9]), 12),
                      ArpConfig(k=3, variant="type2"), None)
        np.testing.assert_array_equal(A_in.toarray() if sparse else A_in, A_before)
        assert dec.w.flags.c_contiguous and dec.w.shape == (12, 3)
        np.testing.assert_allclose(dec.w, A @ np.linalg.pinv(A[[4, 0, 9]]), atol=1e-12)


class TestPinvFallback:
    def test_rank_deficient_rows_fall_back_to_svd(self):
        rng = np.random.default_rng(0)
        A = np.vstack([rng.standard_normal(6), np.zeros(6), rng.standard_normal((2, 6))])
        B = A[:2]  # rank 1
        dec = build_w(A, PivotSet(np.array([0, 1]), 4),
                      ArpConfig(k=2, variant="type2"), None)
        assert dec.pinv_fallback
        W = dec.w
        np.testing.assert_array_equal(W, A @ np.linalg.pinv(B, rcond=RANK_RTOL))
        # truncated pseudoinverse still projects onto the usable row span
        np.testing.assert_allclose(
            (W @ B) @ np.linalg.pinv(B) @ B, W @ B, atol=1e-10
        )

    def test_full_rank_does_not_fall_back(self):
        A = np.random.default_rng(1).standard_normal((3, 8))
        dec = build_w(A, PivotSet(np.array([2, 0]), 3),
                      ArpConfig(k=2, variant="type2"), None)
        assert not dec.pinv_fallback
        np.testing.assert_array_equal(dec.w[[2, 0]], np.eye(2))


class TestStreamedW:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_blocks_keep_bits(self, block_entries, sparse):
        # BLOCK_ENTRIES = 100 streams the width-12 osid sketch of 51 rows in
        # 7 blocks and sketches in blocks with a ragged last one
        A = gen_decay_sparse(51, 30, 9, np.random.default_rng(13)).toarray()
        A[[7, 8], :] = A[[20, 20], :]  # two equal pairs of rows
        A = sp.csc_array(A) if sparse else A
        cfg = ArpConfig(k=5, seed=14)
        twins = PivotSet(np.array([7, 20, 8, 3]), 51)

        def decompositions():
            decs = [arp_decompose(A, replace(cfg, variant=v)) for v in VARIANTS]
            return decs + [build_w(A, twins, cfg, np.random.default_rng(15))]

        whole = decompositions()
        assert whole[-1].pinv_fallback and not whole[2].pinv_fallback
        block_entries(100)
        assert decompositions() == whole

    @staticmethod
    def _osid_within_bound(A, pivots, cfg, rng):
        """``build_w`` of ``osid``, asserted to stay under a peak that the
        whole sketch would exceed; returns the decomposition."""
        tracemalloc.start()
        try:
            dec = build_w(A, pivots, cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = 2 * cfg.k
        sketch = 8 * A.shape[0] * width
        # W, one block of the sketch with its finiteness mask, and the pivot
        # rows of A and of its sketch
        bound = dec.w.nbytes + 9 * BLOCK_ENTRIES + 8 * width * A.shape[1]
        assert bound < dec.w.nbytes + sketch
        assert peak < bound
        return dec

    def test_osid_never_forms_the_sketch(self):
        A = gen_decay_sparse(40000, 1000, 30, np.random.default_rng(0))
        cfg = ArpConfig(k=60, seed=0)
        rng = np.random.default_rng(0)
        _, pivots = select_pivots(A, cfg, rng)
        self._osid_within_bound(A, pivots, cfg, rng)

    def test_osid_fallback_streams(self):
        # an empty pivot row makes the sketch of A[S, :] rank deficient
        A = gen_decay_sparse(40000, 1000, 30, np.random.default_rng(0))
        cfg = ArpConfig(k=60, seed=0)
        rng = np.random.default_rng(0)
        _, pivots = select_pivots(A, cfg, rng)
        empty = np.flatnonzero(np.diff(sp.csr_array(A).indptr) == 0)[0]
        pivots = PivotSet(np.append(pivots.indices[:-1], empty), A.shape[0])
        assert self._osid_within_bound(A, pivots, cfg, rng).pinv_fallback


class TestResidualFro:
    def test_zero_w_gives_matrix_norm(self):
        from rowpick import InterpolativeDecomposition, PivotSet

        A = np.random.default_rng(0).standard_normal((10, 8))
        dec = InterpolativeDecomposition(
            pivots=PivotSet(np.array([0, 1]), 10),
            w=np.zeros((10, 2)),
            config=ArpConfig(k=2, variant="type2"),
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

    @staticmethod
    def _blocks_seen(monkeypatch):
        """The ``(lo, hi)`` row blocks ``residual_fro`` runs over, as a list
        that fills as it runs."""
        import rowpick.decompose as decompose

        seen, row_blocks = [], decompose._row_blocks

        def recorded(A, block_rows):
            for block in row_blocks(A, block_rows):
                seen.append(block)
                yield block

        monkeypatch.setattr(decompose, "_row_blocks", recorded)
        return seen

    @pytest.mark.parametrize("block", [1, 37, "m", "m+5"])
    @pytest.mark.parametrize(
        "form", ["dense", "csc", "csr", "coo-duplicates", "csc-duplicates"])
    def test_row_blocks_match_dense(self, form, block, block_entries, monkeypatch):
        rng = np.random.default_rng(1)
        A = gen_decay_sparse(300, 120, 10, rng)
        cfg = ArpConfig(k=6, variant="type2", seed=3)
        dec = arp_decompose(A, cfg)
        block_rows = {"m": 300, "m+5": 305}.get(block, block)
        # residual_fro's row of a block: the product's columns (the columns
        # the pivot rows touch, for sparse A), plus the gathered row of W when
        # it skips rows, which it does for the empty rows of sparse A
        if form == "dense":
            per_row = A.shape[1]
        else:
            skips = (np.diff(sp.csr_array(A).indptr) == 0).any()
            per_row = self._support(A, dec) + (dec.w.shape[1] if skips else 0)
        block_entries(block_rows * per_row)
        seen = self._blocks_seen(monkeypatch)
        blocked = residual_fro(self._inputs(A)[form], dec)
        assert {hi - lo for lo, hi in seen[:-1]} <= {block_rows}
        assert 0 < seen[-1][1] - seen[-1][0] <= block_rows
        assert blocked == pytest.approx(self._dense_residual(A, dec), rel=1e-12)

    @staticmethod
    def _dense_residual(A, dec):
        D = A.toarray() if sp.issparse(A) else np.asarray(A)
        return np.linalg.norm(D - dec.w @ D[dec.pivots.indices, :])

    @staticmethod
    def _support(A, dec):
        """Number of columns the pivot rows of ``A`` touch."""
        return int(np.count_nonzero(
            sp.csr_array(A)[dec.pivots.indices, :].toarray().any(axis=0)))

    @pytest.mark.parametrize(
        "form", ["csc", "csr", "coo-duplicates", "csc-duplicates"])
    def test_partial_support_matches_dense(self, form):
        A = gen_decay_sparse(400, 150, 4, np.random.default_rng(4))
        dec = arp_decompose(A, ArpConfig(k=8, variant="osid", seed=5))
        assert 0 < self._support(A, dec) < A.shape[1]
        got = residual_fro(self._inputs(A)[form], dec)
        assert got == pytest.approx(self._dense_residual(A, dec), rel=1e-12)

    @pytest.mark.parametrize("entries", [None, 1, 7])
    def test_empty_support_gives_matrix_norm(self, entries, block_entries):
        from rowpick import PivotSet

        A = sp.random_array((30, 12), density=0.3, format="lil",
                            rng=np.random.default_rng(6))
        A[[2, 9], :] = 0.0
        A = sp.csr_array(A)
        dec = InterpolativeDecomposition(
            pivots=PivotSet(np.array([2, 9]), 30),
            w=np.random.default_rng(7).standard_normal((30, 2)),
            config=ArpConfig(k=2, variant="type2"),
        )
        assert self._support(A, dec) == 0
        if entries is not None:
            # an empty product: blocks of at most this many stored entries
            block_entries(entries)
        got = residual_fro(A, dec)
        assert got == pytest.approx(np.linalg.norm(A.toarray()), rel=1e-12)
        assert got == pytest.approx(self._dense_residual(A, dec), rel=1e-12)

    def test_explicit_zeros_match_dense(self):
        A = gen_decay_sparse(300, 80, 5, np.random.default_rng(8))
        dec = arp_decompose(A, ArpConfig(k=6, variant="type2", seed=9))
        # store a zero in every row, pivot rows included
        rows = np.arange(A.shape[0])
        cols = (7 * rows) % A.shape[1]
        coo = A.tocoo()
        B = sp.csr_array((np.concatenate([coo.data, np.zeros(rows.size)]),
                          (np.concatenate([coo.row, rows]),
                           np.concatenate([coo.col, cols]))), shape=A.shape)
        B.sum_duplicates()
        assert B.nnz > A.nnz
        P = B[dec.pivots.indices, :]
        stored_zero_cols = P.indices[P.data == 0]
        assert not P.toarray().any(axis=0)[stored_zero_cols].all()
        got = residual_fro(B, dec)
        assert got == pytest.approx(self._dense_residual(A, dec), rel=1e-12)

    def test_full_support_bitwise_equals_dense(self):
        A = gen_decay_sparse(200, 40, 120, np.random.default_rng(10))
        dec = arp_decompose(A, ArpConfig(k=10, variant="type2", seed=11))
        assert self._support(A, dec) == A.shape[1]
        dense = residual_fro(A.toarray(), dec)
        for form in ("csc", "csr", "coo-duplicates", "csc-duplicates"):
            assert residual_fro(self._inputs(A)[form], dec) == dense

    def test_blocks_capped_by_stored_entries(self, monkeypatch):
        import rowpick.decompose as decompose
        import rowpick.linalg as linalg
        from rowpick import PivotSet

        rng = np.random.default_rng(12)
        A = sp.random_array((200, 60), density=0.2, format="lil", rng=rng)
        A[5, :] = rng.standard_normal(60)  # one row past the cap on its own
        A[[17, 40], :] = 0.0
        A[17, 3] = A[40, 8] = 1.0
        A = sp.csc_array(A)
        dec = build_w(A, PivotSet(np.array([17, 40]), 200),
                      ArpConfig(k=2, variant="type2"), None)
        for module in (linalg, decompose):
            monkeypatch.setattr(module, "BLOCK_ENTRIES", 40)
        blocks = list(linalg._row_blocks(sp.csr_array(A), 10**6))
        assert (5, 6) in blocks
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == 200
        ptr = sp.csr_array(A).indptr
        assert all(ptr[hi] - ptr[lo] <= 40 for lo, hi in blocks if hi - lo > 1)
        got = residual_fro(A, dec)
        assert got == pytest.approx(self._dense_residual(A, dec), rel=1e-12)

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
        dec = arp_decompose(A, ArpConfig(k=5, variant="type2", seed=1))
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
            config=ArpConfig(k=1, variant="type1"),
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
            config=ArpConfig(k=1, variant="type2"),
        )
        assert residual_fro(A, dec) == np.inf

    def test_zero_and_empty(self):
        assert fro_norm(np.zeros((3, 2))) == 0.0
        assert fro_norm(np.zeros((0, 2))) == 0.0
        assert fro_norm(sp.csc_array((3, 2))) == 0.0
