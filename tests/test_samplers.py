"""Sampler tests: multinomial draws, the block accept/reject pass, and the
distributional agreement of both pivot samplers with the enumeration
oracle."""

from collections import Counter

import numpy as np
import pytest

from rowpick import (
    DegenerateDistributionError,
    MaxRoundsExceededError,
    NotOrthonormalError,
    PivotSet,
    ProposalBlock,
    RankDeficientError,
    RowpickError,
    enumerate_volume_probs,
    leverage_multinomial,
    orth,
    rejection_rpqr,
    rejection_sample_submatrix,
    rpqr_sequential,
)


def empirical(sample_fn, draws):
    counts = Counter(sample_fn() for _ in range(draws))
    return {t: c / draws for t, c in counts.items()}


class TestPivotSet:
    def test_ordering_preserved(self):
        s = PivotSet(np.array([3, 0, 2]), 5)
        assert list(s) == [3, 0, 2]
        assert s.as_tuple() == (0, 2, 3)
        assert len(s) == 3

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PivotSet(np.array([1, 1]), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            PivotSet(np.array([4]), 4)

    def test_equality_and_hash(self):
        a, b = PivotSet(np.array([1, 2]), 5), PivotSet([1, 2], 5)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != PivotSet([2, 1], 5)
        assert a != PivotSet([1, 2], 6)
        assert a != (1, 2)
        assert {a, b, PivotSet([2, 1], 5)} == {a, PivotSet([2, 1], 5)}
        assert PivotSet([1, 2], 5) in {a}


class TestLeverageMultinomial:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        draws = leverage_multinomial([1.0, 0.0, 0.0], 5, rng)
        assert np.all(draws == 0)

    def test_two_point_frequencies(self):
        rng = np.random.default_rng(1)
        draws = leverage_multinomial([1.0, 1.0], 100000, rng)
        freq = np.mean(draws == 0)
        assert 0.49 <= freq <= 0.51

    def test_weighted_frequencies(self):
        rng = np.random.default_rng(2)
        draws = leverage_multinomial([2.0, 1.0, 1.0], 100000, rng)
        freqs = np.bincount(draws, minlength=3) / 100000
        np.testing.assert_allclose(freqs, [0.5, 0.25, 0.25], atol=0.01)

    def test_zero_scores_never_drawn(self):
        rng = np.random.default_rng(3)
        draws = leverage_multinomial([0.5, 0.0, 0.5, 0.0], 20000, rng)
        assert set(np.unique(draws)) <= {0, 2}

    def test_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            leverage_multinomial([0.0, 0.0], 3, np.random.default_rng(0))


class TestRejectionSampleSubmatrix:
    def test_identity_gram_accepts_everything(self):
        k = 4
        block = ProposalBlock(
            proposals=np.arange(k), gram=np.eye(k), lev_scores=np.ones(k)
        )
        accepted = rejection_sample_submatrix(block, np.random.default_rng(0))
        assert accepted == list(range(k))

    def test_zero_gram_accepts_nothing(self):
        k = 3
        block = ProposalBlock(
            proposals=np.arange(k), gram=np.zeros((k, k)), lev_scores=np.ones(k)
        )
        assert rejection_sample_submatrix(block, np.random.default_rng(1)) == []

    def test_duplicate_proposal_never_double_accepted(self):
        # proposals t1 == t2: once position 0 is accepted, elimination zeroes
        # position 1's diagonal, so it can never be accepted afterwards
        rng = np.random.default_rng(2)
        c = np.array([[0.6], [0.3]])
        C = np.hstack([c, c, np.array([[0.1], [0.5]])])
        H = C.T @ C
        lev = np.array([0.9, 0.9, 0.9])
        both = 0
        for _ in range(100000):
            block = ProposalBlock(np.array([5, 5, 7]), H, lev)
            acc = rejection_sample_submatrix(block, rng)
            if 0 in acc and 1 in acc:
                both += 1
        assert both == 0

    def test_gram_left_unchanged(self):
        # the pass eliminates on a private copy of the Gram matrix
        rng = np.random.default_rng(4)
        C = rng.standard_normal((3, 4)) * 0.4
        gram = C.T @ C
        before = gram.copy()
        block = ProposalBlock(np.arange(4), gram, np.diag(gram) + 0.01)
        for _ in range(50):
            rejection_sample_submatrix(block, rng)
        assert block.gram is gram
        np.testing.assert_array_equal(gram, before)

    def test_ratio_assertion(self):
        block = ProposalBlock(
            proposals=np.arange(2),
            gram=np.diag([1.5, 0.5]),
            lev_scores=np.array([1.0, 1.0]),
        )
        with pytest.raises(NotOrthonormalError, match="acceptance ratio above 1"):
            rejection_sample_submatrix(block, np.random.default_rng(3))


class TestRejectionRpqr:
    def test_canonical_columns_forced(self):
        m, k = 6, 3
        Q = np.eye(m)[:, :k]
        for seed in range(20):
            pivots, _ = rejection_rpqr(Q, np.random.default_rng(seed))
            assert pivots.as_tuple() == (0, 1, 2)

    def test_square_orthogonal_takes_all_rows(self):
        rng = np.random.default_rng(0)
        Q = orth(rng.standard_normal((4, 4)))
        pivots, _ = rejection_rpqr(Q, rng)
        assert pivots.as_tuple() == (0, 1, 2, 3)

    def test_not_orthonormal_rejected(self):
        with pytest.raises(NotOrthonormalError):
            rejection_rpqr(np.ones((4, 2)), np.random.default_rng(0))

    def test_nan_basis_rejected(self):
        Q = orth(np.random.default_rng(1).standard_normal((6, 2)))
        Q[0, 0] = np.nan
        with pytest.raises(NotOrthonormalError):
            rejection_rpqr(Q, np.random.default_rng(0))

    def test_zero_rows_never_selected(self):
        Q = np.zeros((8, 2))
        Q[1, 0] = 1.0
        Q[4, 1] = 1.0
        for seed in range(30):
            pivots, _ = rejection_rpqr(Q, np.random.default_rng(seed))
            assert pivots.as_tuple() == (1, 4)

    def test_seed_determinism(self):
        Q = orth(np.random.default_rng(5).standard_normal((9, 3)))
        a, _ = rejection_rpqr(Q, np.random.default_rng(77))
        b, _ = rejection_rpqr(Q, np.random.default_rng(77))
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_output_qr_consistency(self):
        rng = np.random.default_rng(6)
        Q = orth(rng.standard_normal((12, 4)))
        pivots, qr = rejection_rpqr(Q, rng)
        target = Q[pivots.indices, :].T
        rebuilt = qr.reconstruct()
        assert np.linalg.norm(rebuilt - target) <= 1e-12 * np.linalg.norm(target)

    def test_max_rounds_cap(self):
        Q = np.eye(6)[:, :2]
        with pytest.raises(MaxRoundsExceededError):
            # forcing a tiny round budget on an adversarial start can trip
            # the cap; bias-free sampling from a 2-subset support still
            # needs at least one full round
            rejection_rpqr(Q * 0.0 + Q, np.random.default_rng(0), max_rounds=0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        Q = orth(rng.standard_normal((5, 2)))
        dist = enumerate_volume_probs(Q, 2)
        emp = empirical(lambda: rejection_rpqr(Q, rng)[0].as_tuple(), 40000)
        assert dist.total_variation(emp) < 0.02


class TestRpqrSequential:
    def test_rank_one_selects_the_column(self):
        M = np.zeros((4, 5))
        M[0, 2] = 3.0
        pivots = rpqr_sequential(M, 1, np.random.default_rng(0))
        assert list(pivots) == [2]

    def test_identity_first_pivot_uniform(self):
        rng = np.random.default_rng(1)
        m = 6
        counts = Counter(
            rpqr_sequential(np.eye(m), m, rng).indices[0] for _ in range(30000)
        )
        freqs = np.array([counts[i] for i in range(m)]) / 30000
        np.testing.assert_allclose(freqs, 1 / m, atol=0.01)

    def test_identity_full_selection_is_permutation(self):
        pivots = rpqr_sequential(np.eye(5), 5, np.random.default_rng(2))
        assert sorted(pivots) == [0, 1, 2, 3, 4]

    def test_rank_deficient_detected(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal((6, 1))
        M = col @ np.ones((1, 4))  # rank one, four columns
        with pytest.raises(RankDeficientError):
            rpqr_sequential(M, 2, rng)

    def test_caller_matrix_untouched(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 6))
        before = M.copy()
        rpqr_sequential(M, 3, rng)
        np.testing.assert_array_equal(M, before)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        Q = orth(rng.standard_normal((5, 2)))
        dist = enumerate_volume_probs(Q, 2)
        emp = empirical(lambda: rpqr_sequential(Q.T, 2, rng).as_tuple(), 40000)
        assert dist.total_variation(emp) < 0.02


class TestSamplerAgreement:
    def test_cross_sampler_distributions_match(self):
        rng = np.random.default_rng(9)
        Q = orth(rng.standard_normal((6, 2)))
        draws = 30000
        emp_rej = empirical(lambda: rejection_rpqr(Q, rng)[0].as_tuple(), draws)
        emp_seq = empirical(lambda: rpqr_sequential(Q.T, 2, rng).as_tuple(), draws)
        keys = set(emp_rej) | set(emp_seq)
        tv = 0.5 * sum(
            abs(emp_rej.get(t, 0.0) - emp_seq.get(t, 0.0)) for t in keys
        )
        assert tv < 0.03

    def test_biased_acceptance_detected(self):
        # corrupting the accept rule must be caught: it either skews the
        # sampled distribution or force-accepts a duplicate pivot, which the
        # QR update refuses
        rng = np.random.default_rng(10)
        Q = orth(rng.standard_normal((6, 2)))
        dist = enumerate_volume_probs(Q, 2)
        draws, crashes = 30000, 0
        counts = Counter()
        for _ in range(draws):
            try:
                counts[rejection_rpqr(Q, rng, _accept_bias=0.05)[0].as_tuple()] += 1
            except RowpickError:
                crashes += 1
        completed = sum(counts.values())
        tv = dist.total_variation({t: c / completed for t, c in counts.items()})
        assert tv > 0.02 or crashes > 0


class TestPinnedDrawStreams:
    """Both samplers on the criterion 02 basis, seed 1: the pivots (in
    selection order) and the generator state afterwards. A change to the
    arithmetic behind an accept decision or a draw, or to how many uniforms
    a call consumes, shows up here."""

    REJECTION = [
        (1, 0), (1, 4), (0, 1), (4, 5), (0, 5), (2, 0), (3, 1), (0, 4),
        (4, 1), (4, 5), (4, 1), (3, 5), (3, 0), (4, 0), (1, 0), (0, 2),
        (3, 1), (4, 1), (5, 0), (0, 4), (1, 4), (1, 4), (2, 0), (1, 4),
    ]
    SEQUENTIAL = [
        (2, 0), (5, 2), (1, 4), (0, 4), (0, 2), (0, 4), (1, 4), (2, 1),
        (2, 0), (1, 4), (0, 5), (4, 1), (3, 1), (1, 2), (0, 2), (5, 0),
        (4, 1), (0, 5), (0, 1), (5, 0), (4, 1), (4, 1), (1, 4), (0, 2),
    ]

    def test_streams(self):
        Q = orth(np.random.default_rng(2024).standard_normal((6, 2)))
        QT = np.ascontiguousarray(Q.T)
        rng = np.random.default_rng(1)
        rej = [tuple(rejection_rpqr(Q, rng)[0]) for _ in self.REJECTION]
        seq = [tuple(rpqr_sequential(QT, 2, rng)) for _ in self.SEQUENTIAL]
        assert rej == self.REJECTION
        assert seq == self.SEQUENTIAL
        assert rng.random() == 0.371854569870106
