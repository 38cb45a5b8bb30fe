"""Sampler tests: multinomial draws, the block accept/reject pass, and the
distributional agreement of both pivot samplers with the enumeration
oracle."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from rowpick import (
    InvalidParamError,
    MaxRoundsExceededError,
    NotOrthonormalError,
    PivotSet,
    RankDeficientError,
    RowpickError,
    enumerate_volume_probs,
    orth,
    rejection_rpqr,
    rpqr_sequential,
    run_method,
)
from rowpick import samplers
from rowpick.linalg import squared_row_norms
from rowpick.samplers import (
    ACCEPT_SLACK,
    _accept_pass,
    _draw_from_cumulative,
    _draw_one,
)


def empirical(sample_fn, draws):
    counts = Counter(sample_fn() for _ in range(draws))
    return {t: c / draws for t, c in counts.items()}


# Right-looking references: the same samplers written as explicit
# elimination on a working copy, with the chosen rows projected out through
# numpy's QR rather than the sampler's own. The library's left-looking forms
# must make the same decisions on the same generator stream.

def right_looking_accept_pass(H, lev, rng):
    """Accept/reject walk that applies each acceptance's Schur-complement
    update to the whole trailing block of a copy of ``H``."""
    H = np.array(H, dtype=np.float64)
    nb = H.shape[0]
    accepted = []
    for i, lev_i in enumerate(lev):
        hii = H[i, i]
        assert hii <= lev_i + ACCEPT_SLACK
        if lev_i * rng.random() < hii:
            accepted.append(i)
            if hii > 0.0 and i + 1 < nb:
                H[i + 1:, i + 1:] -= np.outer(H[i + 1:, i] / hii, H[i, i + 1:])
    return accepted


def projected_out(Q, rows, proposals):
    """The columns ``proposals`` of ``Q^T`` less their projection on the
    span of its columns ``rows``."""
    X = Q.T[:, proposals]
    if not len(rows):
        return X
    U = np.linalg.qr(Q.T[:, rows])[0]
    return X - U @ (U.T @ X)


def right_looking_rejection(Q, rng):
    """Block rejection sampler over a projected-out Gram per round."""
    m, k = Q.shape
    lev = squared_row_norms(Q)
    cum = lev.cumsum()
    chosen = []
    while len(chosen) < k:
        proposals = cum[:-1].searchsorted(rng.random(k) * cum[-1], side="right")
        C = projected_out(Q, chosen, proposals)
        accepted = right_looking_accept_pass(C.T @ C, lev[proposals], rng)
        chosen.extend(int(proposals[i]) for i in accepted[: k - len(chosen)])
    return chosen


def right_looking_rpqr(M, k, rng):
    """Sequential randomly pivoted QR that orthogonalizes a dense working
    copy of ``M`` against every pivot; its cancellation guard recomputes
    every column's norm from the working copy."""
    W = np.array(M, dtype=np.float64)
    norms2 = np.einsum("ij,ij->j", W, W)
    floor = 1e-8 * norms2
    cum = norms2.cumsum()
    pivots = []
    while True:
        s = _draw_one(cum, float(cum[-1]), rng)
        pivots.append(s)
        if len(pivots) == k:
            return pivots
        q = W[:, s] / math.sqrt(W[:, s] @ W[:, s])
        proj = q @ W
        norms2 -= proj * proj
        norms2[s] = 0.0
        floor[s] = -1.0
        W -= np.outer(q, proj)
        W[:, s] = 0.0
        if (norms2 < floor).any():
            norms2 = np.einsum("ij,ij->j", W, W)
            norms2[pivots] = 0.0
            floor = 1e-8 * norms2
            floor[pivots] = -1.0
        np.maximum(norms2, 0.0, out=norms2)
        cum = norms2.cumsum()


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


def multinomial(scores, count, rng):
    """``count`` iid draws with probability proportional to ``scores``, as
    the block sampler proposes rows from their leverage scores."""
    cum = np.cumsum(scores)
    return _draw_from_cumulative(cum[:-1], cum[-1], count, rng)


def accept_pass(H, lev, rng):
    """The accept pass over a whole block, as the sampler's first round."""
    return _accept_pass(H, np.asarray(lev).tolist(), rng, 0.0, H.shape[0])


class TestLeverageMultinomial:
    """The block sampler's proposal draws."""

    def test_point_mass(self):
        rng = np.random.default_rng(0)
        draws = multinomial([1.0, 0.0, 0.0], 5, rng)
        assert np.all(draws == 0)

    def test_two_point_frequencies(self):
        rng = np.random.default_rng(1)
        draws = multinomial([1.0, 1.0], 100000, rng)
        freq = np.mean(draws == 0)
        assert 0.49 <= freq <= 0.51

    def test_weighted_frequencies(self):
        rng = np.random.default_rng(2)
        draws = multinomial([2.0, 1.0, 1.0], 100000, rng)
        freqs = np.bincount(draws, minlength=3) / 100000
        np.testing.assert_allclose(freqs, [0.5, 0.25, 0.25], atol=0.01)

    def test_zero_scores_never_drawn(self):
        rng = np.random.default_rng(3)
        draws = multinomial([0.5, 0.0, 0.5, 0.0], 20000, rng)
        assert set(np.unique(draws)) <= {0, 2}


class TestRejectionSampleSubmatrix:
    """The block sampler's accept pass over one round's proposals."""

    def test_identity_gram_accepts_everything(self):
        k = 4
        accepted = accept_pass(np.eye(k), np.ones(k), np.random.default_rng(0))
        assert accepted == list(range(k))

    def test_zero_gram_accepts_nothing(self):
        k = 3
        assert accept_pass(np.zeros((k, k)), np.ones(k),
                           np.random.default_rng(1)) == []

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
            acc = accept_pass(H, lev, rng)
            if 0 in acc and 1 in acc:
                both += 1
        assert both == 0

    def test_gram_left_unchanged(self):
        rng = np.random.default_rng(4)
        C = rng.standard_normal((3, 4)) * 0.4
        gram = C.T @ C
        before = gram.copy()
        for _ in range(50):
            accept_pass(gram, np.diag(gram) + 0.01, rng)
        np.testing.assert_array_equal(gram, before)

    @pytest.mark.parametrize("k", [3, 10, 60])
    def test_matches_right_looking_reference(self, k):
        # Grams of proposal residuals after a few absorbed pivots, with
        # repeated proposals, as the block sampler builds them
        rng = np.random.default_rng(k)
        Q = orth(rng.standard_normal((4 * k, k)))
        lev = squared_row_norms(Q)
        for trial in range(20):
            nb = int(rng.integers(1, 61))
            absorbed = int(rng.integers(0, k))
            rows = rng.choice(4 * k, absorbed, replace=False) if absorbed else []
            proposals = rng.integers(0, 4 * k, nb)
            C = projected_out(Q, rows, proposals)
            H = C.T @ C
            H = (H + H.T) / 2  # the sampler's syrk Gram is exactly symmetric
            seed = 1000 * k + trial
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _accept_pass(H, lev[proposals].tolist(), got_rng, 0.0, nb)
            assert got == right_looking_accept_pass(H, lev[proposals], ref_rng)
            assert got_rng.random() == ref_rng.random()

    def test_ratio_assertion(self):
        with pytest.raises(NotOrthonormalError, match="acceptance ratio above 1"):
            accept_pass(np.diag([1.5, 0.5]), np.array([1.0, 1.0]),
                        np.random.default_rng(3))


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
        # the returned QR factors the chosen rows: U^T Q^T[:, S] = R
        rng = np.random.default_rng(6)
        Q = orth(rng.standard_normal((12, 4)))
        pivots, qr = rejection_rpqr(Q, rng)
        target = Q[pivots.indices, :].T
        assert qr.k_cur == 4
        got = qr.apply_qt(target)
        assert np.linalg.norm(got - qr.R) <= 1e-12 * np.linalg.norm(target)
        np.testing.assert_array_equal(qr.R, np.triu(qr.R))

    def test_max_rounds_cap(self, monkeypatch):
        # with no rounds allowed, no pivot can be drawn
        monkeypatch.setattr(samplers, "MAX_ROUNDS", 0)
        with pytest.raises(MaxRoundsExceededError, match="0 proposal rounds"):
            rejection_rpqr(np.eye(6)[:, :2], np.random.default_rng(0))

    @pytest.mark.parametrize("k", [3, 10, 60])
    def test_matches_right_looking_reference(self, k):
        Q = orth(np.random.default_rng(k).standard_normal((5 * k, k)))
        for seed in range(10):
            pivots, _ = rejection_rpqr(Q, np.random.default_rng(seed))
            ref = right_looking_rejection(Q, np.random.default_rng(seed))
            assert list(pivots) == ref

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

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, sparse, bad):
        A = np.random.default_rng(5).standard_normal((12, 8))
        A[4, 2] = bad
        A = sp.csc_array(A) if sparse else A
        with pytest.raises(InvalidParamError, match="NaN or infinite"):
            rpqr_sequential(A.T, 3, np.random.default_rng(0))
        with pytest.raises(InvalidParamError, match="NaN or infinite"):
            run_method("RPQR", A, 3, np.random.default_rng(0))

    def test_caller_matrix_untouched(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 6))
        before = M.copy()
        rpqr_sequential(M, 3, rng)
        np.testing.assert_array_equal(M, before)
        for S in (sp.csr_array(before), sp.csc_array(before)):
            arrays = [x.copy() for x in (S.data, S.indices, S.indptr)]
            rpqr_sequential(S, 3, rng)
            for got, kept in zip((S.data, S.indices, S.indptr), arrays):
                np.testing.assert_array_equal(got, kept)

    @pytest.mark.parametrize("k", [3, 10, 60])
    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_matches_right_looking_reference(self, k, form):
        rng = np.random.default_rng(k)
        d, m = 80, 300
        decay = np.arange(1, m + 1) ** -1.0
        if form == "dense":
            M = rng.standard_normal((d, m)) * decay
        else:
            M = sp.random_array((d, m), density=0.1, format="csr", rng=rng) @ sp.diags_array(decay)
        dense = M.toarray() if form == "sparse" else M
        for seed in range(10):
            got = rpqr_sequential(M, k, np.random.default_rng(seed))
            assert list(got) == right_looking_rpqr(dense, k, np.random.default_rng(seed))

    def test_cancellation_guard_keeps_the_law(self, monkeypatch):
        # rows 0 and 1 of Q, columns of M, are nearly parallel: whichever is
        # drawn first leaves the other a squared residual about 1e-10 of its
        # own, far below the downdate's 1e-8 floor, so the true residual
        # norms are recomputed
        Q = orth(np.array([[1.0, 0.0], [1.0, 1e-5], [0.0, 1.0],
                           [0.6, 0.8], [-0.8, 0.6]]))
        M = np.ascontiguousarray(Q.T)
        recomputes = []
        real = samplers._residual_norms2

        def counted(*args):
            recomputes.append(1)
            return real(*args)

        monkeypatch.setattr(samplers, "_residual_norms2", counted)
        rng = np.random.default_rng(12)
        draws = 20000
        emp = empirical(lambda: rpqr_sequential(M, 2, rng).as_tuple(), draws)
        dist = enumerate_volume_probs(Q, 2)
        assert len(recomputes) > draws // 4
        assert dist.total_variation(emp) < 0.02

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
