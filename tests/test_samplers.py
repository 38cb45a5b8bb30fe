"""Sampler tests: multinomial draws, the block accept/reject pass, the
distributional agreement of both pivot samplers with the enumeration
oracle, and the sampler objects' state stores."""

import gc
import hashlib
import math
import tracemalloc
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
    RankDeficientUpdateError,
    RejectionSampler,
    RowpickError,
    SequentialSampler,
    enumerate_volume_probs,
    gen_decay_dense,
    gen_decay_sparse,
    orth,
    rangefinder,
    rejection_rpqr,
    rpqr_sequential,
    run_method,
)
from rowpick import samplers
from rowpick.samplers import (
    ACCEPT_SLACK,
    MAX_ROUNDS,
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
    lev = np.einsum("ij,ij->i", Q, Q)
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

    def test_unchecked_sets_equal_validated_ones(self):
        # the samplers build their sets unchecked; they must compare and
        # hash as the validated ones do
        a, b = PivotSet._unchecked([3, 0, 2], 5), PivotSet(np.array([3, 0, 2]), 5)
        assert a == b and hash(a) == hash(b)
        assert a.indices.dtype == b.indices.dtype and a.m == b.m
        assert list(a) == [3, 0, 2] and a.as_tuple() == (0, 2, 3)
        assert a != PivotSet([0, 2, 3], 5) and a != PivotSet([3, 0, 2], 6)
        assert {a, b} == {b}


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
        lev = np.einsum("ij,ij->i", Q, Q)
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

    def test_rounds_count_the_accept_passes(self, monkeypatch):
        # one accept pass per proposal round; k = 1 accepts its one proposal
        # with ratio exactly 1, so it always takes one round
        passes = []
        real = samplers._accept_pass

        def counted(*args):
            passes.append(1)
            return real(*args)

        monkeypatch.setattr(samplers, "_accept_pass", counted)
        for k in (1, 2, 4, 9):
            Q = orth(np.random.default_rng(k).standard_normal((3 * k + 2, k)))
            for seed in range(25):
                passes.clear()
                pivots, rounds = rejection_rpqr(Q, np.random.default_rng(seed))
                assert len(pivots) == k
                assert type(rounds) is int and 1 <= rounds <= MAX_ROUNDS
                assert rounds == len(passes)
                if k == 1:
                    assert rounds == 1

    def test_duplicate_acceptance_refused(self):
        # a biased accept rule takes a duplicate of a row accepted before it,
        # in the same round or an earlier one; the sampler must refuse it
        # with its own error, never return it or fail inside PivotSet
        Q = np.eye(6)[:, :2]
        refused = 0
        for seed in range(200):
            try:
                pivots, _ = rejection_rpqr(Q, np.random.default_rng(seed),
                                           _accept_bias=0.5)
            except RankDeficientUpdateError:
                refused += 1
            else:
                assert len(set(pivots)) == len(pivots) == 2
        assert refused > 0

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

    def test_subnormal_residual_mass_rescaled(self):
        # squared norms below the normal float range would make u * total
        # round up to total, and past it overflow; the sampler scales M by a
        # power of two first, which keeps every draw
        M = np.random.default_rng(0).standard_normal((3, 8))
        for seed in range(50):
            want = rpqr_sequential(M, 3, np.random.default_rng(seed))
            for scale in (2.0**-540, 2.0**540):
                for form in (np.asarray, sp.csc_array):
                    got = rpqr_sequential(form(M * scale), 3, np.random.default_rng(seed))
                    assert got == want

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

    def test_column_recomputed_at_zero_is_retired(self, monkeypatch):
        # a recompute that reads exactly zero marks the column spent: later
        # downdates take it below zero, and the guard must not recompute it
        # again. The recompute is stubbed to zero so that the true residual,
        # nonzero here, keeps the later downdates negative
        recomputed = []

        def zeros(M, cols, basis):
            recomputed.extend(cols.tolist())
            return np.zeros(cols.size)

        monkeypatch.setattr(samplers, "_residual_norms2", zeros)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 10))
        M = np.hstack([X, X + 1e-6 * rng.standard_normal((8, 10))])
        for seed in range(5):
            recomputed.clear()
            rpqr_sequential(M, 6, np.random.default_rng(seed))
            assert recomputed and len(recomputed) == len(set(recomputed))

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


class TestInclusionLaw:
    """Volume sampling from an orthonormal ``Q`` is the projection DPP with
    kernel ``Q Q^T``, so row ``i`` is in a draw with probability ``l_i``,
    its leverage score, at any size. Over ``N`` draws of one object the
    counts ``c_i`` give ``z_i^2 = (c_i - N l_i)^2 / (N l_i (1 - l_i))``, each
    about 1 under the law, and their mean over the m rows stays below the
    chi-square quantile at a false-alarm rate of 1e-6.

    The same law puts rows ``i`` and ``j`` in one draw with probability
    ``l_i l_j - (Q_i . Q_j)^2``, which only the accept pass's Schur
    downdate keeps below ``l_i l_j``. On the 200 pairs it keeps apart the
    most, the count ``Y`` of those pairs inside a draw has an exact mean,
    and over ``N`` independent draws ``z = (sum Y - N E[Y]) / sqrt(N
    var(Y))`` is about normal; ``|z| <= 5`` is a two-sided false-alarm
    rate of about 6e-7. At 5,000 draws this certifies only that the
    downdate is there: a removed one reads ``z`` above 20, while one 10%
    too weak is not reliably caught."""

    DRAWS = 5000
    PAIRS = 200

    @staticmethod
    def basis():
        G = np.random.default_rng(0).standard_normal((200, 10))
        return orth(G * np.linspace(0.2, 3.0, 200)[:, None])

    def included(self, Q, sampler, **kwargs):
        # one row per draw that did not raise, True on the draw's pivots;
        # an error ends an iterator, so a fresh one continues the count
        X = np.zeros((self.DRAWS, Q.shape[0]), dtype=bool)
        rng = np.random.default_rng(1)
        done = 0
        while done < self.DRAWS:
            try:
                for out in sampler.draws(rng, self.DRAWS - done, **kwargs):
                    X[done, (out[0] if isinstance(out, tuple) else out).indices] = True
                    done += 1
            except RankDeficientUpdateError:
                pass
        return X

    @staticmethod
    def mean_z2(Q, X):
        lev = np.einsum("ij,ij->i", Q, Q)
        expected = len(X) * lev
        return float(np.mean((X.sum(axis=0) - expected) ** 2 / (expected * (1.0 - lev))))

    def pairs_z(self, Q, X):
        lev = np.einsum("ij,ij->i", Q, Q)
        i, j = np.triu_indices(Q.shape[0], 1)
        coupling = np.einsum("ij,ij->i", Q[i], Q[j]) ** 2
        top = np.argsort(coupling / (lev[i] * lev[j]), kind="stable")[-self.PAIRS:]
        i, j, coupling = i[top], j[top], coupling[top]
        Y = np.count_nonzero(X[:, i] & X[:, j], axis=1)
        mean = float(np.sum(lev[i] * lev[j] - coupling))
        return float((Y.sum() - len(Y) * mean) / math.sqrt(len(Y) * Y.var()))

    @pytest.fixture(scope="class")
    def samples(self):
        Q = self.basis()
        return Q, {"rejection": self.included(Q, RejectionSampler(Q)),
                   "sequential": self.included(Q, SequentialSampler(Q.T, Q.shape[1]))}

    @staticmethod
    def threshold(m):
        from scipy.stats import chi2
        return chi2.ppf(1.0 - 1e-6, m) / m

    def test_both_samplers_keep_the_inclusion_law(self, samples):
        Q, drawn = samples
        limit = self.threshold(Q.shape[0])
        for X in drawn.values():
            assert self.mean_z2(Q, X) < limit

    def test_biased_acceptance_fails_the_check(self):
        Q = self.basis()
        X = self.included(Q, RejectionSampler(Q), _accept_bias=0.005)
        assert self.mean_z2(Q, X) > self.threshold(Q.shape[0])

    def test_both_samplers_keep_the_pair_law(self, samples):
        Q, drawn = samples
        for X in drawn.values():
            assert abs(self.pairs_z(Q, X)) <= 5.0

    def test_removed_downdate_fails_the_pairs_check(self, monkeypatch):
        # the accept pass sees no coupling between a round's proposals, so
        # it never downdates; the QR still projects out earlier rounds
        accept_pass = samplers._accept_pass
        monkeypatch.setattr(samplers, "_accept_pass", lambda H, *args: accept_pass(
            np.diag(H.diagonal()), *args))
        Q = self.basis()
        assert self.pairs_z(Q, self.included(Q, RejectionSampler(Q))) > 5.0


class TestPinnedDrawStreams:
    """Both samplers on the criterion 02 basis, seed 1: the pivots (in
    selection order), the block sampler's rounds and the generator state
    afterwards. A change to the
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

    # proposal rounds of each REJECTION draw, as the accept passes counted
    # them when the sampler still factored every chosen row
    ROUNDS = [3, 1, 1, 2, 1, 2, 2, 2, 3, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 2, 3, 2, 1]

    def test_streams(self):
        self.check(lambda Q: lambda rng: rejection_rpqr(Q, rng),
                   lambda QT: lambda rng: rpqr_sequential(QT, 2, rng))

    def test_streams_through_sampler_objects(self):
        # one object per sampler for all the draws, as verify makes them
        self.check(lambda Q: RejectionSampler(Q).draw,
                   lambda QT: SequentialSampler(QT, 2).draw)

    def check(self, rejection, sequential):
        Q = orth(np.random.default_rng(2024).standard_normal((6, 2)))
        rej_draw = rejection(Q)
        seq_draw = sequential(np.ascontiguousarray(Q.T))
        rng = np.random.default_rng(1)
        rej, rounds = zip(*(rej_draw(rng) for _ in self.REJECTION))
        seq = [tuple(seq_draw(rng)) for _ in self.SEQUENTIAL]
        assert [tuple(p) for p in rej] == self.REJECTION
        assert list(rounds) == self.ROUNDS
        assert seq == self.SEQUENTIAL
        assert rng.random() == 0.371854569870106


class TestPinnedBlockAbsorbs:
    """Five draws from one block sampler at k=40, where later rounds absorb
    blocks of several rows after earlier ones: the pivots, the rounds and
    the generator state afterwards, as the sampler drew them when it
    factored each block by a hand-written recursive QR."""

    PIVOTS = [
        [21, 64, 5, 12, 17, 40, 16, 22, 1, 34, 13, 36, 18, 8, 10, 33, 11, 19, 31, 6,
         4, 26, 35, 25, 54, 2, 28, 9, 15, 7, 0, 27, 45, 30, 62, 20, 42, 14, 3, 23],
        [2, 3, 41, 21, 5, 22, 20, 8, 17, 45, 15, 58, 9, 31, 19, 36, 14, 54, 26, 88,
         32, 40, 10, 100, 7, 13, 29, 11, 24, 4, 84, 39, 6, 35, 27, 28, 1, 0, 30, 12],
        [33, 14, 34, 1, 64, 8, 19, 55, 10, 9, 21, 2, 25, 18, 44, 12, 23, 11, 4, 0,
         71, 91, 15, 54, 16, 40, 32, 7, 38, 27, 28, 13, 58, 6, 24, 20, 5, 3, 26, 17],
        [57, 31, 9, 19, 13, 4, 2, 78, 15, 27, 23, 34, 0, 8, 24, 40, 3, 14, 16, 21,
         32, 12, 18, 22, 1, 35, 11, 5, 10, 6, 45, 36, 7, 28, 17, 26, 25, 29, 47, 38],
        [7, 4, 1, 28, 24, 62, 18, 10, 16, 25, 14, 17, 11, 32, 13, 37, 3, 19, 22, 65,
         26, 12, 5, 20, 9, 6, 27, 15, 2, 34, 39, 29, 47, 23, 0, 63, 21, 8, 43, 33],
    ]
    ROUNDS = [7, 5, 5, 6, 4]

    def test_draws(self, monkeypatch):
        absorbed = []  # (columns absorbed before, block width) per call
        real = samplers.HouseholderQR._absorb
        monkeypatch.setattr(samplers.HouseholderQR, "_absorb",
                            lambda qr, C: absorbed.append((qr.k_cur, C.shape[1]))
                            or real(qr, C))
        rng = np.random.default_rng(0)
        sampler = RejectionSampler(rangefinder(gen_decay_dense(600, 600, rng), 40, 4, rng))
        rng = np.random.default_rng(1)
        pivots, rounds = zip(*(sampler.draw(rng) for _ in self.ROUNDS))
        assert [p.indices.tolist() for p in pivots] == self.PIVOTS
        assert list(rounds) == self.ROUNDS
        assert rng.random() == 0.13522758548997305
        assert any(i0 > 0 and width >= 2 for i0, width in absorbed)


class TestSamplerObjects:
    """Draws that read stored states keep the function forms' streams; a
    single draw stores no state, whatever the cap; many draws keep the
    store within ``BLOCK_ENTRIES`` float64 entries; stored arrays are never
    written."""

    @staticmethod
    def k4_samplers():
        Q = orth(np.random.default_rng(64).standard_normal((6, 4)))
        return Q, RejectionSampler(Q), SequentialSampler(Q.T, 4)

    def test_stored_states_keep_the_function_streams(self):
        # at k=4 on 6 rows, later draws read stored Grams and cumulative
        # norms, and rebuild the working state from the prefix on a miss
        Q, rej, seq = self.k4_samplers()
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(300):
            assert rej.draw(a) == rejection_rpqr(Q, b)
            assert seq.draw(a) == rpqr_sequential(Q.T, 4, b)
        assert rej._store.states and seq._store.states
        assert a.bit_generator.state == b.bit_generator.state

    def test_stored_arrays_are_never_written(self):
        _, rej, seq = self.k4_samplers()
        rng = np.random.default_rng(2)

        def checksums():
            sums = {key: hashlib.sha256(state[0].tobytes()).hexdigest()
                    for sampler in (rej, seq)
                    for key, state in sampler._store.states.items()}
            # the block sampler's residual diagonals, by round and prefix
            sums.update(((key, prefix), hashlib.sha256(np.array(diag).tobytes()).hexdigest())
                        for key, state in rej._store.states.items()
                        for prefix, diag in state[3].items())
            return sums

        for _ in range(300):
            rej.draw(rng)
            seq.draw(rng)
        before = checksums()
        assert any(len(key) == 2 and isinstance(key[1], tuple) for key in before)
        for _ in range(300):
            rej.draw(rng)
            seq.draw(rng)
        after = checksums()
        assert {key: after[key] for key in before} == before

    def test_draws_end_where_draw_calls_end(self, block_entries):
        # an iterator closed early, exhausted or ended by an error leaves
        # the generator where as many draw() calls leave it, whether its
        # last block of uniforms was used up or not
        Q = np.eye(6)[:, :2]  # an accept bias of 0.5 takes repeated rows
        for cap in (2**12, 2**21):  # blocks of 8 uniforms, or of every draw's
            block_entries(cap)
            for sampler, kwargs in ((RejectionSampler(Q), {"_accept_bias": 0.5}),
                                    (SequentialSampler(Q.T, 2), {})):
                for taken in (0, 1, 7, 40, 41):  # 41: exhausted
                    a, b = np.random.default_rng(taken), np.random.default_rng(taken)
                    drawn = sampler.draws(a, 40, **kwargs)
                    got = []
                    try:
                        while len(got) < taken:
                            got.append(next(drawn))
                    except StopIteration:
                        pass
                    except RankDeficientUpdateError as exc:
                        got.append(str(exc))
                    drawn.close()
                    want = []
                    for _ in range(len(got)):
                        try:
                            want.append(sampler.draw(b, **kwargs))
                        except RankDeficientUpdateError as exc:
                            want.append(str(exc))
                    assert got == want
                    assert a.bit_generator.state == b.bit_generator.state

    def test_warm_draws_factor_nothing(self, monkeypatch):
        # on criterion 02's basis every round's Gram recurs: once the store
        # holds them all, a draw never builds or extends a QR
        absorbed = []
        real = samplers.HouseholderQR._absorb
        monkeypatch.setattr(samplers.HouseholderQR, "_absorb",
                            lambda qr, C: absorbed.append(1) or real(qr, C))
        rej = RejectionSampler(orth(np.random.default_rng(2024).standard_normal((6, 2))))
        rng = np.random.default_rng(1)
        # 36 ordered proposal pairs, after no accepted row or after one of 6
        for _ in range(50000):
            if len(rej._store.states) == 36 * 7:
                break
            rej.draw(rng)
        assert len(rej._store.states) == 36 * 7 and absorbed
        absorbed.clear()
        for _ in range(3000):
            rej.draw(rng)
        assert not absorbed

    def test_warm_rounds_read_stored_diagonals(self, monkeypatch):
        # once every round and its diagonals are stored, no round runs the
        # computed accept pass
        passes = []
        real = samplers._accept_pass
        monkeypatch.setattr(samplers, "_accept_pass",
                            lambda *args: passes.append(1) or real(*args))
        rej = RejectionSampler(orth(np.random.default_rng(2024).standard_normal((6, 2))))
        rng = np.random.default_rng(1)
        for _ in rej.draws(rng, 20000):
            pass
        assert passes
        passes.clear()
        for _ in rej.draws(rng, 3000):
            pass
        assert not passes

    @staticmethod
    def peak_mib(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    def test_single_draw_stores_nothing(self, block_entries):
        block_entries(2**28)  # a cap that never binds
        Q = orth(np.random.default_rng(0).standard_normal((40000, 60)))
        M = gen_decay_sparse(20000, 2000, 30, np.random.default_rng(1)).T
        # the function forms' peaks before the sampler objects existed were
        # 1.86 and 3.65 MiB
        assert self.peak_mib(lambda: rejection_rpqr(Q, np.random.default_rng(2))) <= 1.95
        assert self.peak_mib(lambda: rpqr_sequential(M, 60, np.random.default_rng(2))) <= 3.85
        for sampler in (RejectionSampler(Q), SequentialSampler(M, 60)):
            sampler.draw(np.random.default_rng(3))
            assert not sampler._store.states
            assert sampler._store.free == 8 * 2**28

    def test_many_draws_stay_within_the_cap(self, block_entries):
        cap = 2**14
        block_entries(cap)
        Q = orth(np.random.default_rng(4).standard_normal((200, 10)))
        rng = np.random.default_rng(5)
        for sampler in (RejectionSampler(Q), SequentialSampler(Q.T, 10)):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(400):
                    sampler.draw(rng)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert sampler._store.free < 8 * cap // 20  # the cap binds
            assert held <= 8 * cap
