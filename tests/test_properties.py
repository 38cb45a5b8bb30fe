"""Property tests of the ARP pipeline over generated small inputs: every
shape up to 8 x 8, every valid k, dense and sparse
input, full rank or not, with zero entries, rows and columns.

Each generated case runs all three variants on the dense matrix and on its
CSC copy from the same seed. The examples are derandomized, so the suite
is deterministic. One more property checks ``orth`` taller than one leaf
of its tall-skinny QR against ``orth`` in one leaf, one that every method
skips the rows of ``A`` that hold no nonzero, and the last that draws
from one sampler object, one at a time or through its ``draws``
iterator, are the draws of as many calls of the sampler's function
form.
"""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rowpick import (
    METHOD_ORDER,
    VARIANTS,
    ArpConfig,
    PivotSet,
    RejectionSampler,
    RowpickError,
    SequentialSampler,
    arp_decompose,
    fro_norm,
    linalg,
    orth,
    rejection_rpqr,
    residual_fro,
    rpqr_sequential,
    run_method,
    samplers,
)

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None,
                             database=None)


@st.composite
def cases(draw, exponents=(0, -600, 600)):
    """``(A, k, seed)``: ``A`` is a product of Gaussian factors of a
    drawn inner rank, masked entrywise to a drawn density and scaled by
    ``2**e`` for an ``e`` drawn from ``exponents``."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(m, n)))
    rank = draw(st.integers(1, min(m, n)))
    density = draw(st.sampled_from([1.0, 0.6, 0.3]))
    scale = draw(st.sampled_from(exponents))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    A *= rng.random((m, n)) < density
    return np.ldexp(A, scale), k, seed


def _decompose(A, k, seed):
    """``{variant: decomposition}``, or the ``RowpickError`` the first
    variant raised; the variants share the pivot phase, so they all fail
    or none does."""
    out = {}
    for variant in VARIANTS:
        try:
            out[variant] = arp_decompose(
                A, ArpConfig(k=k, variant=variant, seed=seed))
        except RowpickError as exc:
            return exc
    return out


@PROPERTY_SETTINGS
@given(cases())
def test_sparse_and_dense_input_agree(case):
    A, k, seed = case
    dense = _decompose(A, k, seed)
    sparse = _decompose(sp.csc_array(A), k, seed)
    if isinstance(dense, RowpickError):
        assert type(sparse) is type(dense)
        return
    for variant in VARIANTS:
        d, s = dense[variant], sparse[variant]
        assert d.pivots == s.pivots
        assert d.pinv_fallback == s.pinv_fallback
        if variant == "type2":
            scale = max(np.linalg.norm(d.w), 1.0)
            assert np.linalg.norm(d.w - s.w) <= 1e-12 * scale
        else:
            assert d.w.tobytes() == s.w.tobytes()


@PROPERTY_SETTINGS
@given(cases())
def test_residual_finite_and_type2_not_worse(case):
    A, k, seed = case
    for A_in in (A, sp.csc_array(A)):
        decs = _decompose(A_in, k, seed)
        if isinstance(decs, RowpickError):
            continue
        res = {v: residual_fro(A_in, dec) for v, dec in decs.items()}
        assert all(np.isfinite(r) for r in res.values())
        for dec in decs.values():
            r = len(dec.pivots)
            assert 1 <= r <= k and dec.w.shape == (A.shape[0], r)
            if not dec.pinv_fallback:
                assert np.array_equal(dec.w[dec.pivots.indices], np.eye(r))
        assert res["type2"] <= res["type1"] + 1e-12 * fro_norm(A)


@PROPERTY_SETTINGS
@given(cases(exponents=(0,)), st.sampled_from([-600, 600]))
def test_pivots_invariant_under_power_of_two_scaling(case, j):
    A, k, seed = case
    cfg = ArpConfig(k=k, seed=seed)
    for A_in in (A, sp.csc_array(A)):
        try:
            ref = arp_decompose(A_in, cfg)
        except RowpickError as exc:
            with pytest.raises(type(exc)):
                arp_decompose(A_in * 2.0**j, cfg)
            continue
        assert arp_decompose(A_in * 2.0**j, cfg).pivots == ref.pivots


@st.composite
def tall_cases(draw):
    """``(B, leaf)``: ``B`` a product of Gaussian factors of a drawn inner
    rank, with a drawn share of zero rows, scaled by ``2**e``, and taller
    than one leaf when ``QR_LEAF_ROWS`` is ``leaf``."""
    n = draw(st.integers(1, 6))
    leaf = draw(st.integers(1, 8))
    m = draw(st.integers(max(leaf, 2 * n) + 1, 120))
    rank = draw(st.integers(1, n))
    zero_rows = draw(st.sampled_from([0.0, 0.5, 0.9]))
    scale = draw(st.sampled_from([0, -600, 600]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    B[rng.random(m) < zero_rows] = 0.0
    return np.ldexp(B, scale), leaf


@PROPERTY_SETTINGS
@given(tall_cases())
def test_orth_in_leaves_agrees_with_one_leaf(case):
    B, leaf = case
    one = orth(B)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "QR_LEAF_ROWS", leaf)
        Q = orth(B)
    r = one.shape[1]
    assert Q.shape == one.shape
    assert np.linalg.norm(Q.T @ Q - np.eye(r)) <= 1e-13 * max(r, 1)
    assert np.linalg.norm(Q @ Q.T - one @ one.T) <= 1e-10


@st.composite
def tall_sparse_cases(draw):
    """``(A, k, seed)``: ``A`` (at most 200 x 12, CSC) a product of
    Gaussian factors of a drawn inner rank, masked entrywise to a drawn
    density, with a drawn share of its rows zeroed, some of those stored as
    explicit zeros."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(n, 200))
    k = draw(st.integers(1, n))
    rank = draw(st.integers(1, n))
    density = draw(st.sampled_from([1.0, 0.3]))
    empty = draw(st.sampled_from([0.5, 0.8, 0.95]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    A *= rng.random((m, n)) < density
    zero = rng.random(m) < empty
    A[zero] = 0.0
    A = sp.coo_array(A)
    stored = np.flatnonzero(zero & (rng.random(m) < 0.5))  # explicit zeros
    A = sp.csc_array((np.concatenate([A.data, np.zeros(stored.size)]),
                      (np.concatenate([A.row, stored]),
                       np.concatenate([A.col, stored % n]))), shape=(m, n))
    A.sum_duplicates()
    return A, k, seed


@PROPERTY_SETTINGS
@given(st.one_of(cases(), tall_sparse_cases()))
def test_rows_without_a_nonzero_are_skipped(case):
    A, k, seed = case
    D = A.toarray() if sp.issparse(A) else A
    m = D.shape[0]
    rows = np.flatnonzero(D.any(axis=1))
    empty = np.flatnonzero(~D.any(axis=1))
    # with fewer nonempty rows than the sketch width, k rounded up to a
    # multiple of 4, A is decomposed whole
    skipped = -(-k // 4) * 4 <= rows.size < m
    for A_in, sub in ((D, D[rows]), (sp.csc_array(A), sp.csr_array(A)[rows])):
        for method in METHOD_ORDER:
            try:
                dec = run_method(method, A_in, k, np.random.default_rng(seed))
            except RowpickError as exc:
                if skipped:
                    with pytest.raises(type(exc)):
                        run_method(method, sub, k, np.random.default_rng(seed))
                continue
            W, S = dec.w, dec.pivots.indices
            want = fro_norm(D - W @ D[S])
            scale = fro_norm(D) + np.linalg.norm(W) * fro_norm(D[S])
            assert abs(residual_fro(A_in, dec) - want) <= 1e-12 * scale
            if not skipped:
                continue
            assert not np.isin(S, empty).any()
            assert not W[empty].any()
            ref = run_method(method, sub, k, np.random.default_rng(seed))
            lifted = np.zeros_like(W)
            lifted[rows] = ref.w
            assert dec.pivots == PivotSet(rows[ref.pivots.indices], m)
            assert dec.pinv_fallback == ref.pinv_fallback
            assert W.tobytes() == lifted.tobytes()


@st.composite
def sampler_cases(draw):
    """``(Q, M, k, bias, max_rounds, cap, seed)`` on small bases: ``Q`` (at
    most 12 x 4) orthonormal, from rows repeated and zeroed at drawn
    shares; ``M`` (at most 6 x 12, dense or CSC) of a drawn inner rank with
    zeroed and repeated columns, so it may have less rank than ``k``; a
    test-only accept bias, a round cap and a cache cap, each at its default
    or one that binds."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, draw(st.integers(1, min(m, 4)))))
    X = X[rng.integers(0, draw(st.integers(1, m)), m)]  # repeated rows
    X[rng.random(m) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if not X.any():
        X[0] = 1.0
    Q = orth(X)
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(d, m, 4)))
    rank = draw(st.integers(1, min(d, m)))
    M = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, m))
    M = M[:, rng.integers(0, m, m)]  # repeated columns
    M[:, rng.random(m) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        M = sp.csc_array(M)
    bias = draw(st.sampled_from([0.0, 0.0, 0.05, 0.5]))
    max_rounds = draw(st.sampled_from([samplers.MAX_ROUNDS, 1, 2]))
    cap = draw(st.sampled_from([samplers.BLOCK_ENTRIES, 2**9]))
    return Q, M, k, bias, max_rounds, cap, draw(st.integers(0, 2**32 - 1))


def _stream(draw_one, rng, n=60):
    """``n`` outcomes of ``draw_one(rng)``, pivots in selection order (with
    the rejection sampler's rounds) or, for a draw that raises, the error's
    type and message; and the generator state after them."""
    out = []
    for _ in range(n):
        try:
            out.append(draw_one(rng))
        except RowpickError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out, rng.bit_generator.state


def _drawn_stream(draws, rng, n=60):
    """:func:`_stream` through ``draws(rng, count)`` iterators: a new one
    for the draws left after each error, which ends an iterator."""
    out = []
    while len(out) < n:
        try:
            for outcome in draws(rng, n - len(out)):
                out.append(outcome)
        except RowpickError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out, rng.bit_generator.state


@PROPERTY_SETTINGS
@given(sampler_cases())
def test_sampler_objects_draw_the_function_streams(case):
    # the cap also sizes the blocks of uniforms that draws() reads, so a
    # binding cap makes each block one round or one draw long
    Q, M, k, bias, max_rounds, cap, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "MAX_ROUNDS", max_rounds)
        mp.setattr(samplers, "BLOCK_ENTRIES", cap)
        for one, fresh, draw, draws in [
            (lambda rng: rejection_rpqr(Q, rng, _accept_bias=bias),
             lambda: RejectionSampler(Q),
             lambda sampler, rng: sampler.draw(rng, _accept_bias=bias),
             lambda sampler, rng, n: sampler.draws(rng, n, _accept_bias=bias)),
            (lambda rng: rpqr_sequential(M, k, rng),
             lambda: SequentialSampler(M, k),
             lambda sampler, rng: sampler.draw(rng),
             lambda sampler, rng, n: sampler.draws(rng, n)),
        ]:
            want = _stream(one, np.random.default_rng(seed))
            warm = fresh()
            assert _stream(partial(draw, warm), np.random.default_rng(seed)) == want
            # draws() on a fresh object, then on the one that draw() warmed
            for sampler in (fresh(), warm):
                got = _drawn_stream(partial(draws, sampler), np.random.default_rng(seed))
                assert got == want
