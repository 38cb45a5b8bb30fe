"""Self-check suite: replays the library's distributional and expectation
identities against the enumeration oracle. :func:`verify_checks` returns
the outcomes, and :func:`run_verify` prints them as a pass/fail table.

Every check derives its generator from the master seed and its position in
the suite, so a fixed seed reproduces the report byte for byte. Each
sampler check builds one :class:`~rowpick.samplers.SequentialSampler` and
one :class:`~rowpick.samplers.RejectionSampler` on its basis and makes
every draw through their ``draws`` iterators, so the set-up runs once per
basis, the uniforms are drawn many at a time, and the draws read the
states earlier draws stored; the draws are those of as many calls of
:func:`~rowpick.samplers.rpqr_sequential` and
:func:`~rowpick.samplers.rejection_rpqr`, bit for bit.
"""

import sys
from collections import Counter

import numpy as np

from .bench import _cell_rng
from .decompose import ArpConfig, _require_int, arp_decompose, residual_fro
from .errors import InvalidParamError, RowpickError
from .linalg import orth
from .oracle import (
    check_active_regression,
    check_optimality,
    enumerate_kdpp_probs,
    enumerate_volume_probs,
    expected_type1_error,
)
from .samplers import RejectionSampler, SequentialSampler
from .sketch import sketch_apply, sparse_sign_embedding

SAMPLER_DRAWS = 30000


def _tv_limit(draws, pair=False):
    # empirical TV noise on ~15 supported subsets decays like draws^-1/2
    # (about 1.5/sqrt(draws) for one empirical distribution against an
    # exact one); allow 2.5x that, floored so corruption stays detectable
    scale = 5.3 if pair else 3.7
    return min(max(scale / np.sqrt(draws), 0.03 if pair else 0.02), 0.3)


def _chi_square_pvalue(dist, empirical, draws):
    from scipy import stats  # costs ~0.5 s, so not paid by `import rowpick`

    expected = np.array([dist.probs[t] * draws for t in dist.support()])
    observed = np.array([empirical.get(t, 0.0) * draws for t in dist.support()])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(stat, df=len(expected) - 1))


def _check_volume_hand_cases(rng):
    d = enumerate_volume_probs(np.diag([2.0, 1.0]), 1)
    ok = abs(d.prob((0,)) - 0.8) <= 1e-12 and abs(d.prob((1,)) - 0.2) <= 1e-12
    d2 = enumerate_volume_probs(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 2)
    ok = ok and all(abs(d2.prob(t) - 1 / 3) <= 1e-12 for t in d2.support())
    return ok, "diag(2,1) k=1 and the 3x2 uniform case"


def _check_vs_kdpp(rng):
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(m, 3) + 1))
        B = rng.standard_normal((m, max(k, int(rng.integers(k, 4)))))
        vs = enumerate_volume_probs(B, k)
        dpp = enumerate_kdpp_probs(B @ B.T, k)
        keys = set(vs.probs) | set(dpp.probs)
        worst = max(worst, max(abs(vs.prob(t) - dpp.prob(t)) for t in keys))
    return worst <= 1e-12, f"max per-subset gap {worst:.2e}"


def _check_vs_invariance(rng):
    # invariance under right-multiplication concerns square subsets:
    # the subset size equals the column count
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(4, 8))
        k = int(rng.integers(1, 4))
        X = rng.standard_normal((m, k))
        a = enumerate_volume_probs(X, k)
        b = enumerate_volume_probs(orth(X), k)
        keys = set(a.probs) | set(b.probs)
        worst = max(worst, max(abs(a.prob(t) - b.prob(t)) for t in keys))
    return worst <= 1e-10, f"max per-subset gap {worst:.2e}"


def _check_expected_error_identity(rng):
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(5, 9))
        k = int(rng.integers(1, 4))
        A = rng.standard_normal((m, int(rng.integers(3, 6))))
        Q = orth(rng.standard_normal((m, k)))
        lhs, rhs = expected_type1_error(A, Q)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return worst <= 1e-10, f"worst relative gap {worst:.2e}"


def _check_active_regression(rng):
    """Outcomes of the unbiasedness and the error identity, from one run of
    the enumeration."""
    worst_beta = worst_err = 0.0
    for _ in range(20):
        m = int(rng.integers(4, 8))
        k = int(rng.integers(1, min(m, 3) + 1))
        X = rng.standard_normal((m, k))
        y = rng.standard_normal(m)
        expected_beta, true_beta, lhs, rhs = check_active_regression(X, y)
        scale = max(float(np.linalg.norm(true_beta)), 1e-30)
        worst_beta = max(worst_beta, float(np.linalg.norm(expected_beta - true_beta)) / scale)
        worst_err = max(worst_err, abs(lhs - rhs) / max(rhs, 1e-30))
    return [(worst <= 1e-10, f"worst relative gap {worst:.2e}")
            for worst in (worst_beta, worst_err)]


def _check_optimality_range(rng):
    bad = [k for k in range(1, 9) if not check_optimality(k)]
    return not bad, "k = 1..8" if not bad else f"failed at k={bad}"


def _sampler_laws(rng, bias, used, draws):
    """A 6x2 basis's volume-sampling law, then the empirical laws of
    ``draws`` draws from each sampler in ``used`` (0 sequential, 1
    rejection), in that order. Each draws through one sampler object on the
    basis, so the draws share its set-up and the states it stores."""
    Q = orth(rng.standard_normal((6, 2)))
    seq = SequentialSampler(Q.T, 2)
    rej = RejectionSampler(Q)
    samples = (lambda: seq.draws(rng, draws),
               lambda: (pivots for pivots, _ in rej.draws(rng, draws, _accept_bias=bias)))
    laws = [enumerate_volume_probs(Q, 2)]
    for i in used:
        counts = Counter(pivots.as_tuple() for pivots in samples[i]())
        laws.append({t: c / draws for t, c in counts.items()})
    return laws


def verify_checks(seed=0, corrupt=False, draws=SAMPLER_DRAWS):
    """Run the full suite; return its outcomes, in order, as
    ``(name, ok, detail)`` triples.

    The distribution checks' total-variation limits scale with ``draws``
    (sampling noise decays like ``draws**-0.5``), so lowering the draw
    count keeps the checks meaningful rather than guaranteeing failure.

    ``corrupt`` flips the rejection sampler's accept rule from a strict
    comparison to a slack one (a deliberate bug) to demonstrate that the
    distribution checks catch it.

    Raises
    ------
    InvalidParamError
        ``seed`` is not an integer >= 0, or ``draws`` is below 1.
    """
    _require_int("seed", seed, 0)
    if draws < 1:
        raise InvalidParamError(f"draws must be >= 1, got {draws}")
    bias = 0.05 if corrupt else 0.0
    results = []

    def check(names, fn):
        # fn returns one (ok, detail) pair, or a list of them for a tuple of
        # names; each name takes up one stream index, used or not
        single = isinstance(names, str)
        names = [names] if single else names
        try:
            outcomes = fn(_cell_rng(seed, len(results)))
            outcomes = [outcomes] if single else outcomes
        except RowpickError as exc:
            # a checked routine refusing to run is itself a failed check
            outcomes = [(False, f"raised {type(exc).__name__}: {exc}")] * len(names)
        results.extend((name, ok, detail) for name, (ok, detail) in zip(names, outcomes))

    check("volume-probs-hand-cases", _check_volume_hand_cases)
    check("volume-kdpp-equivalence", _check_vs_kdpp)
    check("volume-right-invariance", _check_vs_invariance)
    check("expected-error-identity", _check_expected_error_identity)
    check(("active-regression-unbiased", "active-regression-error-identity"),
          _check_active_regression)
    check("worst-case-instance-suboptimality", _check_optimality_range)

    def exact_tv(dist, emp):
        tv = dist.total_variation(emp)
        limit = _tv_limit(draws)
        return tv < limit, f"TV {tv:.4f} at {draws} draws (limit {limit:.3f})"

    def cross_tv(dist, emp_a, emp_b):
        keys = set(emp_a) | set(emp_b)
        tv = 0.5 * sum(abs(emp_a.get(t, 0.0) - emp_b.get(t, 0.0)) for t in keys)
        limit = _tv_limit(draws, pair=True)
        return tv < limit, f"TV {tv:.4f} between samplers (limit {limit:.3f})"

    def chi2(dist, emp):
        p = _chi_square_pvalue(dist, emp, draws)
        return p > 1e-9, f"chi-square p-value {p:.3g}"

    for name, used, statistic in (
            ("sequential-sampler-tv", (0,), exact_tv),
            ("rejection-sampler-tv", (1,), exact_tv),
            ("cross-sampler-tv", (0, 1), cross_tv),
            ("sequential-sampler-chi-square", (0,), chi2),
            ("rejection-sampler-chi-square", (1,), chi2)):
        check(name, lambda rng, used=used, statistic=statistic: statistic(
            *_sampler_laws(rng, bias, used, draws)))

    def sketch_check(rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            zeta = int(rng.integers(1, 5))
            k = zeta * int(rng.integers(1, 6))
            omega = sparse_sign_embedding(n, k, zeta, rng)
            dense = omega.toarray()
            if not np.all(np.sum(dense != 0, axis=1) == zeta):
                return False, "nonzero count per row"
            if not np.allclose(np.sum(dense * dense, axis=1), 1.0, atol=1e-12):
                return False, "row norms"
            A = rng.standard_normal((int(rng.integers(1, 8)), n))
            got = sketch_apply(A, omega)
            explicit = _canonical_product(A, omega)
            if got.tobytes() != explicit.tobytes():
                return False, "sketch_apply drifted from the canonical product"
        return True, "20 seeded embeddings"

    def interpolation_check(rng):
        worst = 0.0
        for variant in ("type1", "type2", "osid"):
            for _ in range(5):
                A = rng.standard_normal((30, 20))
                cfg = ArpConfig(k=5, variant=variant)
                dec = arp_decompose(A, cfg, rng)
                sub = dec.w[dec.pivots.indices, :]
                worst = max(worst, float(np.linalg.norm(sub - np.eye(len(dec.pivots)))))
        return worst <= 1e-10, f"worst ||W[S,:] - I|| = {worst:.2e}"

    def ordering_check(rng):
        for trial in range(20):
            A = rng.standard_normal((40, 30)) * (np.arange(1, 41.0)[:, None] ** -1.0)
            seed_pair = int(rng.integers(0, 2**31))
            errors = {}
            for variant in ("type1", "type2"):
                cfg = ArpConfig(k=6, variant=variant, seed=seed_pair)
                dec = arp_decompose(A, cfg)
                errors[variant] = residual_fro(A, dec)
            if errors["type2"] > errors["type1"] + 1e-12 * np.linalg.norm(A):
                return False, f"trial {trial}: projection variant lost"
        return True, "20 seeded trials"

    check("sketch-structure-and-exactness", sketch_check)
    check("interpolation-property", interpolation_check)
    check("projection-beats-type1-ordering", ordering_check)

    return results


def run_verify(seed=0, corrupt=False, stream=None, draws=SAMPLER_DRAWS):
    """Run the full suite (see :func:`verify_checks`); print one line per
    check and the count passed; return 0 iff all pass."""
    stream = sys.stdout if stream is None else stream
    results = verify_checks(seed, corrupt, draws)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {name:<{width}}  {detail}", file=stream)
    print(
        f"{len(results) - failures}/{len(results)} checks passed",
        file=stream,
    )
    return 0 if failures == 0 else 1


def _canonical_product(A, omega_csc):
    """Reference product A @ Omega accumulated in the library's canonical
    order (per output column, ascending input row)."""
    m = A.shape[0]
    out = np.zeros((m, omega_csc.shape[1]))
    indptr, indices, data = omega_csc.indptr, omega_csc.indices, omega_csc.data
    for c in range(omega_csc.shape[1]):
        for p in range(indptr[c], indptr[c + 1]):
            out[:, c] += A[:, indices[p]] * data[p]
    return out
