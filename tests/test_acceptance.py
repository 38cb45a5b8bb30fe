"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with its measured quantities.

Run with plain ``pytest``; the report lines bypass output capture. The
kernel-matrix experiments run through ``run_bench``, whose ARP-family
records of one (k, trial) cell share one pivot set.
"""

import math
import time
from collections import Counter
from itertools import product

import numpy as np

import rowpick as rp
from rowpick.sketch import sparse_sign_embedding
from rowpick.verify import _canonical_product


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


KERNEL = rp.MatrixSpec.parse("kernel:g=40")


def _errors(records):
    """``{(method, k, trial): rel_fro_error}``, asserting no cell failed."""
    assert all(r.ok for r in records)
    return {(r.method, r.k, r.seed): r.rel_fro_error for r in records}


def test_criterion_01_expected_error_identity(capsys):
    """Enumeration identity: the volume-weighted type1 squared error equals
    (k+1) times the basis residual, to 1e-10 relative, on 20 instances."""
    t0 = time.perf_counter()
    grid = list(product((6, 7, 8), (1, 2, 3), (3, 5)))
    worst = 0.0
    for i in range(20):
        m, k, n = grid[i % len(grid)]
        rng = np.random.default_rng(1000 + i)
        A = rng.standard_normal((m, n))
        Q = rp.orth(rng.standard_normal((m, k)))
        lhs, rhs = rp.expected_type1_error(A, Q)
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _report(
        capsys, 1, ok,
        f"20 instances, worst relative gap {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_sampler_distributions(capsys):
    """Both samplers, 2e5 draws each on a 6x2 orthonormal basis, match the
    enumerated distribution (TV < 0.01) and each other (TV < 0.015)."""
    t0 = time.perf_counter()
    draws = 200000
    Q = rp.orth(np.random.default_rng(2024).standard_normal((6, 2)))
    QT = np.ascontiguousarray(Q.T)
    dist = rp.enumerate_volume_probs(Q, 2)
    rng = np.random.default_rng(1)
    rej = Counter(rp.rejection_rpqr(Q, rng)[0].as_tuple() for _ in range(draws))
    seq = Counter(rp.rpqr_sequential(QT, 2, rng).as_tuple() for _ in range(draws))
    emp_rej = {t: c / draws for t, c in rej.items()}
    emp_seq = {t: c / draws for t, c in seq.items()}
    tv_rej = dist.total_variation(emp_rej)
    tv_seq = dist.total_variation(emp_seq)
    keys = set(emp_rej) | set(emp_seq)
    tv_x = 0.5 * sum(abs(emp_rej.get(t, 0.0) - emp_seq.get(t, 0.0)) for t in keys)
    elapsed = time.perf_counter() - t0
    ok = tv_rej < 0.01 and tv_seq < 0.01 and tv_x < 0.015 and elapsed < 30.0
    assert _report(
        capsys, 2, ok,
        f"TV rejection {tv_rej:.4f}, sequential {tv_seq:.4f}, "
        f"cross {tv_x:.4f}, {elapsed:.1f} s",
    )


def test_criterion_03_volume_kdpp_equivalence(capsys):
    """Volume sampling equals principal-minor sampling on the Gram matrix,
    entrywise to 1e-12, on 10 random instances."""
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        m = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(m, 3) + 1))
        B = rng.standard_normal((m, int(rng.integers(k, 5))))
        vs = rp.enumerate_volume_probs(B, k)
        dpp = rp.enumerate_kdpp_probs(B @ B.T, k)
        keys = set(vs.probs) | set(dpp.probs)
        worst = max(worst, max(abs(vs.prob(t) - dpp.prob(t)) for t in keys))
    ok = worst <= 1e-12
    assert _report(capsys, 3, ok, f"10 instances, max per-subset gap {worst:.2e}")


def test_criterion_04_active_regression_identities(capsys):
    """Subset-solution unbiasedness and the (k+1)-factor error identity,
    both to 1e-10 relative, on 20 random instances."""
    worst_beta = worst_err = 0.0
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        m = int(rng.integers(4, 8))
        k = int(rng.integers(1, min(m, 3) + 1))
        X = rng.standard_normal((m, k))
        y = rng.standard_normal(m)
        expected_beta, true_beta, lhs, rhs = rp.check_active_regression(X, y)
        scale = max(float(np.linalg.norm(true_beta)), 1e-30)
        worst_beta = max(
            worst_beta, float(np.linalg.norm(expected_beta - true_beta)) / scale
        )
        worst_err = max(worst_err, abs(lhs - rhs) / max(rhs, 1e-30))
    ok = worst_beta <= 1e-10 and worst_err <= 1e-10
    assert _report(
        capsys, 4, ok,
        f"20 instances, unbiasedness gap {worst_beta:.2e}, "
        f"error-identity gap {worst_err:.2e}",
    )


def test_criterion_05_worst_case_optimality(capsys):
    """On the all-ones worst-case instance every square subset attains
    residual^2 = (k+1)^2 against optimum k+1, for k = 1..8."""
    all_ok = all(rp.check_optimality(k) for k in range(1, 9))
    # hand-checked small cases
    X1, y1 = rp.optimality_instance(1)
    r1 = float(np.linalg.norm(X1 @ np.linalg.solve(X1[:1, :], y1[:1]) - y1) ** 2)
    X2, y2 = rp.optimality_instance(2)
    r2 = float(np.linalg.norm(X2 @ np.linalg.solve(X2[:2, :], y2[:2]) - y2) ** 2)
    hand_ok = abs(r1 - 4.0) <= 1e-10 and abs(r2 - 9.0) <= 1e-10
    ok = all_ok and hand_ok
    assert _report(
        capsys, 5, ok,
        f"k=1..8 all pass, hand cases residual^2 = {r1:.12f}, {r2:.12f}",
    )


def test_criterion_06_projection_ordering(capsys):
    """Over 100 seeded kernel trials at k=60, the projection variant never
    loses to the basis-interpolation variant."""
    k = 60
    err = _errors(rp.run_bench(KERNEL, ["ARP", "ProjARP"], [k], range(100)))
    losses = sum(err[("ProjARP", k, t)] > err[("ARP", k, t)] + 1e-12
                 for t in range(100))
    ok = losses == 0
    assert _report(capsys, 6, ok, f"100 trials, projection lost {losses} times")


def test_criterion_07_interpolation_property(capsys):
    """All three variants reproduce their selected rows: ||W[S,:] - I||_F
    <= 1e-10 on 10 random matrices."""
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(7000 + i)
        A = rng.standard_normal((30, 24))
        for variant in rp.VARIANTS:
            cfg = rp.ArpConfig(k=5, variant=variant)
            dec = rp.arp_decompose(A, cfg, np.random.default_rng(500 + i))
            sub = dec.w[dec.pivots.indices, :]
            worst = max(
                worst, float(np.linalg.norm(sub - np.eye(len(dec.pivots))))
            )
    ok = worst <= 1e-10
    assert _report(capsys, 7, ok, f"30 decompositions, worst gap {worst:.2e}")


def test_criterion_08_accuracy_orderings(capsys):
    """Kernel accuracy sweep, 10 trials per k: the projection variant stays
    within 2x of the greedy baseline, the oversampled sketch within 2.5x of
    the projection variant, and the basis variant never beats projection."""
    k_values = (20, 40, 60, 80, 100, 120)
    trials = 10
    methods = ("ARP", "ProjARP", "SkARP", "RPQR")
    err = _errors(rp.run_bench(KERNEL, methods, k_values, range(trials)))
    means = {k: {m: float(np.mean([err[(m, k, t)] for t in range(trials)]))
                 for m in methods}
             for k in k_values}
    ratios_a = {k: means[k]["ProjARP"] / means[k]["RPQR"] for k in k_values}
    ratios_b = {k: means[k]["SkARP"] / means[k]["ProjARP"] for k in k_values}
    ok_a = all(r <= 2.0 for r in ratios_a.values())
    ok_b = all(r <= 2.5 for r in ratios_b.values())
    ok_c = all(means[k]["ARP"] >= means[k]["ProjARP"] for k in k_values)
    detail = (
        "proj/greedy " + " ".join(f"{k}:{ratios_a[k]:.2f}" for k in k_values)
        + " | sketch/proj " + " ".join(f"{k}:{ratios_b[k]:.2f}" for k in k_values)
        + f" | basis>=proj everywhere: {ok_c}"
    )
    assert _report(capsys, 8, ok_a and ok_b and ok_c, detail)


def test_criterion_09_block_sampler_speedup(capsys):
    """On a 4000x4000 decaying matrix at k=400, the block rejection sampler
    selects the same-law subset at least 2x faster than the sequential
    sampler on the same basis."""
    rng = np.random.default_rng(0)
    A = rp.gen_decay_dense(4000, 4000, rng)
    Q = rp.rangefinder(A, 400, rng)
    t0 = time.perf_counter()
    rp.rejection_rpqr(Q, np.random.default_rng(1))
    t_block = time.perf_counter() - t0
    QT = np.ascontiguousarray(Q.T)
    t0 = time.perf_counter()
    rp.rpqr_sequential(QT, Q.shape[1], np.random.default_rng(2))
    t_seq = time.perf_counter() - t0
    ratio = t_seq / t_block
    ok = ratio >= 2.0
    assert _report(
        capsys, 9, ok,
        f"block {t_block:.2f} s vs sequential {t_seq:.2f} s, speedup {ratio:.1f}x",
    )


def test_criterion_10_embedding_invariants(capsys):
    """100 seeded embeddings: exactly zeta nonzeros per row, one per block,
    values +-zeta^-1/2, unit row norms, and sketch_apply bit-equal to the
    product in canonical order."""
    combos = [(10, 8, 4), (50, 12, 3), (100, 20, 4), (64, 16, 1), (30, 6, 2)]
    checked = 0
    failures = []
    for seed in range(100):
        n, k, zeta = combos[seed % len(combos)]
        rng = np.random.default_rng(seed)
        omega = sparse_sign_embedding(n, k, zeta, rng)
        dense = omega.toarray()
        b = k // zeta
        if not np.all(np.sum(dense != 0, axis=1) == zeta):
            failures.append((seed, "nonzeros per row"))
        for blk in range(zeta):
            cols = dense[:, blk * b:(blk + 1) * b]
            if not np.all(np.sum(cols != 0, axis=1) == 1):
                failures.append((seed, "one nonzero per block"))
                break
        vals = np.unique(np.abs(dense[dense != 0]))
        # one single magnitude, equal to zeta^-1/2 at representation accuracy
        if vals.size != 1 or abs(vals[0] - zeta ** -0.5) > 1e-15 * vals[0]:
            failures.append((seed, "entry magnitudes"))
        if np.max(np.abs(np.sum(dense * dense, axis=1) - 1.0)) > 1e-14:
            failures.append((seed, "row norms"))
        A = rng.standard_normal((7, n))
        got = rp.sketch_apply(A, omega)
        explicit = _canonical_product(A, omega)
        if got.tobytes() != explicit.tobytes():
            failures.append((seed, "sketch_apply vs canonical product"))
        checked += 1
    ok = checked == 100 and not failures
    assert _report(
        capsys, 10, ok,
        f"100 embeddings checked, failures: {failures[:3] if failures else 'none'}",
    )


def test_criterion_11_rangefinder_sanity(capsys):
    """Exact-rank inputs are reproduced to 1e-10; on decaying spectra the
    sketch residual stays within 10x of the optimal half-rank error in at
    least 9 of 10 trials."""
    exact_ok = True
    for i in range(5):
        rng = np.random.default_rng(11000 + i)
        r = int(rng.integers(1, 5))
        left = rp.orth(rng.standard_normal((40, r)))
        right = rp.orth(rng.standard_normal((25, r))).T
        A = left @ np.diag(np.arange(1.0, r + 1.0)) @ right
        Q = rp.rangefinder(A, min(8, 25), rng)
        err = np.linalg.norm(A - Q @ (Q.T @ A))
        if err > 1e-10 * np.linalg.norm(A):
            exact_ok = False
    m = n = 300
    k = 50
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        A = np.arange(1, m + 1.0)[:, None] ** -2.0 * rng.standard_normal((m, n))
        sv = np.linalg.svd(A, compute_uv=False)
        optimal_half = math.sqrt(float(np.sum(sv[k // 2:] ** 2)))
        Q = rp.rangefinder(A, k, rng)
        if np.linalg.norm(A - Q @ (Q.T @ A)) <= 10.0 * optimal_half:
            hits += 1
    ok = exact_ok and hits >= 9
    assert _report(
        capsys, 11, ok,
        f"exact-rank reproduction {'ok' if exact_ok else 'FAILED'}, "
        f"decay-spectrum hits {hits}/10",
    )
