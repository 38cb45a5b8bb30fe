"""Correctness checks of the benchmark's outputs.

Every check compares rowpick's output against a computation made here with
numpy alone, or against a property the method guarantees; none compares
against a stored copy of earlier output. Each check returns a list of
problems, empty when the output passes.
"""

import itertools
import math
from collections import Counter

import numpy as np
import scipy.sparse as sp

EPS = np.finfo(np.float64).eps


def fro_norm(A):
    data = A.data if sp.issparse(A) else np.asarray(A).ravel()
    return math.sqrt(float(np.dot(data, data)))


def eckart_young_floor(A, k):
    """Lower bound on ``||A - B||_F / ||A||_F`` over every rank-``k`` ``B``.

    By the Eckart-Young theorem the optimum is the root of the sum of the
    eigenvalues of ``A^T A`` past the ``k``-th. Each computed eigenvalue
    may be off by about ``n * eps * lambda_max`` (from forming ``A^T A``
    and from ``eigvalsh``), so that much is taken off every tail
    eigenvalue: the bound errs low, never high.
    """
    G = A.T @ A
    G = G.toarray() if sp.issparse(G) else np.asarray(G)
    lam = np.linalg.eigvalsh(G)[::-1]
    n = lam.size
    slack = (n - k) * 2 * n * EPS * lam[0]
    tail = max(float(np.sum(lam[k:])) - slack, 0.0)
    return math.sqrt(tail) / fro_norm(A)


def check_records(records, k, methods, floor):
    """One sweep operation's records: every method present once, every cell
    successful at full rank ``k``, no error below the Eckart-Young floor,
    and ProjARP no worse than ARP on their shared pivots (to
    ``1e-12 * ||A||_F``)."""
    problems = []
    by_method = {r.method: r for r in records}
    if sorted(by_method) != sorted(methods) or len(records) != len(methods):
        problems.append(f"methods {[r.method for r in records]}, want {list(methods)}")
    for r in records:
        if not r.rel_fro_error == r.rel_fro_error:  # NaN marks a failed cell
            problems.append(f"{r.method} seed {r.seed}: cell failed")
            continue
        if r.effective_rank != k:
            problems.append(f"{r.method}: effective rank {r.effective_rank} != {k}")
        if r.rel_fro_error < floor:
            problems.append(
                f"{r.method}: error {r.rel_fro_error:.6g} below the rank-{k} "
                f"optimum {floor:.6g}"
            )
    arp, proj = by_method.get("ARP"), by_method.get("ProjARP")
    if arp and proj and not proj.rel_fro_error <= arp.rel_fro_error + 1e-12:
        problems.append(
            f"ProjARP {proj.rel_fro_error:.6g} > ARP {arp.rel_fro_error:.6g}"
        )
    return problems


def blocked_residual(A, W, S, block_rows=4096):
    """``||A - W @ A[S, :]||_F``, one block of rows at a time."""
    sparse = sp.issparse(A)
    A = sp.csr_array(A) if sparse else np.asarray(A, dtype=np.float64)
    rows = A[S, :].toarray() if sparse else A[S, :]
    total = 0.0
    for lo in range(0, A.shape[0], block_rows):
        hi = min(lo + block_rows, A.shape[0])
        diff = W[lo:hi, :] @ rows
        if sparse:
            block = A[lo:hi, :].tocoo()
            block.sum_duplicates()
            diff[block.row, block.col] -= block.data
        else:
            diff -= A[lo:hi, :]
        diff = diff.ravel()
        total += float(np.dot(diff, diff))
    return math.sqrt(total)


def check_cell(A, pivots, W, k, residual, interpolates=True):
    """A decomposition's pivots are ``k`` distinct rows of ``A``, ``W``
    interpolates them (``||W[S,:] - I||_F <= 1e-10``, unless
    ``interpolates`` is false), and the residual rowpick reported agrees to
    1e-9 with one computed here."""
    problems = []
    S = np.asarray(pivots)
    m = A.shape[0]
    if S.shape != (k,) or np.unique(S).size != k or S.min() < 0 or S.max() >= m:
        return [f"pivots are not {k} distinct rows of [0, {m})"]
    gap = float(np.linalg.norm(W[S, :] - np.eye(k)))
    if interpolates and not gap <= 1e-10:
        problems.append(f"||W[S,:] - I||_F = {gap:.3g}")
    own = blocked_residual(A, W, S)
    if not abs(own - residual) <= 1e-9 * own:
        problems.append(f"residual {residual!r} != blocked residual {own!r}")
    return problems


def volume_law(Q):
    """Exact volume-sampling law of a ``d x k`` basis: ``P(T)`` is
    proportional to ``det(Q[T, :])^2`` over the ``k``-subsets ``T``."""
    d, k = Q.shape
    law = {T: np.linalg.det(Q[list(T), :]) ** 2
           for T in itertools.combinations(range(d), k)}
    total = sum(law.values())
    return {T: p / total for T, p in law.items()}


def law_tv_limit(draws):
    # The mean TV of an empirical law over c cells is at most
    # 0.5 * sum_T sqrt(2 p_T / (pi draws)) <= 0.4 sqrt(c / draws), which is
    # 1.55 / sqrt(draws) for the 15 subsets of a 6 x 2 basis. McDiarmid
    # puts TV more than 2.45 / sqrt(draws) above its mean with probability
    # exp(-12) at most.
    return 4.0 / math.sqrt(draws)


def check_sampler_law(name, draw, Q, draws, error_types):
    """``draws`` calls of ``draw()`` (each a sorted pivot tuple) match the
    volume law of ``Q`` in total variation. A draw that raises one of
    ``error_types`` is itself a failure: ``Q`` is orthonormal."""
    law = volume_law(Q)
    counts = Counter()
    raised = 0
    for _ in range(draws):
        try:
            counts[draw()] += 1
        except error_types:
            raised += 1
    problems = []
    if raised:
        problems.append(f"{name}: {raised} of {draws} draws raised")
    got = sum(counts.values()) or 1
    tv = 0.5 * sum(abs(counts.get(T, 0) / got - p) for T, p in law.items())
    tv += 0.5 * sum(c / got for T, c in counts.items() if T not in law)
    limit = law_tv_limit(draws)
    if not tv < limit:
        problems.append(f"{name}: TV {tv:.4f} to the volume law (limit {limit:.4f})")
    return problems


def check_verify_report(code, report):
    """``run_verify`` returned 0 and every check line of its report is PASS."""
    lines = report.strip().splitlines()
    if not lines:
        return ["empty verify report"]
    checks, summary = lines[:-1], lines[-1].split()
    problems = [f"not passed: {line}" for line in checks if not line.startswith("PASS")]
    if code != 0:
        problems.append(f"run_verify returned {code}")
    if summary[0] != f"{len(checks)}/{len(checks)}" or not checks:
        problems.append(f"summary line {lines[-1]!r} for {len(checks)} checks")
    return problems
