"""The benchmark's checks catch the faults they exist for, and the tracer
nests and unwinds its hooks.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rowpick as rp  # noqa: E402
from checks import (  # noqa: E402
    check_cell,
    check_records,
    check_sampler_law,
    eckart_young_floor,
)
from run import LAW_DRAWS  # noqa: E402
from spans import Tracer  # noqa: E402


def _basis(seed=3):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((6, 2)))[0]


@pytest.mark.parametrize("bias", [0.0, 0.05])
def test_law_check_fails_a_biased_rejection_sampler(bias):
    Q = _basis()
    rng = np.random.default_rng(11)
    problems = check_sampler_law(
        "rejection_rpqr",
        lambda: rp.rejection_rpqr(Q, rng, _accept_bias=bias)[0].as_tuple(),
        Q, LAW_DRAWS, rp.RowpickError)
    if bias:
        assert any("TV" in p for p in problems), problems
    else:
        assert problems == []


def _decomposition(method="ARP", k=8):
    A = rp.gen_decay_dense(120, 60, np.random.default_rng(0))
    dec = rp.run_method(method, A, k, np.random.default_rng(1))
    return A, dec, rp.residual_fro(A, dec)


def test_interpolation_check_fails_one_perturbed_pivot_row():
    A, dec, residual = _decomposition()
    S = dec.pivots.indices
    assert check_cell(A, S, dec.w, 8, residual) == []
    W = dec.w.copy()
    W[S[3], :] += 1e-8
    assert any("W[S,:] - I" in p for p in check_cell(A, S, W, 8, residual))


def test_cell_check_fails_repeated_pivots_and_a_wrong_residual():
    A, dec, residual = _decomposition()
    S = dec.pivots.indices.copy()
    S[1] = S[0]
    assert check_cell(A, S, dec.w, 8, residual)
    bad = check_cell(A, dec.pivots.indices, dec.w, 8, residual * (1 + 1e-8))
    assert any("blocked residual" in p for p in bad)


def test_floor_is_the_rank_k_optimum():
    rng = np.random.default_rng(4)
    U = np.linalg.qr(rng.standard_normal((300, 80)))[0]
    V = np.linalg.qr(rng.standard_normal((80, 80)))[0]
    s = 2.0 ** -np.arange(80.0) / 3
    A = (U * s) @ V.T
    k = 10
    optimum = np.sqrt(np.sum(s[k:] ** 2)) / np.linalg.norm(s)
    floor = eckart_young_floor(A, k)
    assert optimum * (1 - 1e-6) <= floor <= optimum


def _record(method, error, k=8):
    return rp.BenchmarkRecord(method=method, matrix="m", m=120, n=60, k=k,
                              seed=0, rel_fro_error=error, wall_time_s=1.0,
                              effective_rank=k)


def test_records_check_fails_an_error_below_the_floor():
    floor = 0.01
    good = [_record("ARP", 0.02), _record("ProjARP", 0.015)]
    assert check_records(good, 8, ("ARP", "ProjARP"), floor) == []
    low = [_record("ARP", 0.02), _record("ProjARP", floor * 0.999)]
    assert any("below" in p for p in check_records(low, 8, ("ARP", "ProjARP"), floor))
    swapped = [_record("ARP", 0.015), _record("ProjARP", 0.02)]
    assert check_records(swapped, 8, ("ARP", "ProjARP"), floor)


def test_tracer_nests_run_method_down_to_sketch_apply():
    A = rp.gen_decay_dense(200, 100, np.random.default_rng(0))
    original = rp.decompose.sketch_apply
    tracer = Tracer()
    tracer.install()
    try:
        tracer.mark_operation()
        rp.run_method("ARP", A, 8, np.random.default_rng(1))
    finally:
        tracer.uninstall()
    assert rp.decompose.sketch_apply is original
    assert rp.bench.sketch_apply is original
    names = [tracer.layers[i] for i in tracer.layer]
    chain = []
    sid = names.index("sketch.sketch_apply")
    while sid >= 0:
        chain.append(names[sid])
        sid = tracer.parent[sid]
    assert chain == ["sketch.sketch_apply", "decompose.rangefinder",
                     "decompose.arp_decompose", "bench.run_method"]
    summary = tracer.summary()
    root = tracer.end[0] - tracer.start[0]
    total_self = sum(v for name, v in summary.items() if name.endswith(".self_s"))
    assert total_self == pytest.approx(root, rel=1e-9)
    assert summary["bench.run_method.calls"] == 1
    assert summary["decompose.build_type1_w.calls"] == 1


def test_tracer_reports_a_missing_layer():
    tracer = Tracer(layers=(("bench.no_such_function", False),
                            ("linalg.orth", False)))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["bench.no_such_function"]
    assert tracer.summary()["bench.no_such_function.calls"] == 0
