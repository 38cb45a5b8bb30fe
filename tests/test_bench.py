"""Benchmark harness tests: method dispatch, record invariants, CSV/JSON
round trips, the per-row error ordering, and failure handling."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rowpick import (
    BenchmarkRecord,
    METHOD_ORDER,
    InvalidParamError,
    MatrixSpec,
    gen_decay_sparse,
    read_records_csv,
    run_bench,
    run_method,
    summarize_records,
    write_records_csv,
)
from rowpick.bench import canonical_method


SPEC = MatrixSpec.parse("dense-decay:m=60,n=40,seed=0")


class TestMethodDispatch:
    def test_alias(self):
        assert canonical_method("OptARP") == "ProjARP"
        with pytest.raises(InvalidParamError):
            canonical_method("NoSuchMethod")

    @pytest.mark.parametrize(
        "method", ["ARP", "ProjARP", "SkARP", "SkQR", "RPQR"]
    )
    def test_every_method_runs_and_interpolates(self, method):
        A = SPEC.build()
        dec = run_method(method, A, 5, np.random.default_rng(0), zeta=2)
        sub = dec.w[dec.pivots.indices, :]
        assert np.linalg.norm(sub - np.eye(len(dec.pivots))) <= 1e-8
        assert len(dec.pivots) == 5

    def test_rpqr_handles_sparse_input(self):
        spec = MatrixSpec.parse("sparse-decay:m=80,n=30,nnz=6,seed=2")
        A = spec.build()
        dec = run_method("RPQR", A, 4, np.random.default_rng(1), zeta=2)
        dense = run_method("RPQR", A.toarray(), 4, np.random.default_rng(1), zeta=2)
        assert len(dec.pivots) == 4
        assert dec.pivots == dense.pivots
        np.testing.assert_allclose(dec.w, dense.w, rtol=0, atol=1e-12)

    def test_rpqr_sparse_memory_bounded(self):
        # A^T densified would take 320 MB
        A = gen_decay_sparse(20000, 2000, 30, np.random.default_rng(0))
        tracemalloc.start()
        try:
            dec = run_method("RPQR", A, 60, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dec.pivots) == 60
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, sparse, bad):
        A = SPEC.build()
        A[7, 3] = bad
        A = sp.csc_array(A) if sparse else A
        for method in METHOD_ORDER:
            with pytest.raises(InvalidParamError, match="^A has a NaN or infinite entry"):
                run_method(method, A, 3, np.random.default_rng(0))

    def test_skqr_pivots_deterministic_given_stream(self):
        A = SPEC.build()
        a = run_method("SkQR", A, 4, np.random.default_rng(9), zeta=2)
        b = run_method("SkQR", A, 4, np.random.default_rng(9), zeta=2)
        np.testing.assert_array_equal(a.pivots.indices, b.pivots.indices)


class TestRunBench:
    def test_records_and_ordering_invariant(self, tmp_path):
        out = tmp_path / "bench"
        records = run_bench(
            SPEC, ["ARP", "ProjARP"], [4, 6], seeds=range(3),
            out_path=str(out), zeta=2,
        )
        assert len(records) == 12
        assert all(r.wall_time_s > 0 for r in records)
        assert all(r.rel_fro_error >= 0 for r in records)
        by_key = {(r.method, r.k, r.seed): r for r in records}
        for k in (4, 6):
            for seed in range(3):
                # identical pivot stream makes the projection variant win
                assert (
                    by_key[("ProjARP", k, seed)].rel_fro_error
                    <= by_key[("ARP", k, seed)].rel_fro_error
                )

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "bench"
        records = run_bench(
            SPEC, ["SkARP"], [3], seeds=range(2), out_path=str(out), zeta=2
        )
        parsed = read_records_csv(str(out) + ".csv")
        assert parsed == records

    def test_csv_bytes_stable(self, tmp_path):
        records = run_bench(SPEC, ["ARP"], [3], seeds=range(2), zeta=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(records, p1)
        write_records_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_summary(self, tmp_path):
        out = tmp_path / "bench"
        run_bench(SPEC, ["ARP", "OptARP"], [4], seeds=range(3),
                  out_path=str(out), zeta=2)
        summary = json.loads((tmp_path / "bench.json").read_text())
        assert summary["matrix"] == SPEC.describe()
        cell = summary["results"]["ProjARP"]["4"]
        assert cell["min"] <= cell["mean"] <= cell["max"]
        assert cell["trials"] == 3 and cell["failures"] == 0

    def test_failed_cell_recorded_not_raised(self, tmp_path):
        # k larger than min(m, n) cannot run; the row must carry nan
        records = run_bench(SPEC, ["ARP"], [45], seeds=[0], zeta=2)
        assert len(records) == 1
        assert math.isnan(records[0].rel_fro_error)
        assert records[0].effective_rank == 0
        assert records[0].wall_time_s > 0
        summary = summarize_records(records)
        assert summary["results"]["ARP"]["45"]["failures"] == 1
        assert "mean" not in summary["results"]["ARP"]["45"]

    def test_nan_round_trips_through_csv(self, tmp_path):
        records = run_bench(SPEC, ["ARP"], [45], seeds=[0], zeta=2)
        path = tmp_path / "fail.csv"
        write_records_csv(records, path)
        parsed = read_records_csv(path)
        assert math.isnan(parsed[0].rel_fro_error)
        assert parsed[0].effective_rank == 0

    def test_timing_repeats_median(self):
        records = run_bench(SPEC, ["ARP"], [4], seeds=[0], zeta=2,
                            timing_repeats=3)
        assert records[0].wall_time_s > 0

    def test_shared_seed_reproducibility(self):
        a = run_bench(SPEC, ["SkARP"], [4], seeds=[7], zeta=2)
        b = run_bench(SPEC, ["SkARP"], [4], seeds=[7], zeta=2)
        assert a[0].rel_fro_error == b[0].rel_fro_error
        assert a[0].effective_rank == b[0].effective_rank


class TestRecord:
    def test_ok_property(self):
        rec = BenchmarkRecord("ARP", "kernel:g=2", 4, 4, 1, 0, 0.5, 0.01, 1)
        assert rec.ok
        bad = BenchmarkRecord("ARP", "kernel:g=2", 4, 4, 1, 0, float("nan"), 0.01, 0)
        assert not bad.ok
