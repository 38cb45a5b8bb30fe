"""Benchmark harness tests: method dispatch, record invariants, CSV/JSON
round trips, the per-row error ordering, and failure handling."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import rowpick
from rowpick import (
    BenchmarkRecord,
    METHOD_ORDER,
    InvalidParamError,
    MatrixSpec,
    fro_norm,
    gen_decay_sparse,
    residual_fro,
    run_bench,
    run_method,
    summarize_records,
    write_records_csv,
)
from rowpick.bench import _cell_rng, _qr_pivots, canonical_method
from rowpick.decompose import _nonempty_rows
from rowpick.linalg import BLOCK_ENTRIES


SPEC = MatrixSpec.parse("dense-decay:m=60,n=40,seed=0")


def read_csv(path):
    """The records of a CSV written by ``write_records_csv``, each field
    parsed back to its declared type."""
    types = {f.name: f.type for f in fields(BenchmarkRecord)}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(types)
        return [BenchmarkRecord(**{name: types[name](value)
                                   for name, value in row.items()})
                for row in reader]


# run_bench's CSV without the wall time, on two inputs without an empty row
# and one where 2,872 of the 3,000 rows hold a nonzero, at one BLAS thread:
# OpenBLAS splits a product's sums differently on more
GOLDEN_CSV = {
    ("kernel:g=12", 5, 10): """\
method,matrix,m,n,k,seed,rel_fro_error,effective_rank
ARP,kernel:g=12,144,144,10,0,0.11135537947110988,10
ARP,kernel:g=12,144,144,10,1,0.14628376639034754,10
ProjARP,kernel:g=12,144,144,10,0,0.04244243563244873,10
ProjARP,kernel:g=12,144,144,10,1,0.04956878740435907,10
RPQR,kernel:g=12,144,144,10,0,0.04928193704436495,10
RPQR,kernel:g=12,144,144,10,1,0.04854234767754278,10
SkARP,kernel:g=12,144,144,10,0,0.06369070753694053,10
SkARP,kernel:g=12,144,144,10,1,0.07129622934490595,10
SkQR,kernel:g=12,144,144,10,0,0.09743406286325133,10
SkQR,kernel:g=12,144,144,10,1,0.10361368513265228,10
""",
    ("dense-decay:m=300,n=300,seed=0", 4, 20): """\
method,matrix,m,n,k,seed,rel_fro_error,effective_rank
ARP,"dense-decay:m=300,n=300,seed=0",300,300,20,0,0.06434022137783686,20
ARP,"dense-decay:m=300,n=300,seed=0",300,300,20,1,0.04284861039557821,20
ProjARP,"dense-decay:m=300,n=300,seed=0",300,300,20,0,0.012764271495233797,20
ProjARP,"dense-decay:m=300,n=300,seed=0",300,300,20,1,0.009083716236704233,20
SkARP,"dense-decay:m=300,n=300,seed=0",300,300,20,0,0.018096714964137832,20
SkARP,"dense-decay:m=300,n=300,seed=0",300,300,20,1,0.014173531578987694,20
SkQR,"dense-decay:m=300,n=300,seed=0",300,300,20,0,0.009315160918019523,20
SkQR,"dense-decay:m=300,n=300,seed=0",300,300,20,1,0.009040744563156738,20
""",
    ("sparse-decay:m=3000,n=300,nnz=30,seed=0", 5, 10): """\
method,matrix,m,n,k,seed,rel_fro_error,effective_rank
ARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,0,0.05577306880343078,10
ARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,1,0.2032429180765488,10
ProjARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,0,0.02993346735034163,10
ProjARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,1,0.03657125610505518,10
RPQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,0,0.022498926506131698,10
RPQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,1,0.02884800208868689,10
SkARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,0,0.038326629773775656,10
SkARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,1,0.06394208704810388,10
SkQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,0,0.03386309671325645,10
SkQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,10,1,0.030800224317372598,10
""",
    ("sparse-decay:m=3000,n=300,nnz=30,seed=0", 5, 20): """\
method,matrix,m,n,k,seed,rel_fro_error,effective_rank
ARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,0,0.019965879378710676,20
ARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,1,0.08914822218174291,20
ProjARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,0,0.008253187025584557,20
ProjARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,1,0.015548757435733952,20
RPQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,0,0.006807431329106643,20
RPQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,1,0.00717887788441532,20
SkARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,0,0.011245737066721256,20
SkARP,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,1,0.01950578881612187,20
SkQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,0,0.009383457314855995,20
SkQR,"sparse-decay:m=3000,n=300,nnz=30,seed=0",3000,300,20,1,0.013330389084492347,20
""",
}
GOLDEN_PROBE = """
import csv, io, json, sys
from rowpick import METHOD_ORDER, MatrixSpec, run_bench
out, got = sys.argv[2], []
for spec, methods, k in json.loads(sys.argv[1]):
    run_bench(MatrixSpec.parse(spec), METHOD_ORDER[:methods], [k], [0, 1], out_path=out)
    with open(out + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("wall_time_s")
    text = io.StringIO()
    csv.writer(text, lineterminator="\\n").writerows(r[:col] + r[col + 1:] for r in rows)
    got.append(text.getvalue())
print(json.dumps(got))
"""


def test_csv_matches_golden(tmp_path):
    src = str(Path(rowpick.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = [sys.executable, "-c", GOLDEN_PROBE, json.dumps(list(GOLDEN_CSV)),
            str(tmp_path / "bench")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert json.loads(done.stdout) == list(GOLDEN_CSV.values())


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
        dec = run_method(method, A, 5, np.random.default_rng(0))
        sub = dec.w[dec.pivots.indices, :]
        assert np.linalg.norm(sub - np.eye(len(dec.pivots))) <= 1e-8
        assert len(dec.pivots) == 5
        assert dec.variant == dec.config.variant

    def test_rpqr_handles_sparse_input(self):
        spec = MatrixSpec.parse("sparse-decay:m=80,n=30,nnz=6,seed=2")
        A = spec.build()
        dec = run_method("RPQR", A, 4, np.random.default_rng(1))
        dense = run_method("RPQR", A.toarray(), 4, np.random.default_rng(1))
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

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_only_entry_of_a_row_rejected(self, sparse, bad):
        # a row that holds nothing but a NaN or inf is not empty
        A = SPEC.build()
        A[::2] = 0.0
        A[8, 3] = bad
        A = sp.csc_array(A) if sparse else A
        for method in METHOD_ORDER:
            with pytest.raises(InvalidParamError, match="^A has a NaN or infinite entry"):
                run_method(method, A, 3, np.random.default_rng(0))

    def test_sparse_pivots_pinned(self):
        # 78% of the rows hold no entry; the digests are of the pivots, in
        # selection order, of cell seeds 0-4 at k=40, as they were before
        # those rows were skipped
        A = MatrixSpec.parse("sparse-decay:m=20000,n=500,nnz=10,seed=3").build()
        digests = {}
        for method in METHOD_ORDER:
            h = hashlib.sha256()
            for seed in range(5):
                pivots = run_method(method, A, 40, _cell_rng(seed, 40)).pivots
                h.update(pivots.indices.astype("<i8").tobytes())
            digests[method] = h.hexdigest()[:16]
        family = "62eb06589d05445f"
        assert digests == {"ARP": family, "ProjARP": family, "SkARP": family,
                           "SkQR": "c1de5869fb76eebd", "RPQR": "4cdd3a7c27a0a07b"}

    @pytest.mark.parametrize("seed", range(3))
    def test_skqr_pivots_match_scipy(self, seed):
        B = np.random.default_rng(seed).standard_normal((300, 8))
        perm = sla.qr(B.T, mode="economic", pivoting=True)[2]
        np.testing.assert_array_equal(_qr_pivots(B.copy().T), perm)

    def test_skqr_memory_keeps_only_the_permutation(self):
        # the sketch and the R factor of its QR, held under the osid W, took
        # 110 MiB here with the whole osid sketch, 69 MiB with it streamed
        A = MatrixSpec.parse("sparse-decay:m=40000,n=1000,nnz=30,seed=0").build()
        tracemalloc.start()
        try:
            dec = run_method("SkQR", A, 60, _cell_rng(0, 60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dec.pivots) == 60
        # W, one block of the osid sketch with its finiteness mask, and the
        # pivot rows of A and of that sketch
        bound = dec.w.nbytes + 9 * BLOCK_ENTRIES + 8 * 120 * A.shape[1]
        assert bound < 73.5 * 2**20
        assert peak < bound

    def test_skqr_pivots_deterministic_given_stream(self):
        A = SPEC.build()
        a = run_method("SkQR", A, 4, np.random.default_rng(9))
        b = run_method("SkQR", A, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(a.pivots.indices, b.pivots.indices)


@pytest.fixture(scope="module")
def intermediate_sparse():
    """sparse-decay between desk and paper scale: 2e5 x 4000, 30 nonzeros
    per column."""
    return MatrixSpec.parse("sparse-decay:m=200000,n=4000,nnz=30,seed=0").build()


@pytest.mark.parametrize("method", METHOD_ORDER)
def test_intermediate_scale_sparse(intermediate_sparse, method):
    A = intermediate_sparse
    tracemalloc.start()
    try:
        dec = run_method(method, A, 60, _cell_rng(0, 60))
        res = residual_fro(A, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.effective_rank == 60
    assert 0.0 < res / fro_norm(A) < 1.0
    assert peak < 2**30


class TestRunBench:
    def test_records_and_ordering_invariant(self, tmp_path):
        out = tmp_path / "bench"
        records = run_bench(
            SPEC, ["ARP", "ProjARP"], [4, 6], seeds=range(3),
            out_path=str(out),
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
            SPEC, ["SkARP"], [3], seeds=range(2), out_path=str(out)
        )
        parsed = read_csv(str(out) + ".csv")
        assert parsed == records

    def test_csv_bytes_stable(self, tmp_path):
        records = run_bench(SPEC, ["ARP"], [3], seeds=range(2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(records, p1)
        write_records_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_summary(self, tmp_path):
        out = tmp_path / "bench"
        run_bench(SPEC, ["ARP", "OptARP"], [4], seeds=range(3),
                  out_path=str(out))
        summary = json.loads((tmp_path / "bench.json").read_text())
        assert summary["matrix"] == SPEC.describe()
        cell = summary["results"]["ProjARP"]["4"]
        assert cell["min"] <= cell["mean"] <= cell["max"]
        assert cell["trials"] == 3 and cell["failures"] == 0

    def test_failed_cell_recorded_not_raised(self, tmp_path):
        # k larger than min(m, n) cannot run; the row must carry nan
        records = run_bench(SPEC, ["ARP"], [45], seeds=[0])
        assert len(records) == 1
        assert math.isnan(records[0].rel_fro_error)
        assert records[0].effective_rank == 0
        assert records[0].wall_time_s > 0
        summary = summarize_records(records)
        assert summary["results"]["ARP"]["45"]["failures"] == 1
        assert "mean" not in summary["results"]["ARP"]["45"]

    def test_nan_round_trips_through_csv(self, tmp_path):
        records = run_bench(SPEC, ["ARP"], [45], seeds=[0])
        path = tmp_path / "fail.csv"
        write_records_csv(records, path)
        parsed = read_csv(path)
        assert math.isnan(parsed[0].rel_fro_error)
        assert parsed[0].effective_rank == 0

    def test_aliased_methods_merged(self):
        records = run_bench(SPEC, ["ProjARP", "OptARP"], [4], [0, 1])
        assert [(r.method, r.seed) for r in records] == [("ProjARP", 0), ("ProjARP", 1)]
        assert summarize_records(records)["results"]["ProjARP"]["4"]["trials"] == 2

    @staticmethod
    def _check_matches_standalone(spec, methods, ks, seeds):
        records = run_bench(spec, methods, ks, seeds)
        A = spec.build()
        expected = []
        for method in methods:
            for k in ks:
                for seed in seeds:
                    dec = run_method(method, A, k, _cell_rng(seed, k))
                    expected.append(BenchmarkRecord(
                        method, spec.describe(), *A.shape, k, seed,
                        residual_fro(A, dec) / fro_norm(A), 0.0, dec.effective_rank))
        expected.sort(key=lambda r: (r.method, r.k, r.seed))
        assert all(r.wall_time_s > 0 for r in records)
        assert [replace(r, wall_time_s=0.0) for r in records] == expected

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("methods", [
        ["SkARP"], ["ARP", "SkARP"], ["SkARP", "ProjARP", "ARP"], list(METHOD_ORDER),
    ])
    def test_shared_selection_matches_standalone_methods(self, methods, trials):
        self._check_matches_standalone(SPEC, methods, [3, 5], range(trials))

    def test_shared_selection_matches_standalone_methods_on_empty_rows(self):
        # 90% of the rows hold no entry, so every phase skips them
        spec = MatrixSpec.parse("sparse-decay:m=400,n=40,nnz=1,seed=1")
        self._check_matches_standalone(spec, list(METHOD_ORDER), [3, 5], range(3))

    @pytest.mark.parametrize("k_list, seeds", [([], [0]), ([3], [])])
    def test_empty_rank_or_seed_list_refused(self, k_list, seeds, tmp_path):
        with pytest.raises(InvalidParamError, match="at least one rank and one seed"):
            run_bench(SPEC, ["ARP"], k_list, seeds, out_path=str(tmp_path / "b"))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spec", ["sparse-decay:m=300,n=40,nnz=3,seed=0",
                                      "dense-decay:m=30,n=30,seed=0"])
    @pytest.mark.parametrize("k_list, seeds, name", [
        ([3], [-1], "seed"), ([3], [0, 1.5], "seed"), ([-2], [0], "k"), ([3, 0], [0], "k"),
        ([2.5], [0], "k")])
    def test_bad_rank_or_seed_refused_before_the_build(self, spec, k_list, seeds, name,
                                                       tmp_path, monkeypatch):
        # a rank above min(m, n) is a failed cell, but one that is not an
        # integer >= 1 is refused, as is a seed that is not an integer >= 0,
        # before any work
        built = []
        monkeypatch.setattr(MatrixSpec, "build", lambda self: built.append(self))
        low = {"k": 1, "seed": 0}[name]
        with pytest.raises(InvalidParamError, match=f"^{name} must be an integer >= {low}"):
            run_bench(MatrixSpec.parse(spec), ["ARP", "RPQR"], k_list, seeds,
                      out_path=str(tmp_path / "b"))
        assert not built and not list(tmp_path.iterdir())

    def test_failed_selection_fails_the_family(self):
        records = run_bench(SPEC, ["SkARP", "ARP", "ProjARP"], [45], [0])
        assert [r.method for r in records] == ["ARP", "ProjARP", "SkARP"]
        for r in records:
            assert math.isnan(r.rel_fro_error)
            assert r.effective_rank == 0
            assert r.wall_time_s > 0

    def test_shared_seed_reproducibility(self):
        a = run_bench(SPEC, ["SkARP"], [4], seeds=[7])
        b = run_bench(SPEC, ["SkARP"], [4], seeds=[7])
        assert a[0].rel_fro_error == b[0].rel_fro_error
        assert a[0].effective_rank == b[0].effective_rank


@pytest.mark.parametrize("methods", [["ARP", "ProjARP", "SkARP"],
                                     ["ARP", "ProjARP", "SkARP", "SkQR"],
                                     ["ProjARP"], ["SkARP", "ProjARP"]])
def test_cell_memory_is_one_decomposition(methods):
    # W, Q and the osid sketch of a 40000 x 60 cell take 18-37 MiB each on
    # A's nonempty rows, what run_bench decomposes, so a decomposition,
    # basis or lift kept alive under the next one shows well above the bound
    spec = MatrixSpec.parse("sparse-decay:m=40000,n=1000,nnz=30,seed=0")
    B = _nonempty_rows(spec.build(), 60)[1]
    single = 0
    tracemalloc.start()
    try:
        for method in methods:
            tracemalloc.reset_peak()
            dec = run_method(method, B, 60, _cell_rng(0, 60))
            residual_fro(B, dec)
            del dec
            single = max(single, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        records = run_bench(spec, methods, [60], [0])
        cell = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.ok for r in records)
    assert cell <= 1.1 * single


class TestRecord:
    def test_ok_property(self):
        rec = BenchmarkRecord("ARP", "kernel:g=2", 4, 4, 1, 0, 0.5, 0.01, 1)
        assert rec.ok
        bad = BenchmarkRecord("ARP", "kernel:g=2", 4, 4, 1, 0, float("nan"), 0.01, 0)
        assert not bad.ok
