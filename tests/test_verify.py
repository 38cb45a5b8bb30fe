"""Verification-suite and CLI surface tests."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rowpick
from rowpick import RankDeficientError, run_verify, verify
from rowpick.cli import main


DRAWS = 6000  # enough for the TV/chi-square thresholds, fast for CI

# run_verify(seed=0, draws=DRAWS), byte for byte
GOLDEN_SEED0 = (
    'PASS  volume-probs-hand-cases            diag(2,1) k=1 and the 3x2 uniform case\n'
    'PASS  volume-kdpp-equivalence            max per-subset gap 1.11e-16\n'
    'PASS  volume-right-invariance            max per-subset gap 3.33e-16\n'
    'PASS  expected-error-identity            worst relative gap 0.00e+00\n'
    'PASS  active-regression-unbiased         worst relative gap 0.00e+00\n'
    'PASS  active-regression-error-identity   worst relative gap 0.00e+00\n'
    'PASS  worst-case-instance-suboptimality  k = 1..8\n'
    'PASS  sequential-sampler-tv              TV 0.0120 at 6000 draws (limit 0.048)\n'
    'PASS  rejection-sampler-tv               TV 0.0137 at 6000 draws (limit 0.048)\n'
    'PASS  cross-sampler-tv                   TV 0.0168 between samplers (limit 0.068)\n'
    'PASS  sequential-sampler-chi-square      chi-square p-value 0.8\n'
    'PASS  rejection-sampler-chi-square       chi-square p-value 0.925\n'
    'PASS  sketch-structure-and-exactness     20 seeded embeddings\n'
    'PASS  interpolation-property             worst ||W[S,:] - I|| = 0.00e+00\n'
    'PASS  projection-beats-type1-ordering    20 seeded trials\n'
    '15/15 checks passed\n'
)

# run_verify(seed=0, draws=DRAWS, corrupt=True), byte for byte: the
# corrupted rejection sampler's first error ends each of its checks
GOLDEN_SEED0_CORRUPT = (
    'PASS  volume-probs-hand-cases            diag(2,1) k=1 and the 3x2 uniform case\n'
    'PASS  volume-kdpp-equivalence            max per-subset gap 1.11e-16\n'
    'PASS  volume-right-invariance            max per-subset gap 3.33e-16\n'
    'PASS  expected-error-identity            worst relative gap 0.00e+00\n'
    'PASS  active-regression-unbiased         worst relative gap 0.00e+00\n'
    'PASS  active-regression-error-identity   worst relative gap 0.00e+00\n'
    'PASS  worst-case-instance-suboptimality  k = 1..8\n'
    'PASS  sequential-sampler-tv              TV 0.0120 at 6000 draws (limit 0.048)\n'
    'FAIL  rejection-sampler-tv               raised RankDeficientUpdateError: the accepted pivots [3, 3] repeat a row\n'
    'FAIL  cross-sampler-tv                   raised RankDeficientUpdateError: the accepted pivots [1, 1] repeat a row\n'
    'PASS  sequential-sampler-chi-square      chi-square p-value 0.8\n'
    'FAIL  rejection-sampler-chi-square       raised RankDeficientUpdateError: the accepted pivots [2, 2] repeat a row\n'
    'PASS  sketch-structure-and-exactness     20 seeded embeddings\n'
    'PASS  interpolation-property             worst ||W[S,:] - I|| = 0.00e+00\n'
    'PASS  projection-beats-type1-ordering    20 seeded trials\n'
    '12/15 checks passed\n'
)


class TestRunVerify:
    def test_fresh_run_passes_with_enough_checks(self):
        buf = io.StringIO()
        status = run_verify(seed=0, stream=buf, draws=DRAWS)
        out = buf.getvalue()
        assert status == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 12
        assert all(l.startswith("PASS") for l in lines)

    def test_report_matches_golden(self):
        # every sampler draw the suite makes, and every figure it prints
        buf = io.StringIO()
        assert run_verify(seed=0, stream=buf, draws=DRAWS) == 0
        assert buf.getvalue() == GOLDEN_SEED0

    def test_corrupt_report_matches_golden(self):
        buf = io.StringIO()
        assert run_verify(seed=0, stream=buf, draws=DRAWS, corrupt=True) == 1
        assert buf.getvalue() == GOLDEN_SEED0_CORRUPT

    def test_report_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        assert run_verify(seed=3, stream=a, draws=DRAWS) == run_verify(
            seed=3, stream=b, draws=DRAWS
        )
        assert a.getvalue() == b.getvalue()

    def test_corrupted_sampler_detected(self):
        buf = io.StringIO()
        status = run_verify(seed=0, stream=buf, draws=DRAWS, corrupt=True)
        assert status == 1
        failed = [
            l for l in buf.getvalue().splitlines() if l.startswith("FAIL")
        ]
        assert any("rejection" in l for l in failed)

    def test_low_draw_counts_stay_meaningful(self):
        # TV limits scale with the draw count, so an honest sampler passes
        # at low draws while the corrupted one is still caught
        buf = io.StringIO()
        assert run_verify(seed=2, stream=buf, draws=2000) == 0
        assert run_verify(seed=2, stream=buf, draws=2000, corrupt=True) == 1


    def test_active_regression_enumerated_once(self, monkeypatch):
        calls = []
        real = verify.check_active_regression

        def counted(X, y):
            calls.append(1)
            return real(X, y)

        monkeypatch.setattr(verify, "check_active_regression", counted)
        assert run_verify(seed=0, stream=io.StringIO(), draws=200) == 0
        assert len(calls) == 20  # one enumeration per trial, for both lines

    def test_active_regression_refusal_fails_both_lines(self, monkeypatch):
        ref = io.StringIO()
        run_verify(seed=0, stream=ref, draws=200)

        def refuse(X, y):
            raise RankDeficientError("X must have full column rank")

        monkeypatch.setattr(verify, "check_active_regression", refuse)
        buf = io.StringIO()
        assert run_verify(seed=0, stream=buf, draws=200) == 1
        for got, want in zip(buf.getvalue().splitlines(), ref.getvalue().splitlines()):
            if "active-regression" in want:
                assert got.startswith("FAIL") and "raised RankDeficientError" in got
            elif "checks passed" not in want:
                assert got == want  # every other check keeps its stream


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg"])
def test_import_leaves_scipy_stats_unloaded(module):
    # verify's chi-square and SkQR's pivoted QR import these when they run
    src = str(Path(rowpick.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = f"import sys, rowpick; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


class TestCli:
    def test_verify_subcommand(self, capsys):
        status = main(["verify", "--seed", "0", "--draws", str(DRAWS)])
        assert status == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_verify_corrupt_flag(self, capsys):
        status = main(
            ["verify", "--seed", "0", "--draws", str(DRAWS), "--corrupt"]
        )
        assert status == 1

    def test_verify_json_flag(self, capsys):
        # the checks of the text report, as JSON
        assert main(["verify", "--seed", "0", "--draws", str(DRAWS), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["seed"], report["draws"]) == (0, DRAWS)
        golden = [line.split(maxsplit=2) for line in GOLDEN_SEED0.splitlines()[:-1]]
        assert [["PASS" if c["ok"] else "FAIL", c["name"], c["detail"]]
                for c in report["checks"]] == golden
        assert main(["verify", "--draws", "2000", "--corrupt", "--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert any(not c["ok"] and "rejection" in c["name"] for c in checks)

    def test_gen_and_decompose_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "m.npy"
        assert main([
            "gen", "--matrix", "dense-decay:m=40,n=30,seed=1",
            "--out", str(target),
        ]) == 0
        report_path = tmp_path / "report.json"
        status = main([
            "decompose", "--matrix", f"file:path={target}", "--k", "4",
            "--method", "ProjARP", "--seed", "5",
            "--out", str(report_path),
        ])
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["method"] == "ProjARP"
        assert report["m"] == 40 and report["n"] == 30
        assert len(report["pivots"]) == 4
        assert 0.0 <= report["rel_fro_error"] <= 1.0
        assert report["wall_time_s"] > 0

    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bench"
        status = main([
            "bench", "--matrix", "dense-decay:m=50,n=30,seed=0",
            "--k", "3,5", "--method", "ARP,ProjARP", "--trials", "2",
            "--out", str(out),
        ])
        assert status == 0
        csv_text = (tmp_path / "bench.csv").read_text()
        assert csv_text.startswith(
            "method,matrix,m,n,k,seed,rel_fro_error,wall_time_s,effective_rank"
        )
        assert len(csv_text.splitlines()) == 1 + 8
        summary = json.loads((tmp_path / "bench.json").read_text())
        assert set(summary["results"]) == {"ARP", "ProjARP"}

    def test_unknown_method_is_reported(self, tmp_path, capsys):
        status = main([
            "decompose", "--matrix", "dense-decay:m=20,n=10,seed=0",
            "--k", "2", "--method", "Nope",
        ])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--matrix", "dense-decay:m=abc"],
        ["gen", "--matrix", "kernel:g=2.5"],
        ["gen", "--matrix", "dense-decay:m=5,n=5,seed=-1"],
        ["bench", "--matrix", "kernel:g=4", "--k", "2,x"],
        ["bench", "--matrix", "kernel:g=4", "--k", ","],
        ["bench", "--matrix", "kernel:g=4", "--k", "2", "--trials", "0"],
        ["decompose", "--matrix", "kernel:g=4", "--k", "2", "--seed=-1"],
        ["bench", "--matrix", "kernel:g=4", "--k", "2", "--seed=-1"],
        ["verify", "--seed=-1"],
    ])
    def test_malformed_arguments_are_reported(self, argv, tmp_path, capsys):
        if argv[0] != "verify":  # the one subcommand that writes no file
            argv = argv + ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if "--seed=-1" in argv:
            assert err == "error: seed must be an integer >= 0, got -1\n"
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--matrix", "sparse-decay:m=300,n=40,nnz=3,seed=0", "--k", "3,0"],
        ["--matrix", "dense-decay:m=30,n=30,seed=0", "--k", "0"],
        ["--matrix", "kernel:g=4", "--k=-2"],
    ])
    def test_bench_bad_rank_exits_2(self, argv, tmp_path, capsys):
        assert main(["bench"] + argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be an integer >= 1" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("draws", ["0", "-5"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_non_positive_draws_refused(self, draws, json_flag, capsys):
        assert main(["verify", "--draws", draws] + json_flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: draws must be >= 1, got {draws}\n"

    def test_gen_sparse_npz(self, tmp_path, capsys):
        # file: reads back what gen writes, and decomposes it as the
        # descriptor it came from
        descriptor = "sparse-decay:m=600,n=60,nnz=4,seed=0"
        target = tmp_path / "s.npz"
        assert main(["gen", "--matrix", descriptor, "--out", str(target)]) == 0
        import scipy.sparse as sp

        loaded = sp.load_npz(target)
        assert loaded.shape == (600, 60)
        assert loaded.nnz == 240
        reports = []
        for matrix in (descriptor, f"file:path={target}"):
            out = tmp_path / "report.json"
            assert main(["decompose", "--matrix", matrix, "--k", "8",
                         "--method", "ARP", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[1]["pivots"] == reports[0]["pivots"]
        assert reports[1]["rel_fro_error"] == reports[0]["rel_fro_error"]

    @pytest.mark.parametrize("name, save", [
        ("object.npy", lambda p: np.save(p, np.array([[1.0, "a"]], dtype=object),
                                         allow_pickle=True)),
        ("complex.npy", lambda p: np.save(p, 1j * np.eye(3))),
        ("plain.npz", lambda p: np.savez(p, a=np.eye(3))),
        ("empty.npy", lambda p: p.write_bytes(b"")),
    ])
    def test_file_that_is_no_real_matrix_is_refused(self, name, save, tmp_path, capsys):
        path = tmp_path / name
        save(path)
        assert main(["decompose", "--matrix", f"file:path={path}", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err
