"""Verification-suite and CLI surface tests."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import rowpick
from rowpick import RankDeficientError, run_verify, verify
from rowpick.cli import main


DRAWS = 6000  # enough for the TV/chi-square thresholds, fast for CI


class TestRunVerify:
    def test_fresh_run_passes_with_enough_checks(self):
        buf = io.StringIO()
        status = run_verify(seed=0, stream=buf, draws=DRAWS)
        out = buf.getvalue()
        assert status == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 12
        assert all(l.startswith("PASS") for l in lines)

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


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(rowpick.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = "import sys, rowpick; print('scipy.stats' in sys.modules)"
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

    def test_gen_and_decompose_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "m.npy"
        assert main([
            "gen", "--matrix", "dense-decay:m=40,n=30,seed=1",
            "--out", str(target),
        ]) == 0
        report_path = tmp_path / "report.json"
        status = main([
            "decompose", "--matrix", f"file:path={target}", "--k", "4",
            "--method", "ProjARP", "--seed", "5", "--zeta", "2",
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
            "--zeta", "2", "--out", str(out),
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

    def test_gen_sparse_npz(self, tmp_path, capsys):
        target = tmp_path / "s.npz"
        assert main([
            "gen", "--matrix", "sparse-decay:m=60,n=20,nnz=4,seed=0",
            "--out", str(target),
        ]) == 0
        import scipy.sparse as sp

        loaded = sp.load_npz(target)
        assert loaded.shape == (60, 20)
        assert loaded.nnz == 80
