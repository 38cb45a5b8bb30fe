"""rowpick benchmark: one workload, one process, one caller at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input, then calls rowpick's public entry point in a
closed loop (the next call starts when the last one returns) for ``S``
seconds, checks every output against independent computations, and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (set-up time, time
per operation, peak memory). With ``--trace 1`` the run first times
untraced operations for half of ``S``, then traced ones for the other
half, and the metrics are the per-layer ones. See README.md.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
LAW_DRAWS = 30000
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import rowpick; "
                "print(time.perf_counter() - t0)")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Run BLAS on one thread, whatever the environment says. Must run
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_seconds():
    """Time ``import rowpick`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Sweep:
    """``run_bench`` on one matrix, every method at one rank and one trial
    seed (the run's seed)."""

    def __init__(self, matrix, methods, k, warm, unchecked_interpolation=()):
        self.matrix, self.methods, self.k, self.warm_matrix = matrix, methods, k, warm
        self.unchecked_interpolation = unchecked_interpolation

    def build(self, rp):
        spec = rp.MatrixSpec.parse(self.matrix)
        return spec, spec.build()

    def warm(self, rp, seed):
        # first BLAS calls and lazy scipy imports, on a small instance
        rp.run_bench(rp.MatrixSpec.parse(self.warm_matrix), self.methods, [10], [seed])

    def operation(self, rp, inputs, seed):
        return rp.run_bench(inputs[0], self.methods, [self.k], [seed])

    def check(self, rp, inputs, seed, results):
        import numpy as np
        import checks

        A = inputs[1]
        floor = checks.eckart_young_floor(A, self.k)
        problems = []
        for records in results:
            problems += checks.check_records(records, self.k, self.methods, floor)
        # a fresh cell per method: run_bench seeds each cell this way, so the
        # residual it reported belongs to this very decomposition
        fro = checks.fro_norm(A)
        reported = {r.method: r.rel_fro_error * fro for r in results[0]}
        for method in self.methods:
            rng = np.random.default_rng(np.random.SeedSequence((seed, self.k)))
            dec = rp.run_method(method, A, self.k, rng)
            problems += [f"{method}: {p}" for p in checks.check_cell(
                A, dec.pivots.indices, dec.w, self.k, reported.get(method, np.nan),
                interpolates=method not in self.unchecked_interpolation)]
        return problems

    def accuracy(self, results):
        errors = {m: 0.0 for m in METHODS}
        for records in results[:1]:
            for r in records:
                errors[r.method] += r.rel_fro_error
        return errors


class Verify:
    """``run_verify`` with its report captured, as ``rowpick verify`` runs it."""

    draws = 30000

    def build(self, rp):
        return None

    def warm(self, rp, seed):
        rp.run_verify(seed, stream=io.StringIO(), draws=200)

    def operation(self, rp, inputs, seed):
        report = io.StringIO()
        code = rp.run_verify(seed, stream=report, draws=self.draws)
        return code, report.getvalue()

    def check(self, rp, inputs, seed, results):
        import numpy as np
        import checks

        problems = []
        for code, report in results:
            problems += checks.check_verify_report(code, report)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        Q = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        problems += checks.check_sampler_law(
            "rejection_rpqr", lambda: rp.rejection_rpqr(Q, rng)[0].as_tuple(),
            Q, LAW_DRAWS, rp.RowpickError)
        problems += checks.check_sampler_law(
            "rpqr_sequential", lambda: rp.rpqr_sequential(Q.T, 2, rng).as_tuple(),
            Q, LAW_DRAWS, rp.RowpickError)
        return problems

    def accuracy(self, results):
        return {m: 0.0 for m in METHODS}


METHODS = ("ARP", "ProjARP", "SkARP", "SkQR", "RPQR")
WORKLOADS = {
    "kernel-sweep": Sweep("kernel:g=40", METHODS, 60, "kernel:g=12"),
    # At k=200 the pseudoinverse variants miss ||W[S,:] - I||_F <= 1e-10 on
    # some seeds (up to 2e-10, roundoff of an ill-conditioned A[S,:]); see
    # the FOUND line in CHANGES.md. Their other checks stay.
    "dense-sweep": Sweep("dense-decay:m=2000,n=2000,seed=0", METHODS[:4], 200,
                         "dense-decay:m=300,n=300,seed=0",
                         unchecked_interpolation=("ProjARP", "SkARP")),
    "sparse-sweep": Sweep("sparse-decay", METHODS[:4], 60,
                          "sparse-decay:m=3000,n=300,nnz=30,seed=0"),
    "verify": Verify(),
}


def run_operations(call, seconds, before=None):
    """Call ``call()`` back to back until ``seconds`` have passed (at least
    once). Returns the results, the wall time of each call, and how many
    calls raised."""
    results, times, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        if before:
            before()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            result = None
        times.append(time.perf_counter() - t0)
        if result is not None:
            results.append(result)
    return results, times, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "rowpick" / "__init__.py").is_file():
        print(f"rowpick sources not found under {SRC}", file=sys.stderr)
        return 2

    pin_threads()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    import rowpick as rp

    imports = [time.perf_counter() - t0]
    imports += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    setup = []
    for imported in imports:
        t0 = time.perf_counter()
        inputs = workload.build(rp)
        setup.append(imported + time.perf_counter() - t0)
    workload.warm(rp, args.seed)

    def operation():
        return workload.operation(rp, inputs, args.seed)

    seconds = args.seconds / 2 if args.trace else args.seconds
    results, times, failed = run_operations(operation, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    attempted = len(times)
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_times, traced_failed = run_operations(
                operation, seconds, before=tracer.mark_operation)
        finally:
            tracer.uninstall()
        results += traced
        attempted += len(traced_times)
        failed += traced_failed

    try:
        problems = workload.check(rp, inputs, args.seed, results) if results else []
    except Exception as exc:  # a check that cannot finish fails the run's output
        problems = [f"checks raised {type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in tracer.summary().items()}
        overhead = statistics.median(traced_times) - statistics.median(times)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for method, value in workload.accuracy(results).items():
            metrics[f"rel_err.{method}"] = {"value": value, "unit": "1"}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}")
        for name in tracer.missing:
            print(f"trace: layer {name} missing; its metrics read 0")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name):
    return {"self_s": "s", "calls": "count", "peak_mb": "MB"}[name.rsplit(".", 1)[1]]


if __name__ == "__main__":
    sys.exit(main())
