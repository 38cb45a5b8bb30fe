"""Command-line harness: matrix generation, single decompositions,
benchmark sweeps, and the verification suite.

All randomness flows from ``--seed``: trial ``t`` of a sweep uses trial
seed ``seed + t``, and each (trial-seed, k) cell derives its generator via
``SeedSequence((trial_seed, k))`` (see :mod:`rowpick.bench`).
"""

import argparse
import json
import sys
import time

import numpy as np
import scipy.sparse as sp

from .bench import METHOD_ORDER, _cell_rng, canonical_method, run_bench, run_method
from .decompose import _require_int, fro_norm, residual_fro
from .errors import InvalidParamError, RowpickError
from .matrices import MatrixSpec
from .verify import SAMPLER_DRAWS, run_verify, verify_checks


def _add_matrix_arg(parser):
    parser.add_argument(
        "--matrix", required=True,
        help="matrix descriptor, e.g. 'kernel:g=40', "
             "'dense-decay:m=2000,n=2000,seed=0', "
             "'sparse-decay:m=100000,n=2000,nnz=30', "
             "'file:path=FILE' (.npy dense, .npz sparse as gen writes it)",
    )
    parser.add_argument(
        "--full-scale", action="store_true",
        help="use paper-scale default sizes instead of desk-scale ones",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rowpick",
        description="Row interpolative decompositions via randomized "
                    "pivot sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a matrix and save it")
    _add_matrix_arg(p_gen)
    p_gen.add_argument("--out", required=True, help="output .npy (dense) or .npz (sparse)")

    p_dec = sub.add_parser("decompose", help="run one decomposition")
    _add_matrix_arg(p_dec)
    p_dec.add_argument("--k", type=int, required=True, help="target rank")
    p_dec.add_argument("--method", default="SkARP",
                       help=f"one of {', '.join(METHOD_ORDER)} (OptARP = ProjARP)")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--out", help="write a JSON report here")

    p_bench = sub.add_parser("bench", help="sweep methods x ranks x trials")
    _add_matrix_arg(p_bench)
    p_bench.add_argument("--k", required=True,
                         help="comma-separated rank list, e.g. 20,40,60")
    p_bench.add_argument("--method", default=",".join(METHOD_ORDER),
                         help="comma-separated method list")
    p_bench.add_argument("--seed", type=int, default=0, help="master seed")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--out", required=True,
                         help="output prefix; writes <out>.csv and <out>.json")

    p_ver = sub.add_parser("verify", help="run the oracle-backed self checks")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--draws", type=int, default=SAMPLER_DRAWS,
                       help="samples per distribution check")
    p_ver.add_argument("--corrupt", action="store_true",
                       help="deliberately bias the rejection sampler to "
                            "demonstrate the checks fail (testing hook)")
    p_ver.add_argument("--json", action="store_true",
                       help="print the checks as JSON: seed, draws and a "
                            "list of {name, ok, detail}")
    return parser


def _cmd_gen(args):
    spec = MatrixSpec.parse(args.matrix, full_scale=args.full_scale)
    A = spec.build()
    if sp.issparse(A):
        sp.save_npz(args.out, sp.csc_matrix(A))
    else:
        np.save(args.out, A)
    print(f"wrote {spec.describe()} ({A.shape[0]}x{A.shape[1]}) to {args.out}")
    return 0


def _cmd_decompose(args):
    _require_int("seed", args.seed, 0)
    spec = MatrixSpec.parse(args.matrix, full_scale=args.full_scale)
    A = spec.build()
    method = canonical_method(args.method)
    rng = _cell_rng(args.seed, args.k)
    t0 = time.perf_counter()
    dec = run_method(method, A, args.k, rng)
    wall = time.perf_counter() - t0
    fro = fro_norm(A)
    rel = residual_fro(A, dec) / fro
    report = {
        "method": method,
        "matrix": spec.describe(),
        "m": int(A.shape[0]),
        "n": int(A.shape[1]),
        "k": int(args.k),
        "seed": int(args.seed),
        "variant": dec.variant,
        "effective_rank": int(dec.effective_rank),
        "pivots": [int(i) for i in dec.pivots],
        "rel_fro_error": rel,
        "wall_time_s": wall,
        "pinv_fallback": bool(dec.pinv_fallback),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_bench(args):
    spec = MatrixSpec.parse(args.matrix, full_scale=args.full_scale)
    try:
        k_list = [int(v) for v in args.k.split(",") if v.strip()]
    except ValueError:
        raise InvalidParamError(
            f"--k must be a comma-separated list of integers, got {args.k!r}") from None
    methods = [v.strip() for v in args.method.split(",") if v.strip()]
    seeds = [args.seed + t for t in range(args.trials)]
    records = run_bench(spec, methods, k_list, seeds, out_path=args.out)
    failures = sum(0 if r.ok else 1 for r in records)
    print(f"{len(records)} cells -> {args.out}.csv / {args.out}.json "
          f"({failures} failed)")
    return 0 if failures == 0 else 1


def _cmd_verify(args):
    if not args.json:
        return run_verify(seed=args.seed, corrupt=args.corrupt, draws=args.draws)
    results = verify_checks(seed=args.seed, corrupt=args.corrupt, draws=args.draws)
    checks = [{"name": name, "ok": bool(ok), "detail": detail}
              for name, ok, detail in results]
    print(json.dumps({"seed": args.seed, "draws": args.draws, "checks": checks},
                     indent=2))
    return 0 if all(c["ok"] for c in checks) else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    commands = {"gen": _cmd_gen, "decompose": _cmd_decompose,
                "bench": _cmd_bench, "verify": _cmd_verify}
    try:
        return commands[args.command](args)
    except (RowpickError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
