"""Benchmark harness: the five row-selection methods, timed trials, and
machine-readable result emission.

Methods
-------
ARP      rangefinder + volume-sampled pivots, ``W = Q @ inv(Q[S,:])``
ProjARP  same pivots, ``W = A @ pinv(A[S,:])`` (row-span optimal)
SkARP    same pivots, oversampled-sketch ``W`` (osid)
SkQR     pivots from column-pivoted QR of the sketch transpose, osid ``W``
RPQR     pivots from sequential randomly pivoted QR on ``A^T``,
         ``W = A @ pinv(A[S,:])``

``OptARP`` is accepted as an alias for ProjARP.

Reproducibility: every (k, trial-seed) cell derives its own generator from
``SeedSequence((trial_seed, k))``. The method name is deliberately not part
of the key so the three ARP variants of a trial share one pivot set, which
makes the ProjARP-versus-ARP error ordering deterministic per row.
"""

import csv
import json
import time
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg as sla

from .decompose import (
    ArpConfig,
    _round_up_multiple,
    arp_decompose,
    build_w,
    fro_norm,
    residual_fro,
)
from .errors import InvalidParamError, RowpickError
from .samplers import PivotSet, rpqr_sequential
from .sketch import sketch_apply, sparse_sign_embedding

METHOD_ORDER = ("ARP", "ProjARP", "SkARP", "SkQR", "RPQR")
METHOD_ALIASES = {"OptARP": "ProjARP"}
_ARP_VARIANTS = {"ARP": "type1", "ProjARP": "type2", "SkARP": "osid"}

CSV_HEADER = "method,matrix,m,n,k,seed,rel_fro_error,wall_time_s,effective_rank"


@dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark cell. A failed cell carries ``rel_fro_error = nan``
    and ``effective_rank = 0``; ``wall_time_s`` is always positive."""

    method: str
    matrix: str
    m: int
    n: int
    k: int
    seed: int
    rel_fro_error: float
    wall_time_s: float
    effective_rank: int

    @property
    def ok(self):
        return not np.isnan(self.rel_fro_error)


def canonical_method(name):
    name = METHOD_ALIASES.get(name, name)
    if name not in METHOD_ORDER:
        raise InvalidParamError(
            f"unknown method {name!r}; choose from {METHOD_ORDER} "
            f"(alias: OptARP = ProjARP)"
        )
    return name


def run_method(method, A, k, rng, zeta=4, oversample=2.0):
    """Run one named method at rank ``k`` and return its decomposition."""
    method = canonical_method(method)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise InvalidParamError(f"need 1 <= k <= min{A.shape}, got {k}")
    if method in _ARP_VARIANTS:
        cfg = ArpConfig(k=k, zeta=zeta, oversample=oversample,
                        variant=_ARP_VARIANTS[method])
        return arp_decompose(A, cfg, rng)
    cfg = ArpConfig(k=k, zeta=zeta, oversample=oversample, variant="type2")
    if method == "SkQR":
        emb = sparse_sign_embedding(n, _round_up_multiple(k, zeta), zeta, rng)
        B = sketch_apply(A, emb)
        _, _, perm = sla.qr(B.T, mode="economic", pivoting=True)
        pivots = PivotSet(np.asarray(perm[:k], dtype=np.intp), m)
        return build_w(A, pivots, "osid", cfg, rng)
    # RPQR: sequential selection on the full matrix, projection W
    try:
        pivots = rpqr_sequential(A.T, k, rng)
    except InvalidParamError:  # its message names its argument M = A^T
        raise InvalidParamError("A has a NaN or infinite entry, or a squared "
                                "norm past the float range") from None
    return build_w(A, pivots, "type2", cfg, rng)


def _cell_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(k))))


def run_bench(spec, methods, k_list, seeds, out_path=None, zeta=4,
              oversample=2.0, timing_repeats=1):
    """Run every (method, k, seed) cell on the matrix described by ``spec``.

    ``timing_repeats > 1`` re-runs each cell that many times and reports the
    median wall time (the repeats are bit-identical, so the error is
    measured once). Errors raised by a cell are recorded as failed rows
    rather than aborting the sweep.

    When ``out_path`` is given, writes ``<out_path>.csv`` (records, sorted)
    and ``<out_path>.json`` (per-(method, k) mean/min/max relative error).

    Returns the records in canonical sorted order.
    """
    methods = [canonical_method(name) for name in methods]
    if timing_repeats < 1:
        raise InvalidParamError("timing_repeats must be >= 1")
    A = spec.build()
    desc = spec.describe()
    m, n = A.shape
    fro = fro_norm(A)
    records = []
    for method in methods:
        for k in k_list:
            for seed in seeds:
                times = []
                dec = None
                failure = None
                for _ in range(timing_repeats):
                    rng = _cell_rng(seed, k)
                    t0 = time.perf_counter()
                    try:
                        dec = run_method(method, A, k, rng, zeta=zeta,
                                         oversample=oversample)
                    except (RowpickError, np.linalg.LinAlgError, MemoryError) as exc:
                        failure = exc
                        dec = None
                    times.append(max(time.perf_counter() - t0, 1e-9))
                    if failure is not None:
                        break
                if dec is None:
                    rel, rank = float("nan"), 0
                else:
                    rel = residual_fro(A, dec) / fro
                    rank = dec.effective_rank
                records.append(BenchmarkRecord(
                    method=method, matrix=desc, m=m, n=n, k=int(k),
                    seed=int(seed), rel_fro_error=float(rel),
                    wall_time_s=float(np.median(times)),
                    effective_rank=int(rank),
                ))
    records.sort(key=lambda r: (r.method, r.matrix, r.k, r.seed))
    if out_path is not None:
        write_records_csv(records, f"{out_path}.csv")
        with open(f"{out_path}.json", "w", encoding="utf-8") as fh:
            json.dump(summarize_records(records), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return records


def _format_field(value):
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form
    return str(value)


def write_records_csv(records, path):
    """Write records under the documented header, one line per record.

    Matrix descriptors containing commas are quoted per RFC 4180; output is
    byte-stable for a given record list.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for rec in records:
            writer.writerow([
                _format_field(getattr(rec, f.name))
                for f in fields(BenchmarkRecord)
            ])


def read_records_csv(path):
    """Parse a CSV written by :func:`write_records_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise InvalidParamError(f"unexpected CSV header {header!r}")
        records = []
        for row in reader:
            if not row:
                continue
            (method, matrix, m, n, k, seed, rel, wall, rank) = row
            records.append(BenchmarkRecord(
                method=method, matrix=matrix, m=int(m), n=int(n), k=int(k),
                seed=int(seed), rel_fro_error=float(rel),
                wall_time_s=float(wall), effective_rank=int(rank),
            ))
    return records


def summarize_records(records):
    """Per-(method, k) mean/min/max of relative error over successful rows,
    in the shape emitted as the JSON summary.
    """
    cells = {}
    for rec in records:
        cells.setdefault((rec.method, rec.k), []).append(rec)
    summary = {}
    for (method, k), cell in sorted(cells.items()):
        errors = [r.rel_fro_error for r in cell if r.ok]
        entry = {"trials": len(cell), "failures": len(cell) - len(errors)}
        if errors:
            entry.update(
                mean=float(np.mean(errors)),
                min=float(np.min(errors)),
                max=float(np.max(errors)),
            )
        summary.setdefault(method, {})[str(k)] = entry
    matrix = records[0].matrix if records else None
    return {"matrix": matrix, "results": summary}
