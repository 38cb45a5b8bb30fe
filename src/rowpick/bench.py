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

:func:`run_bench` runs that pivot selection (sketch, ``orth``, sampler) once
per cell for every requested ARP-family method, then builds each family
``W`` in turn, the same bits three :func:`run_method` calls give. A family
record's ``wall_time_s`` is the shared selection plus its own ``W``, what
a standalone :func:`run_method` call on ``A[rows]`` takes; a failed
selection fails every family record of the cell. Duplicate and aliased
method names are merged.

Every method decomposes the rows of ``A`` that hold a nonzero, ``A[rows]``,
as a matrix of their own (see ``decompose._nonempty_rows``): a row with no
nonzero is never a pivot, gets a zero row of ``W``, and costs nothing.
:func:`run_method` lifts its result back to ``m`` rows. :func:`run_bench`
runs each cell on ``A[rows]`` and reports ``residual_fro(A[rows], dec) /
fro_norm(A)`` unlifted, the lifted error up to the residual's sum order.
"""

import csv
import json
import time
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.linalg as sla

from .decompose import (
    ArpConfig,
    _lift_decomposition,
    _nonempty_rows,
    _round_up_multiple,
    arp_decompose,
    build_w,
    fro_norm,
    residual_fro,
    select_pivots,
)
from .errors import InvalidParamError, RowpickError
from .samplers import PivotSet, rpqr_sequential
from .sketch import sketch_apply, sparse_sign_embedding

METHOD_ORDER = ("ARP", "ProjARP", "SkARP", "SkQR", "RPQR")
METHOD_ALIASES = {"OptARP": "ProjARP"}
# the W each method builds; the first three share the ARP pivots
_VARIANTS = {"ARP": "type1", "ProjARP": "type2", "SkARP": "osid",
             "SkQR": "osid", "RPQR": "type2"}
# the ARP family, in the VARIANTS order its W are built from one selection
_FAMILY = ("ARP", "ProjARP", "SkARP")
# what a failed cell raises; it is recorded, not propagated
_FAILURES = (RowpickError, np.linalg.LinAlgError, MemoryError)


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


CSV_HEADER = tuple(f.name for f in fields(BenchmarkRecord))


def canonical_method(name):
    name = METHOD_ALIASES.get(name, name)
    if name not in METHOD_ORDER:
        raise InvalidParamError(
            f"unknown method {name!r}; choose from {METHOD_ORDER} "
            f"(alias: OptARP = ProjARP)"
        )
    return name


def run_method(method, A, k, rng, zeta=4, oversample=2.0):
    """Run one named method at rank ``k`` and return its decomposition.

    Every method decomposes the rows of ``A`` that hold a nonzero as a
    matrix of their own and lifts the result (see the module docstring): a
    row with no nonzero is never a pivot, gets a zero row of ``W`` and
    costs nothing. SkQR sketches and factors only those rows, and RPQR
    samples only those columns of ``A^T``.
    """
    method = canonical_method(method)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise InvalidParamError(f"need 1 <= k <= min{A.shape}, got {k}")
    cfg = ArpConfig(k=k, zeta=zeta, oversample=oversample,
                    variant=_VARIANTS[method])
    if method in _FAMILY:
        return arp_decompose(A, cfg, rng)
    rows, B = _nonempty_rows(A, k, zeta)
    if method == "SkQR":
        emb = sparse_sign_embedding(n, _round_up_multiple(k, zeta), zeta, rng)
        pivots = PivotSet(_qr_pivots(sketch_apply(B, emb).T)[:k], B.shape[0])
    else:  # RPQR: sequential selection, projection W
        try:
            pivots = rpqr_sequential(B.T, k, rng)
        except InvalidParamError:  # its message names its argument M = A^T
            raise InvalidParamError("A has a NaN or infinite entry") from None
    return _lift_decomposition(rows, m, build_w(B, pivots, cfg, rng))


def _qr_pivots(M):
    """Column order of the pivoted QR of the Fortran-order ``M``, which is
    factored in place: LAPACK's ``geqp3`` after the workspace query that
    ``scipy.linalg.qr`` makes, with no copy of ``M`` and no ``R``."""
    geqp3 = sla.get_lapack_funcs("geqp3", (M,))
    lwork = int(geqp3(M, lwork=-1, overwrite_a=1)[-2][0].real)
    _, jpvt, _, _, info = geqp3(M, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    return jpvt.astype(np.intp) - 1


def _cell_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(k))))


def _run_cell(A, methods, k, seed, zeta, oversample, measure):
    """Run every method of one (k, seed) cell, each from ``_cell_rng``.

    Returns ``{method: (measure(dec), seconds)}`` with ``dec`` None for a
    method that failed. The requested ARP-family methods share one
    :func:`select_pivots`; each of their ``seconds`` is that selection
    plus the method's own :func:`build_w`. ``measure`` runs outside the
    timing, and each decomposition is dropped before the next is built.
    """
    out = {}

    def timed(method, build, shared=0.0):
        t0 = time.perf_counter()
        try:
            dec = build()
        except _FAILURES:
            dec = None
        seconds = shared + time.perf_counter() - t0
        out[method] = (measure(dec), seconds)

    # the baselines first, so that the family's basis is not alive under them
    for method in methods:
        if method not in _FAMILY:
            timed(method, lambda: run_method(
                method, A, k, _cell_rng(seed, k), zeta=zeta, oversample=oversample))
    family = [method for method in _FAMILY if method in methods]
    if not family:
        return out
    rng = _cell_rng(seed, k)
    t0 = time.perf_counter()
    try:
        cfg = ArpConfig(k=k, zeta=zeta, oversample=oversample)
        Q, pivots = select_pivots(A, cfg, rng)
    except _FAILURES:
        Q = pivots = None
    shared = time.perf_counter() - t0
    # only ARP's W reads the basis: its build takes the last reference, if
    # any, so the basis is freed before a residual is measured
    bases = {"ARP": Q} if "ARP" in family else {}
    del Q
    for method in family:
        timed(method, lambda: None if pivots is None else build_w(
            A, pivots, replace(cfg, variant=_VARIANTS[method]), rng,
            basis=bases.pop(method, None)), shared)
    return out


def run_bench(spec, methods, k_list, seeds, out_path=None, zeta=4,
              oversample=2.0):
    """Run every (method, k, seed) cell on the matrix described by ``spec``.

    Duplicate and aliased method names are merged. Each cell runs on the
    rows of ``A`` that hold a nonzero, and the ARP-family methods of a cell
    share one pivot selection (see the module docstring). Errors raised by
    a cell are recorded as failed rows rather than aborting the sweep.

    When ``out_path`` is given, writes ``<out_path>.csv`` (records, sorted)
    and ``<out_path>.json`` (per-(method, k) mean/min/max relative error).

    Returns the records in canonical sorted order. An empty ``k_list`` or
    ``seeds`` and a rank or ``zeta`` not an integer >= 1 are refused with
    :class:`InvalidParamError` before the matrix is built; a rank above
    ``min(m, n)`` is a failed cell.
    """
    methods = list(dict.fromkeys(canonical_method(name) for name in methods))
    if len(k_list) == 0 or len(seeds) == 0:
        raise InvalidParamError("need at least one rank and one seed")
    for k in k_list:
        ArpConfig(k=k, zeta=zeta)  # checks both
    A = spec.build()
    desc = spec.describe()
    m, n = A.shape
    fro = fro_norm(A)
    records = []
    for k in k_list:
        _, B = _nonempty_rows(A, k, zeta)

        def error_and_rank(dec):
            if dec is None:
                return float("nan"), 0
            return residual_fro(B, dec) / fro, dec.effective_rank

        for seed in seeds:
            cell = _run_cell(B, methods, k, seed, zeta, oversample, error_and_rank)
            for method, ((rel, rank), elapsed) in cell.items():
                records.append(BenchmarkRecord(
                    method=method, matrix=desc, m=m, n=n, k=int(k),
                    seed=int(seed), rel_fro_error=float(rel),
                    wall_time_s=max(elapsed, 1e-9), effective_rank=int(rank),
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
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([_format_field(getattr(rec, name)) for name in CSV_HEADER])


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
