"""Outside-in tracer: spans around rowpick's public functions.

Hooks wrap a function at every module attribute that holds it, which is
where its callers look it up, and a method on its class, so calls made
inside rowpick are seen as well as the benchmark's own. Spans and counts
are kept in memory; :meth:`Tracer.summary` reduces them and
:meth:`Tracer.write` stores them when the run ends. A layer's self time is
its span minus its direct child spans; the program is single-threaded, so
children never overlap.
"""

import functools
import importlib
import json
import sys
import time
import tracemalloc

import numpy as np

PACKAGE = "rowpick"
# (layer, measure peak allocation inside each call)
LAYERS = (
    ("bench.run_bench", False),
    ("verify.run_verify", False),
    ("bench.run_method", False),
    ("decompose.arp_decompose", False),
    ("decompose.rangefinder", False),
    ("sketch.sketch_apply", False),
    ("linalg.orth", False),
    ("samplers.rejection_rpqr", False),
    ("linalg.HouseholderQR.project_out", False),
    ("samplers.rpqr_sequential", False),
    ("decompose.build_type1_w", False),
    ("linalg.apply_pinv_right", False),
    ("linalg.svd_pinv_apply", False),
    ("decompose.residual_fro", True),
    ("matrices.MatrixSpec.build", False),
    ("oracle.enumerate_volume_probs", False),
    ("oracle.enumerate_kdpp_probs", False),
    ("oracle.check_active_regression", False),
    ("oracle.expected_type1_error", False),
    ("oracle.check_optimality", False),
)


class Tracer:
    """Records one span per call of each hooked layer.

    Parallel lists hold each span's layer index, parent span (-1 for a
    root), start and end. ``mark_operation`` records where each benchmark
    operation's spans begin.
    """

    def __init__(self, layers=LAYERS):
        self.layers = [name for name, _ in layers]
        self.layer, self.parent, self.start, self.end = [], [], [], []
        self.peak_bytes = [0] * len(layers)
        self.op_first = []
        self.missing = []
        self._stack = [-1]
        self._undo = []
        self._peak = [peak for _, peak in layers]

    def mark_operation(self):
        self.op_first.append(len(self.start))

    def _wrap(self, ix, fn):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def hooked(*args, **kwargs):
            sid = len(start)
            layer.append(ix)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        if not self._peak[ix]:
            return functools.wraps(fn)(hooked)
        peak_bytes = self.peak_bytes

        def hooked_peak(*args, **kwargs):
            tracemalloc.start()
            try:
                return hooked(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peak_bytes[ix] = max(peak_bytes[ix], peak)

        return functools.wraps(fn)(hooked_peak)

    def install(self):
        """Hook every layer that exists; note the rest in ``missing``."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for ix, name in enumerate(self.layers):
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            hooked = self._wrap(ix, original)
            if isinstance(owner, type):  # a method, looked up on its class
                self._undo.append((owner, path[-1], original))
                setattr(owner, path[-1], hooked)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, hooked)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _arrays(self):
        layer = np.asarray(self.layer, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size) if dur.size else dur
        return layer, parent, dur - child

    def summary(self):
        """Per-layer self time and calls per operation, and the peak bytes
        allocated inside one call of each layer measured for it."""
        ops = max(len(self.op_first), 1)
        layer, _, self_s = self._arrays()
        self_sum = np.bincount(layer, weights=self_s, minlength=len(self.layers))
        calls = np.bincount(layer, minlength=len(self.layers))
        out = {}
        for ix, name in enumerate(self.layers):
            out[f"{name}.self_s"] = float(self_sum[ix]) / ops
            out[f"{name}.calls"] = int(calls[ix]) / ops
            if self._peak[ix]:
                out[f"{name}.peak_mb"] = self.peak_bytes[ix] / 1e6
        return out

    def write(self, stem):
        """Write ``<stem>.json`` (per-layer summary, missing layers) and
        ``<stem>.npz`` (every span: layer, parent, operation, start, end)."""
        layer, parent, _ = self._arrays()
        op = np.searchsorted(np.asarray(self.op_first), np.arange(layer.size),
                             side="right") - 1
        np.savez_compressed(
            f"{stem}.npz", layer=layer, parent=parent, op=op,
            start=np.asarray(self.start), end=np.asarray(self.end),
            layers=np.asarray(self.layers),
        )
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"operations": len(self.op_first), "missing": self.missing,
                       "layers": self.summary()}, fh, indent=1, sort_keys=True)
            fh.write("\n")
