"""Outside-in layer tracer for the ``saag`` package.

Every public module-level function a ``saag`` module defines is wrapped, and
the wrapper replaces the function at every binding in the package, because
modules import each other's functions by name (``solvers`` holds its own
``sbas`` and ``batch_smooth_value``). A wrapper belongs to the layer of the
module that defines the function, not to the function's name, so a renamed
or new function still lands in its layer.

A call entering a layer from another layer opens a span with its parent's
id; a call that stays inside the layer it is already in is only counted, so
per-row helpers called by their own module cost little. A layer's self time
is the duration of its spans minus the part their child spans cover, so the
self times of all layers add up to the duration of the outermost span.
Spans are kept in memory and written out once, after the traced command.
"""

import functools
import inspect
import itertools
import numbers
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("data", "objective", "line_search", "estimators", "solvers",
          "harness", "verify", "cli")


def _row_nnz(data):
    """Nonzeros per row of a saag Dataset, whatever its row storage."""
    if hasattr(data, "indptr"):
        return [int(k) for k in (data.indptr[1:] - data.indptr[:-1])]
    return [row.nnz for row in data.rows]


class LayerTracer:
    """Span recorder; wrappers record only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans = []                 # (id, parent, layer, name, start, end)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.entries = Counter()        # spans opened per layer
        self.calls = Counter()          # every call, per "layer.function"
        self.inclusive_s = defaultdict(float)   # span time per "layer.function"
        self.counts = Counter()
        self._selections = []           # (dataset, rows) per objective entry
        self._stack = []                # open spans: [id, layer, start, child_s]
        self._ids = itertools.count(1)

    def install(self):
        """Wrap the public functions of the imported ``saag`` modules at
        every binding."""
        modules = [m for name, m in sys.modules.items()
                   if name == "saag" or name.startswith("saag.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"saag.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        return len(wrappers)

    def _wrap(self, layer, fn):
        key = f"{layer}.{fn.__name__}"
        meter = getattr(self, f"_meter_{layer}", None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                self.self_s[layer] += duration - frame[3]
                self.inclusive_s[key] += duration
                self.entries[layer] += 1
                self.spans.append((frame[0], parent, layer, fn.__name__,
                                   frame[2], end))
            if meter is not None:
                meter(fn.__name__, args, result)
            return result

        return wrapper

    # Meters run once per span, after it closes. They read arguments and
    # results only; anything they cannot recognise is left uncounted.

    def _meter_objective(self, name, args, result):
        if args and hasattr(args[0], "loss"):          # (spec, w[, rows])
            rows = args[2] if len(args) > 2 else None
            self._selections.append((args[0].data, rows))
        elif len(args) > 1 and hasattr(args[1], "labels"):   # (w, dataset)
            self._selections.append((args[1], None))

    def _meter_line_search(self, name, args, result):
        if not (isinstance(result, tuple) and len(result) == 2):
            return
        eta, evals = result
        self.counts["line_search.evals"] += evals
        self.counts["line_search.zero_steps"] += eta == 0.0
        self.counts["line_search.accepted"] += eta > 0.0
        limit = getattr(args[0], "max_backtracks", None) if args else None
        if limit is not None and evals == limit + 1:
            self.counts["line_search.max_evals_hits"] += 1

    def _meter_solvers(self, name, args, result):
        if hasattr(result, "iterations") and hasattr(result, "converged"):
            self.counts["solvers.reference_iterations"] += result.iterations
            self.counts["solvers.reference_converged"] += bool(result.converged)

    def _meter_data(self, name, args, result):
        if not args:
            return
        if isinstance(args[0], (str, os.PathLike)) and os.path.isfile(args[0]):
            self.counts["data.bytes_parsed"] += os.path.getsize(args[0])
        elif isinstance(args[0], (str, bytes)):
            self.counts["data.bytes_parsed"] += len(args[0])

    def _meter_harness(self, name, args, result):
        if name == "emit_csv" and len(args) > 1 and os.path.isfile(args[1]):
            self.counts["harness.csv_bytes"] += os.path.getsize(args[1])

    def _objective_work(self):
        """(rows, nonzeros) touched by calls entering the objective layer."""
        nnz_of = {}
        rows = nnz = 0
        for data, sel in self._selections:
            per_row = nnz_of.get(id(data))
            if per_row is None:
                per_row = nnz_of[id(data)] = _row_nnz(data)
            if sel is None:
                rows += len(per_row)
                nnz += sum(per_row)
            elif isinstance(sel, numbers.Integral):
                rows += 1
                nnz += per_row[int(sel)]
            else:
                rows += len(sel)
                nnz += sum(per_row[int(i)] for i in sel)
        return rows, nnz

    def summary(self):
        """Per-layer metrics of everything recorded so far."""
        m = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        rows, nnz = self._objective_work()
        c = self.counts
        ls_calls = self.entries["line_search"]
        m.update({
            "objective.calls": self.entries["objective"],
            "objective.rows": rows,
            "objective.nnz": nnz,
            "line_search.calls": ls_calls,
            "line_search.evals": c["line_search.evals"],
            "line_search.evals_per_call":
                c["line_search.evals"] / ls_calls if ls_calls else 0.0,
            "line_search.zero_steps": c["line_search.zero_steps"],
            "line_search.max_evals_hits": c["line_search.max_evals_hits"],
            "line_search.accept_ratio":
                (c["line_search.accepted"] / c["line_search.evals"]
                 if c["line_search.evals"] else 0.0),
            "estimators.calls": self.entries["estimators"],
            "estimators.snapshot_s": self.inclusive_s["estimators.take_snapshot"],
            "estimators.snapshots": self.calls["estimators.take_snapshot"],
            "solvers.inner_steps": self.calls["solvers.inner_step"],
            "solvers.reference_s": self.inclusive_s["solvers.reference_optimum"],
            "solvers.reference_iterations": c["solvers.reference_iterations"],
            "solvers.reference_converged": c["solvers.reference_converged"],
            "data.calls": self.entries["data"],
            "data.bytes_parsed": c["data.bytes_parsed"],
            "data.schedule_s": self.inclusive_s["data.make_schedule"],
            "harness.record_epoch_s": self.inclusive_s["harness.record_epoch"],
            "harness.emit_csv_s": self.inclusive_s["harness.emit_csv"],
            "harness.csv_bytes": c["harness.csv_bytes"],
        })
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,layer,name,start_s,end_s\n")
            for sid, parent, layer, name, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{layer},"
                         f"{name},{start!r},{end!r}\n")
