"""In-memory span recorder that wraps ncring's public functions from outside.

Spans are recorded at the names the callers look up (module attributes), so
the package itself is never edited.  Each span stores its name, start, end,
parent span and op id in flat arrays; self time is derived afterwards as the
span's duration minus the part of it that its child spans cover.  The
benchmark is single-threaded, so spans nest strictly and a plain stack gives
each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import time
from array import array
from pathlib import Path

# (module, attribute) -> span name.  The span is named after the layer that
# implements the function, not the module that happens to import it.
WRAPPED = {
    ("ncring.cli", "read_trace_csv"): "dataio.read_trace_csv",
    ("ncring.cli", "write_trace_csv"): "dataio.write_trace_csv",
    ("ncring.cli", "write_results_report"): "dataio.write_results_report",
    ("ncring.cli", "analyze_trace"): "pipeline.analyze_trace",
    ("ncring.cli", "synthesize_trace"): "pipeline.synthesize_trace",
    ("ncring.cli", "emit_plot"): "svgplot.emit_plot",
    ("ncring.cli", "ground_state_sweep"): "oracle.ground_state_sweep",
    ("ncring.cli", "current_sweep"): "oracle.current_sweep",
    ("ncring.cli", "signature_sweep"): "oracle.signature_sweep",
    ("ncring.pipeline", "synthesize_trace"): "pipeline.synthesize_trace",
    ("ncring.pipeline", "analyze_trace"): "pipeline.analyze_trace",
    ("ncring.pipeline", "estimate_electron_number"): "pipeline.estimate_electron_number",
    ("ncring.pipeline", "trace_noise_rms"): "pipeline.trace_noise_rms",
    ("ncring.pipeline", "differentiate_trace"): "pipeline.differentiate_trace",
    ("ncring.pipeline", "fit_power_law"): "pipeline.fit_power_law",
    ("ncring.pipeline", "classify"): "pipeline.classify",
    ("ncring.pipeline", "estimate_theta_tilde"): "pipeline.estimate_theta_tilde",
    ("ncring.pipeline", "persistent_current"): "model.persistent_current",
    ("ncring.oracle", "ground_state_by_filling"): "oracle.ground_state_by_filling",
    ("ncring.oracle", "current_by_finite_difference"): "oracle.current_by_finite_difference",
    ("ncring.oracle", "signature_by_finite_difference"): "oracle.signature_by_finite_difference",
    ("ncring.oracle", "ground_state_energy"): "model.ground_state_energy",
    ("ncring.oracle", "persistent_current"): "model.persistent_current",
    ("ncring.oracle", "lambda_signature"): "model.lambda_signature",
    ("ncring.oracle", "sigma_signature"): "model.sigma_signature",
}

LAYERS = ("bench", "cli", "dataio", "svgplot", "pipeline", "model", "oracle")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _after_write_trace(tracer, args, kwargs, result):
    tracer.files.append(("dataio.write_trace_csv.bytes", str(_arg(args, kwargs, 1, "path"))))


def _after_read_trace(tracer, args, kwargs, result):
    tracer.files.append(("dataio.read_trace_csv.bytes", str(_arg(args, kwargs, 0, "path"))))


def _after_emit_plot(tracer, args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    tracer.counts["svgplot.points_in"] += sum(len(points) for _, points in series)
    tracer.files.append(("svgplot.svg_bytes", str(result)))
    tracer.files.append(("svgplot.csv_bytes", str(Path(result).with_suffix(".csv"))))


def _after_sweep(tracer, args, kwargs, result):
    tracer.counts["oracle.points_checked"] += result.n_points
    if "signature" not in result.label:
        tracer.counts["oracle.filling_points"] += result.n_points


AFTER = {
    "dataio.write_trace_csv": _after_write_trace,
    "dataio.read_trace_csv": _after_read_trace,
    "svgplot.emit_plot": _after_emit_plot,
    "oracle.ground_state_sweep": _after_sweep,
    "oracle.current_sweep": _after_sweep,
    "oracle.signature_sweep": _after_sweep,
}


class Tracer:
    """Records spans for the ops run between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self.counts: dict[str, float] = {}
        self.files: list[tuple[str, str]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._id(name)
        after = AFTER.get(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for (module_name, attr), name in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        self.counts = {"svgplot.points_in": 0, "oracle.points_checked": 0,
                       "oracle.filling_points": 0}
        self.files = []
        return len(self.start)

    def summarize_op(self, first: int) -> dict:
        """Per-name inclusive time, self time and calls for spans[first:], plus counts.

        Self time subtracts the union of the child intervals.  Children of a
        span are recorded in start order, so the union is accumulated in one
        pass by remembering how far each parent is already covered.
        """
        last = len(self.start)
        covered: dict[int, float] = {}
        reach: dict[int, float] = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                lo = max(self.start[i], reach.get(p, self.start[p]))
                hi = min(self.end[i], self.end[p])
                if hi > lo:
                    covered[p] = covered.get(p, 0.0) + (hi - lo)
                    reach[p] = hi
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            self_time = dur - covered.get(i, 0.0)
            incl[name] = incl.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + self_time
            calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".", 1)[0]] += self_time
        counts = dict(self.counts)
        for key, path in self.files:
            counts[key] = counts.get(key, 0) + os.path.getsize(path)
        return {
            "incl": incl,
            "self": own,
            "calls": calls,
            "layer_self": layer_self,
            "spans": last - first,
            "counts": counts,
        }

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: op,span,parent,name,start_s,end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            rows = []
            for i in range(len(self.start)):
                rows.append(
                    f"{self.op_id[i]},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0!r},{self.end[i] - t0!r}\n"
                )
                if len(rows) >= 65536:
                    fh.write("".join(rows))
                    rows.clear()
            fh.write("".join(rows))
