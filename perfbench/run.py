"""Benchmark for ncring: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cli_large --seed 1 --trace 0

Workloads are listed in BENCHMARK.json and defined in workloads.py.  One op
runs repeatedly, single-threaded and in closed loop (the next op starts when
the previous one is checked), until --seconds have passed (by default
BENCHMARK.json's run_seconds).  With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported, and each op is timed against a fixed reference
work unit interleaved with it (reference.py), so that the shared host's
speed swings cancel.  With --trace 1 ops alternate between untraced and
traced and the per-layer metrics are reported.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
details, the environment and, for traced runs, every span go to
.perfbench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported (here, or in a set-up probe).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
# Tracer bookkeeping allowed between an op's outside clock and its layer self times.
SPAN_SUM_TOLERANCE_S = 1e-3
SPAN_SUM_TOLERANCE_SHARE = 0.01


def _null_span(name):
    return contextlib.nullcontext()


def _git_commit() -> str:
    """The checked-out commit, read from .git inside the root (never above it)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _setup_probe(args) -> int:
    """Import ncring and build the inputs in this fresh process; print the seconds taken."""
    t0 = time.perf_counter()
    WORKLOADS[args.workload]().build(args.seed, WORK / "probe")
    print(repr(time.perf_counter() - t0))
    return 0


def _setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _layer_metrics(names, summaries, traced_walls, overhead) -> dict:
    """Per-layer metrics: the median over traced ops of each per-op value.

    `overhead` holds, for each traced op, its wall time over that of the
    untraced op just before it; pairing adjacent ops cancels slow drift in
    the machine's speed.
    """

    def per_op(summary, name):
        calls, counts = summary["calls"], summary["counts"]
        if name.startswith("layer."):
            return summary["layer_self"][name.split(".")[1]]
        if name == "pipeline.linear_fits_per_trace":
            traces = calls.get("pipeline.analyze_trace", 0)
            fits = (calls.get("pipeline.estimate_electron_number", 0)
                    + calls.get("pipeline.trace_noise_rms", 0))
            return fits / traces if traces else 0.0
        if name == "oracle.fillings_per_point":
            points = counts.get("oracle.filling_points", 0)
            return calls.get("oracle.ground_state_by_filling", 0) / points if points else 0.0
        if name == "trace.spans_per_op":
            return summary["spans"]
        if name.endswith(".self_s"):
            return summary["self"].get(name[: -len(".self_s")], 0.0)
        if name.endswith(".s"):
            return summary["incl"].get(name[: -len(".s")], 0.0)
        if name.endswith(".calls"):
            return calls.get(name[: -len(".calls")], 0)
        return counts.get(name, 0)

    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            metrics[name] = statistics.median(overhead)
        elif name == "trace.op_s":
            metrics[name] = statistics.median(traced_walls)
        else:
            metrics[name] = statistics.median([per_op(s, name) for s in summaries])
    return metrics


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    env = _environment(args)
    print(json.dumps({"env": env}), flush=True)

    setup = [] if args.trace else _setup_seconds(args)
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    walls, rels, traced_walls, overhead, summaries, gaps = [], [], [], [], [], []
    previous_wall = None
    attempted = failed = 0
    notes = []
    try:
        workload.build(args.seed, work)
        gauge = None
        if not args.trace:
            # Imported here, as it imports numpy, which the set-up probes must time.
            from reference import Gauge

            gauge = Gauge()
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            traced = tracer is not None and k % 2 == 1
            summary = None
            try:
                if traced:
                    tracer.install()
                    first = tracer.begin_op(k)
                    # The op's wall time comes from a clock outside every span,
                    # so the layer self times can be checked against it.
                    t0 = time.perf_counter()
                    try:
                        with tracer.span("bench.op"):
                            record = workload.op(k, tracer.span)
                    finally:
                        wall = time.perf_counter() - t0
                        tracer.uninstall()
                    summary = tracer.summarize_op(first)
                elif gauge is None:
                    t0 = time.perf_counter()
                    record = workload.op(k, _null_span)
                    wall = time.perf_counter() - t0
                else:
                    with gauge.measure():
                        record = workload.op(k, _null_span)
                    wall = gauge.wall
            except Exception as exc:  # the op failed as a whole; count it and go on
                notes.append(f"op {k}: {type(exc).__name__}: {exc}")
                attempted += workload.ops_per_call
                failed += workload.ops_per_call
                previous_wall = None
            else:
                a, f = workload.check(k, record)
                attempted += a
                failed += f
                if f:
                    notes.append(f"op {k}: {f} of {a} outputs wrong")
                if summary is not None:
                    summary["counts"].update(record.get("counts", {}))
                    layer_sum = sum(summary["layer_self"].values())
                    gaps.append(wall - layer_sum)
                    tolerance = max(SPAN_SUM_TOLERANCE_S, SPAN_SUM_TOLERANCE_SHARE * wall)
                    if abs(layer_sum - wall) > tolerance:
                        failed += a
                        notes.append(f"op {k}: layer self times sum to {layer_sum} "
                                     f"but the op took {wall}")
                    summaries.append(summary)
                    traced_walls.append(wall)
                    if previous_wall is not None:
                        overhead.append(wall / previous_wall)
                else:
                    walls.append(wall)
                    if gauge is not None:
                        rels.append(gauge.rel)
                    previous_wall = wall
            k += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if args.trace:
        if not overhead:
            raise RuntimeError("a traced run needs one untraced and one traced op")
        metrics = _layer_metrics(units, summaries, traced_walls, overhead)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_ref.p50": statistics.median(rels),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    detail = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted if attempted else 1.0,
        "notes": notes,
        "setup_s_samples": setup,
        "op_s_samples": walls,
        "op_ref_samples": rels,
        "traced_op_s_samples": traced_walls,
        "span_sum_gap_s_samples": gaps,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"ops: {len(walls)} untraced, {len(traced_walls)} traced; "
          f"error_ratio {detail['error_ratio']} ({failed} of {attempted})")
    if walls:
        print(f"op wall time without reference blocks, median: {statistics.median(walls)!r} s")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ncring" / "__init__.py").is_file():
        print(f"perfbench: no ncring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
