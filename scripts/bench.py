"""Time the layers of ncring in-process and write each timing's median and quartiles as JSON.

    python3 scripts/bench.py OUT.json

Each performance change commits one such file at the repository root,
``BENCH_<n>.json``.  The script imports ncring from this checkout's ``src``,
pins BLAS to one thread before numpy is imported, and times REPEATS runs after
one warm-up run of each of the following; a run of one of the SHORT calls, each
a few microseconds, is CALLS calls timed together, and its time is per call:

* ``oracle.zone_filling``: the fill of the ground-state and current sweeps;
* ``oracle.ground_state_sweep`` and ``oracle.current_sweep``: the comparison
  against a filling built beforehand, as ``ncring verify`` runs them;
* ``oracle.signature_sweep``: its own fill and comparison;
* ``cli.verify``: ``ncring verify`` through ``cli.main``, standard output
  discarded;
* ``model.persistent_current_128``: the closed-form current of an N = 3 ring
  on a 128-point log grid;
* ``pipeline.synthesize_trace_128`` and ``pipeline.synthesize_trace_128_noisy``:
  ``synthesize_trace`` of that ring on that shared ``flux_grid`` grid,
  noiseless and with seeded noise;
* ``pipeline.shared_grid_128``: ``synthesize_trace`` plus ``analyze_trace`` of
  one 128-point noisy trace on a shared ``flux_grid`` grid;
* ``pipeline.batch_600x128``: ``synthesize_trace`` plus ``analyze_trace`` of
  each of the 600 128-point traces of one draw of the criterion 6/7 mix
  (:func:`criterion_mix`);
* ``pipeline.copied_grid_128``: ``analyze_trace`` of that trace with its flux
  copied, so the analysis computes its grid terms itself;
* ``pipeline.file_trace_1e5``: ``read_trace_csv`` plus ``analyze_trace`` of a
  1e5-point N = 10001 log-grid trace, written beforehand to a temporary file;
* ``dataio.write_trace_csv_1e5``: ``write_trace_csv`` of that trace, as
  ``ncring simulate`` writes it;
* ``dataio.write_table_1e5x3`` and ``svgplot.emit_plot_1e5``: the derived
  ``f,lambda,sigma`` table of its analysis and the plot of its two series
  sharing ``f``, as ``ncring analyze`` writes them;
* ``floor.float_repr_1e5x3``: ``repr`` of each float of those three columns
  alone, the part of ``write_table`` that the bytes of the format fix.

The file records the Python and numpy versions, the machine and its CPU
count, and the BLAS thread settings, next to the medians and the quartiles
(``[q1, q3]``, so a file shows its own noise) in seconds, and ``src_lines``:
the line count of each module of ``src/ncring`` and their total, as ``wc -l``
counts them.  The other layers of ROADMAP aim 1 are not timed yet.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ncring import cli, oracle  # noqa: E402
from ncring.dataio import read_trace_csv, write_table, write_trace_csv  # noqa: E402
from ncring.model import RingSystem, persistent_current  # noqa: E402
from ncring.pipeline import analyze_trace, flux_grid, synthesize_trace  # noqa: E402
from ncring.svgplot import emit_plot  # noqa: E402

REPEATS = 15
CALLS = 200
SHORT = ("model.persistent_current_128", "pipeline.synthesize_trace_128",
         "pipeline.synthesize_trace_128_noisy")


def quartile_times(call, repeats: int = REPEATS, calls: int = 1) -> tuple[float, float, float]:
    """The quartiles (q1, median, q3) of the wall time per call of `repeats` runs of
    `calls` calls each, after one call that is not timed."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - start) / calls)
    return tuple(statistics.quantiles(times, n=4))


def verify() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["verify"]) != 0:
            raise RuntimeError("ncring verify failed")


def criterion_mix(seed: int = 1) -> list[tuple]:
    """(ring, f_min, noise sigma, noise seed) of 600 traces, in an order shuffled by `seed`:
    300 noisy commutative rings, which must not read as detections (N = 3, 4; sigma = 0,
    0.01 N, 0.1 N; 50 seeds each), and 300 noiseless noncommutative rings, which must be
    recovered (N = 3, 4, 101, 10000, 10001; f_nc = 1e-5, 1e-3, 1e-2; 20 each)."""
    rng = random.Random(seed)
    specs = [(n, 0.0, mult * n, rng.randrange(2**31))
             for n in (3, 4) for mult in (0.0, 0.01, 0.1) for _ in range(50)]
    specs += [(n, f_nc, 0.0, None)
              for n in (3, 4, 101, 10000, 10001) for f_nc in (1e-5, 1e-3, 1e-2) for _ in range(20)]
    rng.shuffle(specs)
    rings = {}
    return [(rings.setdefault((n, f_nc), RingSystem.from_f_nc(n, f_nc)),
             max(1e-3, f_nc) if n % 2 == 0 else 1e-3, sigma, noise_seed)
            for n, f_nc, sigma, noise_seed in specs]


def batch(mix: list[tuple]) -> None:
    """Synthesize and analyse each trace of `mix` on 128 points up to f = 0.4."""
    for ring, f_min, sigma, seed in mix:
        analyze_trace(synthesize_trace(ring, f_min, 0.4, 128, noise_sigma=sigma, seed=seed))


def layers(work: Path) -> dict[str, tuple[float, float, float]]:
    filled = oracle.zone_filling()
    ring = RingSystem.from_f_nc(3, 1e-3)
    grid = flux_grid(1e-3, 0.4, 128)
    mix = criterion_mix()
    short = synthesize_trace(ring, 1e-3, 0.4, 128, noise_sigma=1e-4, seed=1)
    copied = dataclasses.replace(short, f=short.f.copy())
    large = RingSystem(radius=1e-6, n_electrons=10001, theta_tilde=1.76e-61)
    path = work / "trace.csv"
    trace = synthesize_trace(large, 1e-3, 0.4, 100_000, noise_sigma=1e-6, seed=1)
    write_trace_csv(trace, path)
    f, result = trace.f, analyze_trace(read_trace_csv(path, ring=large))
    derived = (f, result.lam, result.sig)
    curves = [("|lambda|", np.transpose((f, np.abs(result.lam)))),
              ("|sigma|", np.transpose((f, np.abs(result.sig))))]
    calls = {
        "oracle.zone_filling": oracle.zone_filling,
        "oracle.ground_state_sweep": lambda: oracle.ground_state_sweep(filled),
        "oracle.current_sweep": lambda: oracle.current_sweep(filled),
        "oracle.signature_sweep": oracle.signature_sweep,
        "cli.verify": verify,
        "model.persistent_current_128": lambda: persistent_current(ring, grid),
        "pipeline.synthesize_trace_128": lambda: synthesize_trace(ring, 1e-3, 0.4, 128),
        "pipeline.synthesize_trace_128_noisy": lambda: synthesize_trace(
            ring, 1e-3, 0.4, 128, noise_sigma=1e-4, seed=1),
        "pipeline.shared_grid_128": lambda: analyze_trace(
            synthesize_trace(ring, 1e-3, 0.4, 128, noise_sigma=1e-4, seed=1)),
        "pipeline.batch_600x128": lambda: batch(mix),
        "pipeline.copied_grid_128": lambda: analyze_trace(copied),
        "pipeline.file_trace_1e5": lambda: analyze_trace(read_trace_csv(path, ring=large)),
        "dataio.write_trace_csv_1e5": lambda: write_trace_csv(trace, work / "written.csv"),
        "dataio.write_table_1e5x3": lambda: write_table(
            work / "derived.csv", "f,lambda,sigma", derived, ("# method: central",)),
        "svgplot.emit_plot_1e5": lambda: emit_plot(curves, work / "derived.svg"),
        "floor.float_repr_1e5x3": lambda: [list(map(repr, c.tolist())) for c in derived],
    }
    return {name: quartile_times(call, calls=CALLS if name in SHORT else 1)
            for name, call in calls.items()}


def src_lines() -> dict[str, int]:
    """Lines of each module of src/ncring, by file name, and their total."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((ROOT / "src" / "ncring").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    out = parser.parse_args().out
    with tempfile.TemporaryDirectory() as work:
        timings = layers(Path(work))
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repeats": REPEATS,
        "calls_per_run": {name: CALLS if name in SHORT else 1 for name in timings},
        "unit": "s",
        "median_s": {name: median for name, (_, median, _) in timings.items()},
        "quartiles_s": {name: [q1, q3] for name, (q1, _, q3) in timings.items()},
        "src_lines": src_lines(),
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, (q1, median, q3) in timings.items():
        print(f"{name:36s}  {median * 1e3:8.4f} ms  (quartiles {q1 * 1e3:.4f}-{q3 * 1e3:.4f})")
    print(f"{'src/ncring lines':36s}  {record['src_lines']['total']:8d}")


if __name__ == "__main__":
    main()
