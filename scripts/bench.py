"""Time the oracle and pipeline layers of ncring in-process and write the medians as JSON.

    python3 scripts/bench.py OUT.json

Each performance change commits one such file at the repository root,
``BENCH_<n>.json``.  The script imports ncring from this checkout's ``src``,
pins BLAS to one thread before numpy is imported, and times, as the median of
REPEATS runs after one warm-up run:

* ``oracle.zone_filling``: the fill of the ground-state and current sweeps;
* ``oracle.ground_state_sweep`` and ``oracle.current_sweep``: the comparison
  against a filling built beforehand, as ``ncring verify`` runs them;
* ``oracle.signature_sweep``: its own fill and comparison;
* ``cli.verify``: ``ncring verify`` through ``cli.main``, standard output
  discarded;
* ``pipeline.shared_grid_128``: ``synthesize_trace`` plus ``analyze_trace`` of
  one 128-point noisy trace on a shared ``flux_grid`` grid;
* ``pipeline.copied_grid_128``: ``analyze_trace`` of that trace with its flux
  copied, so the analysis computes its grid terms itself;
* ``pipeline.file_trace_1e5``: ``read_trace_csv`` plus ``analyze_trace`` of a
  1e5-point N = 10001 log-grid trace, written beforehand to a temporary file.

The file records the Python and numpy versions, the machine and its CPU
count, and the BLAS thread settings, next to the medians in seconds, and
``src_lines``: the line count of each module of ``src/ncring`` and their total,
as ``wc -l`` counts them.  The other layers of ROADMAP aim 1 are not timed yet.
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
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ncring import cli, oracle  # noqa: E402
from ncring.dataio import read_trace_csv, write_trace_csv  # noqa: E402
from ncring.model import RingSystem  # noqa: E402
from ncring.pipeline import analyze_trace, synthesize_trace  # noqa: E402

REPEATS = 15


def median_time(call, repeats: int = REPEATS) -> float:
    """The median wall time of `repeats` calls, after one call that is not timed."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def verify() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["verify"]) != 0:
            raise RuntimeError("ncring verify failed")


def layers(work: Path) -> dict[str, float]:
    filled = oracle.zone_filling()
    ring = RingSystem.from_f_nc(3, 1e-3)
    short = synthesize_trace(ring, 1e-3, 0.4, 128, noise_sigma=1e-4, seed=1)
    copied = dataclasses.replace(short, f=short.f.copy())
    large = RingSystem(radius=1e-6, n_electrons=10001, theta_tilde=1.76e-61)
    path = work / "trace.csv"
    write_trace_csv(synthesize_trace(large, 1e-3, 0.4, 100_000, noise_sigma=1e-6, seed=1), path)
    calls = {
        "oracle.zone_filling": oracle.zone_filling,
        "oracle.ground_state_sweep": lambda: oracle.ground_state_sweep(filled),
        "oracle.current_sweep": lambda: oracle.current_sweep(filled),
        "oracle.signature_sweep": oracle.signature_sweep,
        "cli.verify": verify,
        "pipeline.shared_grid_128": lambda: analyze_trace(
            synthesize_trace(ring, 1e-3, 0.4, 128, noise_sigma=1e-4, seed=1)),
        "pipeline.copied_grid_128": lambda: analyze_trace(copied),
        "pipeline.file_trace_1e5": lambda: analyze_trace(read_trace_csv(path, ring=large)),
    }
    return {name: median_time(call) for name, call in calls.items()}


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
        medians = layers(Path(work))
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repeats": REPEATS,
        "unit": "s",
        "median_s": medians,
        "src_lines": src_lines(),
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, value in record["median_s"].items():
        print(f"{name:28s}  {value * 1e3:8.3f} ms")
    print(f"{'src/ncring lines':28s}  {record['src_lines']['total']:8d}")


if __name__ == "__main__":
    main()
