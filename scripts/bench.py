"""Time the oracle layer of ncring in-process and write the medians as JSON.

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
  discarded.

The file records the Python and numpy versions, the machine and its CPU
count, and the BLAS thread settings, next to the medians in seconds, and
``src_lines``: the line count of each module of ``src/ncring`` and their total,
as ``wc -l`` counts them.  Other layers of the program are not timed yet.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ncring import cli, oracle  # noqa: E402

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


def layers() -> dict[str, float]:
    filled = oracle.zone_filling()
    calls = {
        "oracle.zone_filling": oracle.zone_filling,
        "oracle.ground_state_sweep": lambda: oracle.ground_state_sweep(filled),
        "oracle.current_sweep": lambda: oracle.current_sweep(filled),
        "oracle.signature_sweep": oracle.signature_sweep,
        "cli.verify": verify,
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
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repeats": REPEATS,
        "unit": "s",
        "median_s": layers(),
        "src_lines": src_lines(),
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, value in record["median_s"].items():
        print(f"{name:28s}  {value * 1e3:8.3f} ms")
    print(f"{'src/ncring lines':28s}  {record['src_lines']['total']:8d}")


if __name__ == "__main__":
    main()
