"""Time the oracle layer of ncring in-process and write the medians as JSON.

    python3 scripts/bench.py OUT.json

Each performance change commits one such file at the repository root,
``BENCH_<n>.json``.  The script imports ncring from this checkout's ``src``,
pins BLAS to one thread before numpy is imported, and at both ``verify`` sizes
(``full`` and ``quick``) times, as the median of REPEATS runs after one
warm-up run:

* ``oracle.zone_filling``: the fill of the ground-state and current sweeps;
* ``oracle.ground_state_sweep`` and ``oracle.current_sweep``: the comparison
  against a filling built beforehand, as ``ncring verify`` runs them;
* ``oracle.signature_sweep``: its own fill and comparison;
* ``cli.verify``: ``ncring verify`` through ``cli.main``, standard output
  discarded.

The file records the Python and numpy versions, the machine and its CPU
count, and the BLAS thread settings, next to the medians in seconds.  Other
layers of the program are not timed yet.
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
SIZES = {"full": False, "quick": True}


def median_time(call, repeats: int = REPEATS) -> float:
    """The median wall time of `repeats` calls, after one call that is not timed."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def verify(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"ncring {' '.join(argv)} failed")


def layers() -> dict[str, dict[str, float]]:
    timed: dict[str, dict[str, float]] = {}
    for size, quick in SIZES.items():
        filled = oracle.zone_filling(quick)
        calls = {
            "oracle.zone_filling": lambda: oracle.zone_filling(quick),
            "oracle.ground_state_sweep": lambda: oracle.ground_state_sweep(quick, filled),
            "oracle.current_sweep": lambda: oracle.current_sweep(quick, filled),
            "oracle.signature_sweep": lambda: oracle.signature_sweep(quick),
            "cli.verify": lambda: verify(["verify", "--quick"] if quick else ["verify"]),
        }
        for name, call in calls.items():
            timed.setdefault(name, {})[size] = median_time(call)
    return timed


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
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, sizes in record["median_s"].items():
        print(f"{name:28s}" + "".join(f"  {size} {value * 1e3:8.3f} ms"
                                      for size, value in sizes.items()))


if __name__ == "__main__":
    main()
