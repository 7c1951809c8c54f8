"""Print one sha256 per output file of a fixed set of ncring CLI runs.

    python3 scripts/output_digest.py [--src DIR]

The runs cover all seven commands, each given only the flags it reads.  Each
run writes into its own directory under a temporary root (``constants`` and
``verify`` write none); the digests cover every file written there and each
run's standard output, with the temporary root replaced by ``<out>``.  Two more rows, ``analysis/shared_grid``
and ``analysis/copied_grid``, digest in-process analyses of a fixed mix of
2400 traces, on the shared grids of ``synthesize_trace`` and on copies of
them (a CLI run reads its trace from a file, so it never analyses a shared
grid); the two rows are equal when sharing a grid changes no result.  They
hash each verdict's facts by name, not its repr, so two trees whose verdicts
store the same outcome in different fields print the same rows.  One
more row, ``fit/power_law``, digests public ``fit_power_law`` over a fixed
mix of inputs no analysis hands it: unsorted, non-positive and NaN flux,
infinite and NaN values, floors, and too few or single-flux usable points.

The same pass over the mix gives a verdict table (columns in
:data:`TABLE_HEADER`), one row per trace on its shared grid, which
``tests/golden/verdicts.csv`` holds and ``tests/test_golden.py`` compares.

Two checkouts produce the same bytes exactly when they print the same lines,
so a change that claims identical outputs is checked by running this script
against the source tree of each (``--src``, by default this checkout's
``src``).  The script prints the golden file's header, versions and numpy's
SIMD dispatch included, so

    python3 scripts/output_digest.py > tests/golden/output_digest.txt

regenerates that file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import platform
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADER = """\
# The lines scripts/output_digest.py prints for this tree; tests/test_golden.py reruns its
# runs in-process and compares.  Float reprs and BLAS sums may differ on another build, so
# the lines hold for these versions only.  After an intended output change, or on a new
# build, regenerate this file: python3 scripts/output_digest.py > tests/golden/output_digest.txt"""

# configuration files written under the root before the runs; a flag names one as <out>/NAME
CONFIGS = {
    "si_n101.cfg": "units = si\nn_electrons = 101\n",
    "empty_window.cfg": "fit_f_lo = 0.5\nfit_f_hi = 0.6\n",
    "wide_window.cfg": "fit_f_lo = 1e-4\nfit_f_hi = 1.0\n",
}
# name -> (ring and config flags, simulate flags, analyze flags); each run is
# simulate then analyze, both get the ring and config flags, and each command
# gets only the flags it reads
SIMULATE_ANALYZE = {
    "large_n10001": (["--n-electrons", "10001"],
                     ["--points", "100000", "--noise-sigma", "1e-6", "--seed", "7"], []),
    "odd_n3_seed42": (["--n-electrons", "3"], ["--noise-sigma", "1e-7", "--seed", "42"], []),
    "noisy_even_n4": (["--n-electrons", "4"], ["--noise-sigma", "1e-6", "--seed", "3"], []),
    "commutative_n3": (["--n-electrons", "3", "--theta-tilde", "0"],
                       ["--noise-sigma", "1e-4", "--seed", "5"], []),
    "even_n4_uniform33": (["--n-electrons", "4"], ["--points", "33", "--grid", "uniform"], []),
    # an SI trace written and read back through --config
    "si_config_n101": (["--config", "<out>/si_n101.cfg"],
                       ["--noise-sigma", "1e-6", "--seed", "11"], []),
    # a fit window above the grid (Inconclusive), and one wider than the grid
    "empty_fit_window": (["--config", "<out>/empty_window.cfg"], [], []),
    "wide_fit_window": (["--config", "<out>/wide_window.cfg"],
                        ["--noise-sigma", "1e-7", "--seed", "2"], []),
    "smoothed_hinted_n101": (["--n-electrons", "101"], ["--noise-sigma", "1e-5", "--seed", "13"],
                             ["--smoothing-window", "5", "--no-blind"]),
}
STANDALONE = {
    "constants": ["constants"],
    "constants_even_n4": ["constants", "--n-electrons", "4", "--radius", "2e-6"],
    "spectrum": ["spectrum"],
    "spectrum_uniform_k1": ["spectrum", "--grid", "uniform", "--points", "33", "--n-levels", "1"],
    # 7000 rows: more than the 4096 rows that write_table converts at a time
    "spectrum_1000_k3": ["spectrum", "--points", "1000", "--n-levels", "3"],
    "current": ["current"],
    "current_si_n101": ["current", "--config", "<out>/si_n101.cfg"],
    "signatures": ["signatures"],
    "verify_quick": ["verify", "--quick"],
    "verify": ["verify"],
}


def _run(main, argv: list[str], root: Path) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([arg.replace("<out>", str(root)) for arg in argv])
    return rc, buf.getvalue().replace(str(root), "<out>").encode()


# the in-process mix: its size, rings, noise levels relative to N, and fit
# windows (the default, two narrower ones, one above the grid and one wider than it)
MIX_TRACES = 2400
MIX_RINGS = [(n, f_nc) for n in (3, 4, 7, 10, 101, 1000, 10000, 10001)
             for f_nc in (0.0, 1e-5, 1e-3, 1e-2)]
MIX_NOISE = (0.0, 1e-9, 1e-6, 1e-3, 0.05)
MIX_WINDOWS = ((1e-3, 1e-1), (1e-3, 3e-2), (1e-2, 0.4), (0.5, 0.6), (1e-4, 1.0))
# a trace's inputs, then its verdict, N, parity and f_nc estimate, or its error's class name
TABLE_HEADER = ("index,n,f_nc,grid,points,noise_sigma,seed,fit_f_lo,fit_f_hi,smoothing_window,"
                "verdict,estimated_n,estimated_parity,f_nc_hat")


def verdict_facts(verdict) -> bytes:
    """The verdict's facts, one line each by name.

    They are its kind's value, N, parity, the reprs of its f_nc and
    theta_tilde estimates and of both fits, and each diagnostics line.  Every
    version of ``Verdict`` holds these, so, unlike its repr, they compare
    trees whose verdicts store different fields.
    """
    lines = [f"kind: {verdict.kind.value}", f"estimated_n: {verdict.estimated_n}",
             f"estimated_parity: {verdict.estimated_parity}",
             f"estimated_f_nc: {verdict.estimated_f_nc!r}",
             f"estimated_theta_tilde: {verdict.estimated_theta_tilde!r}",
             f"lambda_fit: {verdict.lambda_fit!r}", f"sigma_fit: {verdict.sigma_fit!r}",
             *(f"diagnostic: {note}" for note in verdict.diagnostics)]
    return "".join(line + "\n" for line in lines).encode()


def analysis_digests() -> tuple[list[tuple[str, str]], list[str]]:
    """(sha256, name) of the mix's analyses on shared grids and on copied ones,
    and the verdict table: :data:`TABLE_HEADER`, then one row per trace on its
    shared grid, floats by repr.

    Each digest covers, per trace, :func:`verdict_facts`, ``lam``, ``sig``,
    ``method``, the noise rms and the floor, or the error the analysis raised.
    """
    import numpy as np

    from ncring.errors import NcRingError
    from ncring.model import RingSystem
    from ncring.pipeline import RunConfig, analyze_trace, synthesize_trace

    rng = random.Random(MIX_TRACES)
    shared, copied = hashlib.sha256(), hashlib.sha256()
    table = [TABLE_HEADER]
    for index in range(MIX_TRACES):
        n, f_nc = rng.choice(MIX_RINGS)
        ring = RingSystem.from_f_nc(n_electrons=n, f_nc=f_nc)
        f_min = max(1e-3, f_nc) if n % 2 == 0 else 1e-3
        points, noise = rng.randint(64, 256), rng.choice(MIX_NOISE) * n
        seed, grid = rng.randrange(2**31), rng.choice(("log", "uniform"))
        trace = synthesize_trace(ring, f_min, 0.4, points, noise_sigma=noise, seed=seed, grid=grid)
        f_lo, f_hi = rng.choice(MIX_WINDOWS)
        window = rng.choice((1, 3, 5))
        config = RunConfig(n_electrons=n, smoothing_window=window, fit_f_lo=f_lo, fit_f_hi=f_hi)
        copy = dataclasses.replace(trace, f=np.array(trace.f))
        for digest, analysed in ((shared, trace), (copied, copy)):
            try:
                result = analyze_trace(analysed, config)
            except NcRingError as exc:  # an analysis that raises is digested by its error
                digest.update(repr(exc).encode())
                outcome = f"{type(exc).__name__},,,"
            else:
                verdict = result.verdict
                digest.update(verdict_facts(verdict))
                digest.update(result.lam.tobytes() + result.sig.tobytes())
                digest.update(result.method.encode())
                digest.update(
                    f"{result.trace_noise_rms.hex()} {result.residual_floor.hex()}".encode())
                outcome = (f"{verdict.kind.value},{verdict.estimated_n},"
                           f"{verdict.estimated_parity},{verdict.estimated_f_nc!r}")
            if digest is shared:
                table.append(f"{index},{n},{f_nc!r},{grid},{points},{noise!r},{seed},"
                             f"{f_lo!r},{f_hi!r},{window},{outcome}")
    return [(shared.hexdigest(), "analysis/shared_grid"),
            (copied.hexdigest(), "analysis/copied_grid")], table


FIT_CASES = 2000


def fit_digest() -> list[tuple[str, str]]:
    """(sha256, name) of fit_power_law over the fit mix: each fit's repr, or its error's."""
    import numpy as np

    from ncring.errors import NcRingError
    from ncring.pipeline import fit_power_law

    rng = np.random.default_rng(FIT_CASES)
    digest = hashlib.sha256()
    for _ in range(FIT_CASES):
        n = int(rng.choice((int(rng.integers(0, 7)), int(rng.integers(7, 400)))))
        f = np.geomspace(1e-3, 0.4, n) if rng.random() < 0.5 else rng.uniform(1e-4, 1.0, n)
        if rng.random() < 0.1:
            f[:] = rng.uniform(1e-3, 0.4)  # a single flux
        values = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 4.0)
                  * f ** rng.uniform(-3.0, 1.0) * (1.0 + 0.3 * rng.standard_normal(n)))
        for bad in (0.0, -1e-2, np.nan, np.inf):  # flux no log-log line can hold
            f[rng.random(n) < rng.choice((0.0, 0.05))] = bad
        values[rng.random(n) < rng.uniform(0.0, 0.3)] *= -1.0
        for bad in (np.nan, np.inf, -np.inf):
            values[rng.random(n) < rng.choice((0.0, 0.05))] = bad
        floor = float(rng.choice((0.0, 10.0 ** rng.uniform(-8.0, 5.0))))
        try:
            digest.update(repr(fit_power_law(f, values, floor)).encode())
        except NcRingError as exc:  # a fit that raises is digested by its error
            digest.update(repr(exc).encode())
    return [(digest.hexdigest(), "fit/power_law")]


def digests(root: Path) -> list[tuple[str, str]]:
    """(sha256, run/file) for every file the run set writes under `root`."""
    from ncring.cli import main

    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    stdout = {}
    for name, (ring, simulate, analyze) in SIMULATE_ANALYZE.items():
        out = root / name
        rc_sim, text_sim = _run(main, ["simulate", *ring, *simulate, "--out", str(out)], root)
        rc_ana, text_ana = _run(
            main, ["analyze", str(out / "trace.csv"), *ring, *analyze, "--out", str(out)], root
        )
        stdout[name] = f"exit {rc_sim} {rc_ana}\n".encode() + text_sim + text_ana
    for name, argv in STANDALONE.items():
        out = [] if argv[0] in ("constants", "verify") else ["--out", str(root / name)]
        rc, text = _run(main, [*argv, *out], root)
        stdout[name] = f"exit {rc}\n".encode() + text
    rows = [(hashlib.sha256(text).hexdigest(), f"{name}/stdout") for name, text in stdout.items()]
    rows += [
        (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(root).as_posix())
        for path in root.rglob("*") if path.is_file()
    ]
    return sorted(rows, key=lambda row: row[1])


def header() -> list[str]:
    """The golden file's comment lines: :data:`HEADER`, then the Python and numpy
    versions and the SIMD extensions numpy dispatches to on this host, which
    ``NPY_DISABLE_CPU_FEATURES`` narrows and which move log-grid bits."""
    import numpy as np

    simd = np.__config__.CONFIG.get("SIMD Extensions", {}).get("found", [])
    return [*HEADER.splitlines(), f"# python {platform.python_version()}",
            f"# numpy {np.__version__}", f"# numpy SIMD found: {' '.join(simd) or 'none'}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import ncring from (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    print("\n".join(header()))
    with tempfile.TemporaryDirectory() as tmp:
        for digest, name in digests(Path(tmp)) + analysis_digests()[0] + fit_digest():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
