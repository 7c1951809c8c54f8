"""Command-line interface tying the model, oracles and pipeline together.

Subcommands:

* constants  -- print the physical constants and derived ring scales
* spectrum   -- tabulate single-particle energies over (n, f)
* current    -- closed-form current trace to CSV
* signatures -- closed-form signature table to CSV, drawn beside it as a log-log SVG
* simulate   -- synthesize a (optionally noisy) measurement trace to CSV
* analyze    -- run the detection pipeline on a trace CSV
* verify     -- compare the closed forms against the brute-force oracles

Every command is deterministic given its flags and input files; randomness
only enters through the seeded noise generator.  Verdicts are data (in the
report), not exit codes: exit 0 means the command ran, 2 means bad input,
1 means an internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from ncring.constants import E_CHARGE, FLUX_QUANTUM, HBAR, H_PLANCK, M_ELECTRON
from ncring.dataio import (
    read_config,
    read_trace_csv,
    write_results_report,
    write_table,
    write_trace_csv,
)
from ncring.errors import InputError, InvalidRange, NcRingError
from ncring.model import eigenenergy, lambda_signature, sigma_signature
from ncring.oracle import current_sweep, ground_state_sweep, signature_sweep, zone_filling
from ncring.pipeline import (MAX_ROWS, RunConfig, analyze_trace, check_zone, flux_grid,
                             synthesize_trace)
from ncring.svgplot import emit_plot

_INPUT_ERRORS = (InputError, FileNotFoundError, FileExistsError,
                 IsADirectoryError, NotADirectoryError)


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = read_config(args.config) if args.config else RunConfig()
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    return dataclasses.replace(config, **overrides)


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("NCRING_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_signatures(
    stem: Path, f: np.ndarray, lam: np.ndarray, sig: np.ndarray, comments=()
) -> Path:
    """Write the f,lambda,sigma table to stem.csv and the log-log plot of its
    |lambda| and |sigma| to stem.svg; return the SVG path."""
    write_table(stem.with_suffix(".csv"), "f,lambda,sigma", (f, lam, sig), comments)
    return emit_plot(
        [
            ("|lambda|", np.transpose((f, np.abs(lam)))),
            ("|sigma|", np.transpose((f, np.abs(sig)))),
        ],
        stem.with_suffix(".svg"),
    )


def cmd_constants(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ring = config.ring()
    rows = [
        ("hbar_J_s", HBAR),
        ("e_charge_C", E_CHARGE),
        ("h_planck_J_s", H_PLANCK),
        ("m_electron_kg", M_ELECTRON),
        ("flux_quantum_Wb", FLUX_QUANTUM),
        ("radius_m", ring.radius),
        ("n_electrons", ring.n_electrons),
        ("parity", ring.parity),
        ("alpha", ring.alpha),
        ("theta_tilde", ring.theta_tilde),
        ("mass_kg", ring.mass),
        ("m_star_kg", ring.m_star),
        ("epsilon0_J", ring.epsilon0),
        ("j0_A", ring.j0),
        ("f_nc", ring.f_nc),
        ("phi_nc_Wb", ring.phi_nc),
        ("b_eff_T", ring.b_eff),
    ]
    for key, value in rows:
        print(f"{key}: {value}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ring = config.ring()
    k = args.n_levels
    if k < 0:
        raise InvalidRange("--n-levels must be non-negative")
    if (rows := config.n_points * (2 * k + 1)) > MAX_ROWS:
        raise InvalidRange(f"--points x (2 --n-levels + 1) must be at most {MAX_ROWS}, got {rows}")
    out = _out_dir(args) / "spectrum.csv"
    grid = flux_grid(config.f_min, config.f_max, config.n_points, config.grid)
    levels = np.arange(-k, k + 1)
    f = np.repeat(grid, levels.size)
    n = np.tile(levels, grid.size)
    write_table(out, "f,n,E_reduced", (f, n, eigenenergy(ring, n, f)))
    print(f"wrote {out}")
    return 0


def _write_synthetic(args: argparse.Namespace, filename: str, noisy: bool) -> int:
    config = _load_config(args)
    ring = config.ring()
    trace = synthesize_trace(
        ring, config.f_min, config.f_max, config.n_points,
        noise_sigma=config.noise_sigma if noisy else 0.0,
        seed=config.seed if noisy else None,
        grid=config.grid,
    )
    out = _out_dir(args) / filename
    write_trace_csv(trace, out, units=config.units, ring=ring)
    print(f"wrote {out}")
    return 0


def cmd_current(args: argparse.Namespace) -> int:
    return _write_synthetic(args, "current.csv", noisy=False)


def cmd_signatures(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ring = config.ring()
    grid = flux_grid(config.f_min, config.f_max, config.n_points, config.grid)
    check_zone(ring, config.f_min, config.f_max)
    out_dir = _out_dir(args)
    stem = out_dir / "signatures"
    svg = _write_signatures(
        stem, grid, lambda_signature(ring, grid), sigma_signature(ring, grid)
    )
    print(f"wrote {stem.with_suffix('.csv')}")
    print(f"wrote {svg}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    return _write_synthetic(args, "trace.csv", noisy=True)


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args)
    trace = read_trace_csv(args.trace, ring=config.ring())
    f, result = trace.f, analyze_trace(trace, config, blind=args.blind)
    del trace  # its current is freed before the files are written
    out_dir = _out_dir(args)
    _write_signatures(out_dir / "derived_signatures", f, result.lam, result.sig,
                      comments=(f"# method: {result.method}",))

    report = out_dir / "report.txt"
    write_results_report(result, config, report)
    print(f"verdict: {result.verdict.kind.value}")
    print(f"wrote {report}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    filled = zone_filling()  # the two zone sweeps check the same rings
    sweeps = [ground_state_sweep(filled), current_sweep(filled), signature_sweep()]
    ok = True
    for sweep in sweeps:
        print(sweep.summary())
        ok = ok and sweep.passed
    if not ok:
        print("verification FAILED: closed forms disagree with the oracles")
        return 1
    print("verification passed")
    return 0


# Flag groups, as (flag, argparse keywords) pairs.  Each command takes only the
# groups it reads, so a flag that it would ignore exits 2.
_CONFIG = (("--config", dict(help="configuration file (key = value lines)")),)
_OUT = (("--out", dict(help="output directory (default: $NCRING_OUT or ./out)")),)
_RING = (
    ("--radius", dict(dest="radius_m", metavar="RADIUS", type=float, help="ring radius in m")),
    ("--n-electrons", dict(type=int, help="electron count N")),
    ("--theta-tilde", dict(type=float, help="momentum noncommutativity scale")),
    ("--alpha", dict(type=float, help="map scaling alpha in (0, 1]")),
)
_GRID = (
    ("--f-min", dict(type=float, help="lower flux bound (phi0 units)")),
    ("--f-max", dict(type=float, help="upper flux bound (phi0 units)")),
    ("--points", dict(dest="n_points", metavar="POINTS", type=int, help="number of grid points")),
    ("--grid", dict(choices=("log", "uniform"), help="grid spacing")),
)
_NOISE = (
    ("--seed", dict(type=int, help="noise generator seed")),
    ("--noise-sigma", dict(type=float, help="noise sigma in j0 units")),
)
_LEVELS = (("--n-levels", dict(type=int, default=3, help="tabulate n in [-K, K]")),)
_ANALYSIS = (
    ("trace", dict(help="trace CSV to analyze")),
    ("--smoothing-window", dict(type=int, help="odd moving-average width")),
    ("--no-blind", dict(dest="blind", action="store_false",
                        help="allow ring metadata in the trace to bypass estimation")),
)

# name -> (function, help, flag groups): the one table that builds and dispatches the commands
_COMMANDS = {
    "constants": (cmd_constants, "print constants and derived ring scales", (_CONFIG, _RING)),
    "spectrum": (cmd_spectrum, "tabulate eigenenergies over (n, f) to spectrum.csv",
                 (_CONFIG, _OUT, _RING, _GRID, _LEVELS)),
    "current": (cmd_current, "closed-form current trace to current.csv",
                (_CONFIG, _OUT, _RING, _GRID)),
    "signatures": (cmd_signatures, "closed-form signatures to signatures.csv and a log-log plot",
                   (_CONFIG, _OUT, _RING, _GRID)),
    "simulate": (cmd_simulate, "synthesize a measurement trace to trace.csv",
                 (_CONFIG, _OUT, _RING, _GRID, _NOISE)),
    "analyze": (cmd_analyze, "run the detection pipeline on a trace CSV",
                (_CONFIG, _OUT, _RING, _ANALYSIS)),
    "verify": (cmd_verify, "check closed forms against brute-force oracles", ()),
}


@functools.cache  # one tree serves every call of main in a process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncring",
        description="Quantum-ring persistent currents with a noncommutative effective flux",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, groups) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for group in groups:
            for flag, keywords in group:
                command.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except _INPUT_ERRORS as exc:
        print(f"ncring: error: {exc}", file=sys.stderr)
        return 2
    except NcRingError as exc:
        print(f"ncring: internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect: one line, never a traceback
        print(f"ncring: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
