"""Command-line interface tying the model, oracles and pipeline together.

Subcommands:

* constants  -- print the physical constants and derived ring scales
* spectrum   -- tabulate single-particle energies over (n, f)
* current    -- closed-form current trace to CSV
* signatures -- closed-form signature traces to CSV and a log-log SVG
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
import os
import sys
from pathlib import Path

import numpy as np

from ncring.dataio import (
    RunConfig,
    read_config,
    read_trace_csv,
    write_results_report,
    write_table,
    write_trace_csv,
)
from ncring.errors import (
    DegenerateFit,
    InvalidRange,
    NcRingError,
    NonMonotonicFlux,
    ParseError,
    TooFewPoints,
    UnitMismatch,
)
from ncring.model import eigenenergy, lambda_signature, sigma_signature
from ncring.oracle import current_sweep, ground_state_sweep, signature_sweep
from ncring.pipeline import analyze_trace, flux_grid, synthesize_trace
from ncring.svgplot import emit_plot

_INPUT_ERRORS = (
    ParseError,
    NonMonotonicFlux,
    UnitMismatch,
    InvalidRange,
    TooFewPoints,
    DegenerateFit,
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="configuration file (key = value lines)")
    parser.add_argument("--out", help="output directory (default: $NCRING_OUT or ./out)")
    parser.add_argument(
        "--radius", dest="radius_m", metavar="RADIUS", type=float, help="ring radius in m"
    )
    parser.add_argument("--n-electrons", type=int, help="electron count N")
    parser.add_argument("--theta-tilde", type=float, help="momentum noncommutativity scale")
    parser.add_argument("--alpha", type=float, help="map scaling alpha in (0, 1]")
    parser.add_argument("--seed", type=int, help="noise generator seed")
    parser.add_argument("--noise-sigma", type=float, help="noise sigma in j0 units")
    parser.add_argument("--f-min", type=float, help="lower flux bound (phi0 units)")
    parser.add_argument("--f-max", type=float, help="upper flux bound (phi0 units)")
    parser.add_argument(
        "--points", dest="n_points", metavar="POINTS", type=int, help="number of grid points"
    )
    parser.add_argument("--grid", choices=("log", "uniform"), help="grid spacing")
    parser.add_argument("--smoothing-window", type=int, help="odd moving-average width")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncring",
        description="Quantum-ring persistent currents with a noncommutative effective flux",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("constants", "print constants and derived ring scales"),
        ("spectrum", "tabulate eigenenergies over (n, f) to spectrum.csv"),
        ("current", "closed-form current trace to current.csv"),
        ("signatures", "closed-form signatures to signatures.csv and a log-log plot"),
        ("simulate", "synthesize a measurement trace to trace.csv"),
        ("analyze", "run the detection pipeline on a trace CSV"),
        ("verify", "check closed forms against brute-force oracles"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "spectrum":
            p.add_argument("--n-levels", type=int, default=3, help="tabulate n in [-K, K]")
        if name == "analyze":
            p.add_argument("trace", help="trace CSV to analyze")
            p.add_argument(
                "--no-blind",
                dest="blind",
                action="store_false",
                help="allow ring metadata in the trace to bypass estimation",
            )
            p.set_defaults(blind=True)
        if name == "verify":
            p.add_argument(
                "--quick", action="store_true", help="smaller sweeps for a fast check"
            )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = read_config(args.config) if args.config else RunConfig()
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ValueError as exc:
            raise InvalidRange(str(exc)) from None
    return config


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("NCRING_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_signatures(
    table: Path, svg: Path, f: np.ndarray, lam: np.ndarray, sig: np.ndarray, comments=()
) -> Path:
    """Write the f,lambda,sigma table and the |lambda|, |sigma| log-log plot."""
    write_table(table, "f,lambda,sigma", (f, lam, sig), comments)
    return emit_plot(
        [
            ("|lambda|", np.transpose((f, np.abs(lam)))),
            ("|sigma|", np.transpose((f, np.abs(sig)))),
        ],
        svg,
    )


def cmd_constants(args: argparse.Namespace) -> int:
    config = _load_config(args)
    ring = config.ring()
    c = ring.constants
    rows = [
        ("hbar_J_s", c.hbar),
        ("e_charge_C", c.e_charge),
        ("h_planck_J_s", c.h_planck),
        ("m_electron_kg", c.m_electron),
        ("flux_quantum_Wb", c.flux_quantum),
        ("radius_m", ring.radius),
        ("n_electrons", ring.n_electrons),
        ("parity", ring.parity),
        ("alpha", ring.sw.alpha),
        ("theta", ring.sw.theta),
        ("theta_tilde", ring.sw.theta_tilde),
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
    out_dir = _out_dir(args)
    grid = flux_grid(config.f_min, config.f_max, config.n_points, config.grid)
    table = out_dir / "signatures.csv"
    svg = _write_signatures(
        table,
        out_dir / "signatures_loglog.svg",
        grid,
        lambda_signature(ring, grid),
        sigma_signature(ring, grid),
    )
    print(f"wrote {table}")
    print(f"wrote {svg} (+ csv twin)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    return _write_synthetic(args, "trace.csv", noisy=True)


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args)
    trace = read_trace_csv(args.trace, ring=config.ring())
    result = analyze_trace(trace, config, blind=args.blind)
    out_dir = _out_dir(args)
    signatures = result.signatures
    _write_signatures(
        out_dir / "derived_signatures.csv",
        out_dir / "derived_loglog.svg",
        signatures.f,
        signatures.lam,
        signatures.sig,
        comments=(f"# method: {signatures.method}",),
    )

    report = out_dir / "report.txt"
    write_results_report(
        result.verdict,
        config,
        report,
        trace_noise_rms=result.trace_noise_rms,
        residual_floor=result.residual_floor,
    )
    print(f"verdict: {result.verdict.kind.value}")
    print(f"wrote {report}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.quick:
        sweeps = [
            ground_state_sweep(n_values=range(1, 13), n_flux=31),
            current_sweep(n_values=range(1, 13), n_flux=31),
            signature_sweep(n_flux=15),
        ]
    else:
        sweeps = [ground_state_sweep(), current_sweep(), signature_sweep()]
    ok = True
    for sweep in sweeps:
        print(sweep.summary())
        ok = ok and sweep.passed
    if not ok:
        print("verification FAILED: closed forms disagree with the oracles")
        return 1
    print("verification passed")
    return 0


_COMMANDS = {
    "constants": cmd_constants,
    "spectrum": cmd_spectrum,
    "current": cmd_current,
    "signatures": cmd_signatures,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
